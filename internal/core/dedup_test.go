package core

import (
	"math/rand"
	"testing"

	"formext/internal/grammar"
)

// TestDedupTableMatchesStructuralKey drives the integer dedup table and the
// structuralKey string rendering (the retired dedup representation, kept as
// the oracle) with the same pseudo-random key stream and demands they agree
// on every membership answer. The stream is biased toward repeats and grows
// the table well past its initial slot count, so growth repositioning and
// probe-chain verification are both exercised.
func TestDedupTableMatchesStructuralKey(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	syms := []string{"QI", "HQI", "CP", "TextVal", "RBList"}

	var tab dedupTable
	tab.reset()
	oracle := map[string]bool{}

	insts := make([]*grammar.Instance, 64)
	for i := range insts {
		insts[i] = &grammar.Instance{ID: i}
	}

	key := make([]int32, 0, 8)
	for round := 0; round < 20000; round++ {
		symID := rng.Intn(len(syms))
		nkids := rng.Intn(5)
		comps := make([]*grammar.Instance, nkids)
		key = append(key[:0], int32(symID))
		for j := range comps {
			// A small ID universe forces frequent duplicate keys.
			comps[j] = insts[rng.Intn(16)]
			key = append(key, int32(comps[j].ID))
		}
		sk := structuralKey(syms[symID], comps)
		fresh := tab.insert(key)
		if fresh == oracle[sk] {
			t.Fatalf("round %d: dedupTable fresh=%v but oracle seen=%v for key %q",
				round, fresh, oracle[sk], sk)
		}
		oracle[sk] = true
	}
	if tab.n != len(oracle) {
		t.Errorf("table holds %d keys, oracle %d", tab.n, len(oracle))
	}
	if len(tab.slots) <= dedupMinSlots {
		t.Errorf("stream too small to trigger growth (slots=%d)", len(tab.slots))
	}
}

// TestDedupTableDistinguishesKeys pins the confusable shapes a string key
// separates with delimiters: shared prefixes, permutations, and keys whose
// int32 words would concatenate identically at a different split.
func TestDedupTableDistinguishesKeys(t *testing.T) {
	var tab dedupTable
	keys := [][]int32{
		{1},
		{1, 2},
		{1, 2, 3},
		{1, 3, 2},
		{2, 1, 3},
		{12, 3},
		{1, 23},
	}
	for i, k := range keys {
		if !tab.insert(k) {
			t.Errorf("key %d %v reported as duplicate", i, k)
		}
	}
	for i, k := range keys {
		if tab.insert(k) {
			t.Errorf("key %d %v not found on re-insert", i, k)
		}
	}
}

// TestDedupTableReset verifies reset forgets membership but keeps capacity.
func TestDedupTableReset(t *testing.T) {
	var tab dedupTable
	tab.insert([]int32{7, 8, 9})
	tab.reset()
	if tab.n != 0 {
		t.Fatalf("n = %d after reset", tab.n)
	}
	if !tab.insert([]int32{7, 8, 9}) {
		t.Error("key survived reset")
	}
}

// TestDedupInsertDuplicateNoAlloc guards the hot-path property the table
// exists for: probing an already-present key allocates nothing. (A fresh
// insert may still grow the arena or slot array; the duplicate path — the
// overwhelmingly common one inside a fix point — must be allocation-free.)
func TestDedupInsertDuplicateNoAlloc(t *testing.T) {
	var tab dedupTable
	key := []int32{3, 1, 4, 1, 5}
	tab.insert(key)
	allocs := testing.AllocsPerRun(100, func() {
		if tab.insert(key) {
			t.Fatal("duplicate reported fresh")
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate insert allocates %.1f/op, want 0", allocs)
	}
}

// TestDedupTableShrinksAfterHugeParse pins the high-water fix: one parse
// that grows the table far past its minimum must not leave every later
// parse on the pooled engine clearing the grown slot array. The reset
// after the huge parse keeps its size (that parse needed it); once a
// small parse has run, the next reset shrinks to four times the small
// parse's need, and the shrunk table still answers membership correctly.
func TestDedupTableShrinksAfterHugeParse(t *testing.T) {
	var tab dedupTable
	tab.reset()
	key := make([]int32, 3)
	fill := func(n int, base int32) {
		for i := 0; i < n; i++ {
			key[0], key[1], key[2] = 7, base+int32(i), int32(i%13)
			if !tab.insert(key) {
				t.Fatalf("fresh key %d reported present", i)
			}
		}
	}
	fill(60000, 0)
	grown := len(tab.slots)
	if grown < 64*dedupMinSlots {
		t.Fatalf("60000 keys grew the table to only %d slots", grown)
	}
	tab.reset() // the previous parse used the grown size: keep it
	if len(tab.slots) != grown || tab.n != 0 || len(tab.keys) != 0 {
		t.Fatalf("reset after the huge parse: slots %d (want %d), n %d, keys %d", len(tab.slots), grown, tab.n, len(tab.keys))
	}
	fill(100, 1<<20)
	tab.reset() // the previous parse used a sliver: shrink
	if want := 4 * dedupMinSlots; len(tab.slots) != want {
		t.Fatalf("reset after a small parse kept %d slots, want %d", len(tab.slots), want)
	}
	fill(2000, 1<<21)
	key[0], key[1], key[2] = 7, 1<<21, 0
	if tab.insert(key) {
		t.Error("shrunk table lost a key")
	}
	// A table the last parse used substantially is cleared in place, not
	// reallocated.
	before := &tab.slots[0]
	tab.reset()
	if &tab.slots[0] != before {
		t.Error("reset reallocated a table the last parse used substantially")
	}
	if tab.n != 0 || !tab.insert(key) {
		t.Error("reset left keys behind")
	}
}
