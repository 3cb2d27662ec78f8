package core

// dedupTable deduplicates derivations by (head symbol, component instance
// IDs) — the same identity structuralKey renders as a string, without
// materializing a string per candidate derivation. It is an open-addressing
// hash table whose variable-length integer keys live in one appended arena;
// a probe compares the stored key on hash match, so colliding derivations
// are verified, never conflated. The table is engine scratch: reset keeps
// the slot array and key arena capacity for the next parse.
type dedupTable struct {
	slots []dedupSlot
	keys  []int32
	n     int
}

// dedupSlot is one table slot. off is the offset+1 of the key in the arena
// (0 marks an empty slot); hash caches the key's full hash so growth does
// not rehash key bytes and probes reject mismatches cheaply.
type dedupSlot struct {
	hash uint64
	off  int32
	klen int32
}

const dedupMinSlots = 1024

// dedupShrinkFactor is how oversized the slot array may get, relative to
// what the previous parse needed, before reset shrinks it.
const dedupShrinkFactor = 16

// reset empties the table for the next parse. Reset clears the whole slot
// array, so after one huge parse a pooled engine would pay that clear on
// every later parse. The last parse's need is the smallest power of two
// at least 4/3 of its entries (at least dedupMinSlots): the size that
// keeps the load at most 3/4. When the array holds at least
// dedupShrinkFactor times that need, it is reallocated at four times the
// need instead — headroom so that the next somewhat larger parse does not
// regrow it step by step. The key arena is only truncated: it is never
// cleared, so its capacity costs no time.
func (t *dedupTable) reset() {
	need := dedupMinSlots
	for need*3 < t.n*4 {
		need *= 2
	}
	switch {
	case len(t.slots) == 0:
		t.slots = make([]dedupSlot, dedupMinSlots)
	case len(t.slots) >= need*dedupShrinkFactor:
		t.slots = make([]dedupSlot, need*4)
	default:
		clear(t.slots)
	}
	t.keys = t.keys[:0]
	t.n = 0
}

// hashKey is FNV-1a over the key's 32-bit words.
func hashKey(key []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, k := range key {
		h ^= uint64(uint32(k))
		h *= 1099511628211
	}
	return h
}

// insert adds the key if absent and reports whether it was absent. The key
// slice is copied into the arena; callers may reuse their buffer.
func (t *dedupTable) insert(key []int32) bool {
	if len(t.slots) == 0 {
		t.reset()
	}
	// Grow at 3/4 load so probe chains stay short.
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	h := hashKey(key)
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.off == 0 {
			start := len(t.keys)
			t.keys = append(t.keys, key...)
			*s = dedupSlot{hash: h, off: int32(start) + 1, klen: int32(len(key))}
			t.n++
			return true
		}
		if s.hash == h && eqKey(t.keyAt(s), key) {
			return false
		}
	}
}

func (t *dedupTable) keyAt(s *dedupSlot) []int32 {
	return t.keys[s.off-1 : int32(s.off-1)+s.klen]
}

func eqKey(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// grow doubles the slot array, repositioning entries by their cached hash.
func (t *dedupTable) grow() {
	old := t.slots
	t.slots = make([]dedupSlot, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.off == 0 {
			continue
		}
		i := s.hash & mask
		for t.slots[i].off != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
