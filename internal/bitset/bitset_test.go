package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Errorf("fresh set should not have %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Errorf("set should have %d after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Errorf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Has(64) {
		t.Error("set should not have 64 after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Errorf("Count = %d, want 7", got)
	}
}

func TestOutOfRange(t *testing.T) {
	s := New(10)
	if s.Has(-1) || s.Has(10) {
		t.Error("Has out of range should be false")
	}
	mustPanic(t, func() { s.Add(10) })
	mustPanic(t, func() { s.Add(-1) })
	mustPanic(t, func() { s.Remove(10) })
	mustPanic(t, func() { s.Intersects(New(11)) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestOfAndMembers(t *testing.T) {
	s := Of(100, 3, 1, 77, 3)
	got := s.Members()
	want := []int{1, 3, 77}
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

func TestSetOps(t *testing.T) {
	a := Of(200, 1, 2, 3, 130)
	b := Of(200, 3, 4, 150)
	u := a.Union(b)
	for _, i := range []int{1, 2, 3, 4, 130, 150} {
		if !u.Has(i) {
			t.Errorf("union missing %d", i)
		}
	}
	if !a.Intersects(b) {
		t.Error("a and b share 3; Intersects should be true")
	}
	if a.Intersects(Of(200, 5, 151)) {
		t.Error("disjoint sets should not intersect")
	}
	inter := a.Intersection(b)
	if inter.Count() != 1 || !inter.Has(3) {
		t.Errorf("Intersection = %v, want {3}", inter)
	}
}

func TestSubsetSubsumption(t *testing.T) {
	small := Of(100, 1, 2)
	big := Of(100, 1, 2, 3)
	if !small.SubsetOf(big) || !small.ProperSubsetOf(big) {
		t.Error("small should be a proper subset of big")
	}
	if big.SubsetOf(small) {
		t.Error("big should not be a subset of small")
	}
	if small.ProperSubsetOf(small) {
		t.Error("a set is not a proper subset of itself")
	}
	if !small.SubsetOf(small) {
		t.Error("a set is a subset of itself")
	}
	if !New(100).SubsetOf(small) {
		t.Error("empty set is a subset of everything")
	}
}

func TestEqualCloneKey(t *testing.T) {
	a := Of(100, 9, 17, 99)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone should be Equal")
	}
	if a.Key() != b.Key() {
		t.Error("equal sets should share a Key")
	}
	b.Add(0)
	if a.Equal(b) {
		t.Error("diverged clone should not be Equal")
	}
	if a.Key() == b.Key() {
		t.Error("unequal sets should have distinct Keys")
	}
	if a.Has(0) {
		t.Error("mutating clone must not affect original")
	}
}

func TestEmptyAndString(t *testing.T) {
	s := New(64)
	if !s.Empty() {
		t.Error("new set should be Empty")
	}
	s.Add(5)
	if s.Empty() {
		t.Error("set with member should not be Empty")
	}
	if got := Of(10, 1, 3).String(); got != "{1, 3}" {
		t.Errorf("String = %q, want {1, 3}", got)
	}
}

const quickUniverse = 150

func fromMask(lo, hi uint64) Set {
	s := New(quickUniverse)
	s.words[0] = lo
	s.words[1] = hi
	s.words[2] = (lo ^ hi) & ((1 << (quickUniverse % 64)) - 1)
	return s
}

func TestPropertyUnionSuperset(t *testing.T) {
	f := func(alo, ahi, blo, bhi uint64) bool {
		a, b := fromMask(alo, ahi), fromMask(blo, bhi)
		u := a.Union(b)
		return a.SubsetOf(u) && b.SubsetOf(u) && u.Count() <= a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyIntersectionConsistent(t *testing.T) {
	f := func(alo, ahi, blo, bhi uint64) bool {
		a, b := fromMask(alo, ahi), fromMask(blo, bhi)
		inter := a.Intersection(b)
		if a.Intersects(b) != !inter.Empty() {
			return false
		}
		return inter.SubsetOf(a) && inter.SubsetOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyInclusionExclusion(t *testing.T) {
	f := func(alo, ahi, blo, bhi uint64) bool {
		a, b := fromMask(alo, ahi), fromMask(blo, bhi)
		return a.Union(b).Count() == a.Count()+b.Count()-a.Intersection(b).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMembersRoundTrip(t *testing.T) {
	f := func(alo, ahi uint64) bool {
		a := fromMask(alo, ahi)
		r := New(quickUniverse)
		for _, m := range a.Members() {
			r.Add(m)
		}
		return r.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntersects(b *testing.B) {
	x := Of(512, 1, 100, 200, 300, 400, 511)
	y := Of(512, 2, 101, 201, 301, 401, 510)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if x.Intersects(y) {
			b.Fatal("unexpected intersection")
		}
	}
}

// TestNextVisitsMembers checks member iteration with Next against Members
// over random sets spanning several words, plus the edge cases: an empty
// set, a start past the universe, and a negative start.
func TestNextVisitsMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 500; round++ {
		n := rng.Intn(300)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				s.Add(i)
			}
		}
		var got []int
		for m := s.Next(0); m >= 0; m = s.Next(m + 1) {
			got = append(got, m)
		}
		want := s.Members()
		if len(got) != len(want) {
			t.Fatalf("n=%d: Next visited %v, Members %v", n, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Next visited %v, Members %v", n, got, want)
			}
		}
	}
	if New(0).Next(0) != -1 || New(130).Next(0) != -1 {
		t.Error("empty sets have no next member")
	}
	s := Of(130, 0, 64, 129)
	if s.Next(130) != -1 || s.Next(1000) != -1 {
		t.Error("a start past the universe has no next member")
	}
	if s.Next(-5) != 0 || s.Next(1) != 64 || s.Next(65) != 129 {
		t.Errorf("Next(-5), Next(1), Next(65) = %d, %d, %d", s.Next(-5), s.Next(1), s.Next(65))
	}
}
