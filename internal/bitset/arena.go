package bitset

// Arena hands out same-universe Sets whose word storage is sliced from
// large shared slabs, so a parse that creates thousands of instance covers
// pays one heap allocation per slab instead of one per cover — and, once
// Recycle has returned the slabs, none at all. Sets created by an Arena are
// ordinary Sets in every way except provenance and lifetime: they stay valid
// until the next Recycle, which clears their slabs for reuse. A Set that must
// outlive that point has to be copied out first (Clone, CloneInto).
//
// An Arena is single-owner scratch state — the parser engine that holds it
// — and must not be shared across goroutines.
type Arena struct {
	universe int
	wpn      int      // words per set
	slab     []uint64 // the slab being carved
	used     [][]uint64
	free     [][]uint64 // cleared slabs awaiting reuse
}

// slabSets is how many sets one freshly allocated slab holds. 128 keeps
// slabs around 1-4 KiB for typical token universes — small enough not to
// strand memory when a parse creates few instances, large enough to
// amortize allocation when it creates thousands. maxFreeSlabs caps how many
// cleared slabs an arena keeps for reuse, so a single pathological parse
// cannot pin an unbounded pool.
const (
	slabSets     = 128
	maxFreeSlabs = 16
)

// Reset prepares the arena to allocate sets over the universe [0, n). Sets
// already handed out are untouched and stay valid until Recycle.
func (a *Arena) Reset(n int) {
	if n < 0 {
		n = 0
	}
	a.universe = n
	a.wpn = Words(n)
	a.slab = nil
}

// Recycle ends the lifetime of every set the arena has handed out: their
// slabs are cleared and kept (up to maxFreeSlabs) for the sets New carves
// next. Reading or writing such a set afterwards sees another set's words.
func (a *Arena) Recycle() {
	for _, s := range a.used {
		clear(s)
		if len(a.free) < maxFreeSlabs {
			a.free = append(a.free, s[:0])
		}
	}
	clear(a.used)
	a.used = a.used[:0]
	a.slab = nil
}

// New returns an empty set over the arena's universe, carved from the
// current slab. Slabs are all-zero whenever they are (re)issued — fresh ones
// by allocation, recycled ones because Recycle clears exactly the prefix
// each carved — so extending the slab yields an empty set without clearing.
func (a *Arena) New() Set {
	if a.wpn == 0 {
		return Set{n: a.universe}
	}
	if len(a.slab)+a.wpn > cap(a.slab) {
		a.slab = a.nextSlab()
	}
	start := len(a.slab)
	a.slab = a.slab[:start+a.wpn]
	a.used[len(a.used)-1] = a.slab
	// Three-index slice: a set must never grow into its neighbor's words.
	return Set{words: a.slab[start : start+a.wpn : start+a.wpn], n: a.universe}
}

// nextSlab issues an empty slab with room for at least one set, preferring
// a recycled one, and records it as used.
func (a *Arena) nextSlab() []uint64 {
	var s []uint64
	for len(a.free) > 0 && s == nil {
		n := len(a.free) - 1
		if cap(a.free[n]) >= a.wpn {
			s = a.free[n]
		}
		a.free[n] = nil
		a.free = a.free[:n]
	}
	if s == nil {
		s = make([]uint64, 0, a.wpn*slabSets)
	}
	a.used = append(a.used, s)
	return s
}
