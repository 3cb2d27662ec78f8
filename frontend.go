package formext

import (
	"sync"
	"unsafe"

	"formext/internal/htmlparse"
	"formext/internal/layout"
	"formext/internal/token"
)

// frontArena bundles the front half of the pipeline's arenas — DOM nodes,
// layout boxes, tokens — so one extraction makes a handful of slab-block
// allocations instead of one per node. The bundles are pooled process-wide:
// arena contents are options-independent, so any extractor can draw any
// bundle, and a warm bundle's block lists and scratch buffers carry their
// capacity into the next extraction.
//
// Ownership follows the slab discipline the core parser set: the DOM,
// layout's joined text and the tokens retain arena memory, so the
// extraction releases the bundle (handing those blocks to the Result, and
// recycling the render tree, which no Result reaches) before returning it
// to the pool. Release is wired through a defer so a panic anywhere in the
// pipeline still leaves the bundle empty and poolable.
type frontArena struct {
	dom htmlparse.Arena
	lay layout.Arena
	tok token.Arena
}

// release hands every retained block to the result and returns the bytes
// of those blocks, for cache accounting.
func (fa *frontArena) release() int64 {
	return fa.dom.Release() + fa.lay.Release() + fa.tok.Release()
}

var frontArenas = sync.Pool{New: func() any { return new(frontArena) }}

// viewBytes views a string's bytes without copying; safe everywhere the
// pipeline is a pure reader (it is — the tree aliases rather than mutates).
func viewBytes(s string) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}
