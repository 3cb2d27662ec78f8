package layout

import (
	"formext/internal/htmlparse"
	"formext/internal/slab"
)

// Arena supplies every allocation a layout run makes. Only the joined text
// behind TextBox.Text outlives the run — tokens alias it as their string
// values — so Release hands its blocks over (the core slab discipline).
// Everything else — Box structs, the child-pointer slices behind
// Box.Children, flow structs, table grids, column widths, the cell-measure
// memo — is scratch carved from the same arena so a run performs no
// per-node heap allocation at all. No Result reaches a Box (tokens copy
// their Pos and point at DOM nodes), so the render tree is valid only until
// Release, which recycles its blocks for the next run.
//
// One arena serves one layout run at a time. The facade pools arenas per
// extractor; the zero value is ready to use, and a nil *Arena makes every
// helper fall back to plain heap allocation, which keeps Engine.Layout
// usable without one.
type Arena struct {
	text slab.Bytes

	// Scratch. Nothing retains objects carved from the slabs below past
	// Release, which resets them — blocks are zeroed and kept for the next
	// run instead of re-allocated per extraction — and the memo map is
	// cleared and reused the same way.
	boxes   slab.Slab[Box]
	ptrs    slab.Slab[*Box]
	flows   slab.Slab[flow]
	rows    slab.Slab[*htmlparse.Node]
	cells   slab.Slab[tableCell]
	rowCell slab.Slab[[]tableCell]
	laid    slab.Slab[laidCell]
	nums    slab.Slab[float64]
	spans   []wordSpan
	measure map[*htmlparse.Node]float64
}

// Release hands the render text its memory, returns the bytes of the
// blocks handed over, and recycles everything else: the render tree is
// invalid from here on. Scratch slabs are reset, not dropped, so their
// zeroed blocks carry over to the next run (Reset's clearing also unpins
// the DOM — recycled boxes, flows and grid structs hold node and box
// pointers until overwritten otherwise).
func (a *Arena) Release() int64 {
	if a == nil {
		return 0
	}
	n := a.text.Drop()
	a.boxes.Reset()
	a.ptrs.Reset()
	a.flows.Reset()
	a.rows.Reset()
	a.cells.Reset()
	a.rowCell.Reset()
	a.laid.Reset()
	a.nums.Reset()
	a.spans = a.spans[:0]
	clear(a.measure)
	return n
}

func (a *Arena) newBox() *Box {
	if a == nil {
		return &Box{}
	}
	b := a.boxes.New()
	*b = Box{}
	return b
}

func (a *Arena) appendBox(dst []*Box, b *Box) []*Box {
	if a == nil {
		return append(dst, b)
	}
	return a.ptrs.Append(dst, b)
}

func (a *Arena) newFlow() *flow {
	if a == nil {
		return &flow{}
	}
	f := a.flows.New()
	*f = flow{}
	return f
}
