package htmlparse

import "formext/internal/slab"

// Arena supplies every allocation a parse makes: Node structs, child
// pointer slices, attribute slices, and the byte backing of decoded text
// and uncommon names. One arena serves one parse at a time; the facade
// pools arenas per extractor so a cold extraction reuses warmed block
// lists instead of allocating per node.
//
// Ownership follows the core parser's slab discipline: the produced tree
// retains memory carved from the arena, so after a parse whose tree
// outlives the run (a Result), call Release — the blocks are handed over
// to the tree and the arena starts empty. Scratch state that the tree
// never references (the element stack) survives Release and keeps its
// capacity across parses.
type Arena struct {
	nodes    slab.Slab[Node]
	children slab.Slab[*Node]
	attrs    slab.Slab[Attr]
	text     slab.Bytes

	stack []openElem // parse-time element stack, reused across parses
}

// Release hands the parsed tree its memory and returns the bytes of the
// blocks handed over. The arena is immediately reusable; only the scratch
// stack's capacity carries over.
func (a *Arena) Release() int64 {
	if a == nil {
		return 0
	}
	n := a.nodes.Drop() + a.children.Drop() + a.attrs.Drop() + a.text.Drop()
	// Clear the whole stack capacity: truncation after a parse leaves node
	// pointers in the tail that would otherwise pin the handed-over tree.
	full := a.stack[:cap(a.stack)]
	for i := range full {
		full[i] = openElem{}
	}
	a.stack = full[:0]
	return n
}

// newNode carves a node. Nil-arena calls fall back to the heap, keeping
// the arena optional for one-shot parses.
func (a *Arena) newNode() *Node {
	if a == nil {
		return &Node{}
	}
	return a.nodes.New()
}

// appendChild is AppendChild through the arena's child-pointer slab.
func (a *Arena) appendChild(n, c *Node) {
	c.Parent = n
	if a == nil {
		n.Children = append(n.Children, c)
		return
	}
	n.Children = a.children.Append(n.Children, c)
}

// textBytes returns the byte slab (nil arena → nil slab, whose Copy path
// falls back to plain allocation).
func (a *Arena) textBytes() *slab.Bytes {
	if a == nil {
		return nil
	}
	return &a.text
}

// appendAttr appends through the attribute slab.
func (a *Arena) appendAttr(attrs []Attr, at Attr) []Attr {
	if a == nil {
		return append(attrs, at)
	}
	return a.attrs.Append(attrs, at)
}
