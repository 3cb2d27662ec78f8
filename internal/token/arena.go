package token

import (
	"formext/internal/htmlparse"
	"formext/internal/layout"
	"formext/internal/slab"
)

// Arena supplies every allocation a tokenize pass makes: Token structs,
// the token pointer slice, option string slices, and the byte backing of
// merged labels and option texts. The produced token set retains arena
// memory, so Release hands the blocks over once the result takes
// ownership; the traversal stack and inner-text buffer are scratch that
// survives Release with capacity intact.
type Arena struct {
	toks slab.Slab[Token]
	ptrs slab.Slab[*Token]
	strs slab.Slab[string]
	text slab.Bytes

	stack []*layout.Box // render-tree traversal scratch
	buf   []byte        // inner-text scratch
}

// tokenBlockCap sizes the Token slab's blocks. Tokens are big (200 bytes
// each) and pages carry tens of them, so the default 256-object block would
// hand the Result a mostly-empty 50KB array per extraction.
const tokenBlockCap = 64

// Release hands the token set its memory and returns the bytes of the
// blocks handed over.
func (a *Arena) Release() int64 {
	if a == nil {
		return 0
	}
	n := a.toks.Drop() + a.ptrs.Drop() + a.strs.Drop() + a.text.Drop()
	full := a.stack[:cap(a.stack)]
	for i := range full {
		full[i] = nil
	}
	a.stack = full[:0]
	a.buf = a.buf[:0]
	return n
}

func (a *Arena) newToken() *Token {
	if a == nil {
		return &Token{}
	}
	a.toks.BlockCap = tokenBlockCap
	t := a.toks.New()
	*t = Token{}
	return t
}

func (a *Arena) appendToken(dst []*Token, t *Token) []*Token {
	if a == nil {
		return append(dst, t)
	}
	return a.ptrs.Append(dst, t)
}

func (a *Arena) appendString(dst []string, s string) []string {
	if a == nil {
		return append(dst, s)
	}
	return a.strs.Append(dst, s)
}

// joinLabel builds "prev SPACE s" for a text-token merge; without an arena
// it falls back to plain concatenation.
func (a *Arena) joinLabel(prev, s string) string {
	if a == nil {
		return prev + " " + s
	}
	a.text.BeginRun()
	a.text.AppendString(prev)
	a.text.AppendByte(' ')
	a.text.AppendString(s)
	return a.text.EndRun()
}

// innerText is n.AppendInnerText through the arena's scratch buffer, with
// the result carved from the arena.
func (a *Arena) innerText(n *htmlparse.Node) string {
	if a == nil {
		return n.InnerText()
	}
	a.buf = n.AppendInnerText(a.buf[:0])
	return a.text.Copy(a.buf)
}
