package core

// Shared test corpus and result rendering: the fuzz token generator, the
// observe-seam capture of a parse's full instance set, and the canonical
// result dump the differential tests compare (exported to the external test
// package through export_test.go).

import (
	"fmt"
	"math/rand"
	"strings"

	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/token"
)

// fuzzTokens generates a deterministic pseudo-random token set: form-ish
// vocabulary over a loose grid, with enough type and geometry variety to
// reach every terminal the default grammar mentions.
func fuzzTokens(rng *rand.Rand, n int) []*token.Token {
	words := []string{
		"Author", "Title", "Last Name", "Exact name", "keywords",
		"Select a month", "Departure Date", "City", "zip code",
		"between", "and", "of", "contains", "starts with",
	}
	months := []string{"January", "February", "March", "April"}
	ops := []string{"contains", "starts with", "exact phrase"}
	toks := make([]*token.Token, n)
	x, y := 10.0, 10.0
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			x, y = 10+float64(rng.Intn(30)), y+20+float64(rng.Intn(25))
		}
		w := 20 + float64(rng.Intn(140))
		pos := geom.R(x, x+w, y, y+12+float64(rng.Intn(10)))
		x += w + 4 + float64(rng.Intn(12))
		tk := &token.Token{ID: i, Pos: pos}
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			tk.Type = token.Text
			tk.SVal = words[rng.Intn(len(words))]
			if rng.Intn(6) == 0 {
				tk.ForID = fmt.Sprintf("fld-%d", rng.Intn(n))
			}
		case 4, 5:
			tk.Type = token.Textbox
			tk.Name = fmt.Sprintf("q%d", i)
			if rng.Intn(4) == 0 {
				tk.ElemID = fmt.Sprintf("fld-%d", i)
			}
		case 6, 7:
			tk.Type = token.RadioButton
			tk.Name = fmt.Sprintf("grp-%d", rng.Intn(3))
			tk.Value = fmt.Sprintf("v%d", i)
		case 8:
			tk.Type = token.SelectList
			tk.Name = fmt.Sprintf("sel-%d", i)
			if rng.Intn(2) == 0 {
				tk.Options = months
			} else {
				tk.Options = ops
			}
		default:
			tk.Type = token.Checkbox
			tk.Name = fmt.Sprintf("cb-%d", i)
		}
		toks[i] = tk
	}
	return toks
}

// watchParses installs p's observe seam and returns a function reporting
// the most recent parse's instances: a deep copy of every instance it
// created, in ID order, with children, covers and Dead flags. Filtered
// through alive, it is the full alive set the Result no longer carries.
// The parser must not be parsing concurrently while the seam is read.
func watchParses(p *Parser) func() []*grammar.Instance {
	var last []*grammar.Instance
	p.observe = func(all []*grammar.Instance) { last = cloneInstances(all) }
	return func() []*grammar.Instance { return last }
}

// cloneInstances deep-copies an engine's instance list (IDs dense from 0,
// children before parents) into test-owned storage.
func cloneInstances(all []*grammar.Instance) []*grammar.Instance {
	dst := make([]grammar.Instance, len(all))
	out := make([]*grammar.Instance, len(all))
	for i, in := range all {
		dst[i] = *in
		dst[i].Cover = in.Cover.Clone()
		out[i] = &dst[i]
	}
	for i := range dst {
		if cs := dst[i].Children; len(cs) > 0 {
			kids := make([]*grammar.Instance, len(cs))
			for j, c := range cs {
				kids[j] = out[c.ID]
			}
			dst[i].Children = kids
		}
	}
	return out
}

// alive returns the instances of all that survived the parse.
func alive(all []*grammar.Instance) []*grammar.Instance {
	var out []*grammar.Instance
	for _, in := range all {
		if !in.Dead {
			out = append(out, in)
		}
	}
	return out
}

// renderResult flattens everything parity must preserve into one string:
// per-instance identity (ID, symbol, production, children, cover, pos) for
// every alive instance of all (the parse's instances, from watchParses),
// the maximal tree IDs, and the statistics with the wall clock zeroed —
// and ConstraintEvals too unless evals is set. The alive section comes
// first, so a render of a parse with any alive instance starts "inst ".
func renderResult(res *Result, all []*grammar.Instance, evals bool) string {
	var sb strings.Builder
	for _, in := range alive(all) {
		prod := ""
		if in.Prod != nil {
			prod = in.Prod.Name
		}
		fmt.Fprintf(&sb, "inst %d %s prod=%q cover=%v pos=%v kids=[", in.ID, in.Sym, prod, in.Cover.Members(), in.Pos)
		for i, c := range in.Children {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", c.ID)
		}
		sb.WriteString("]\n")
	}
	sb.WriteString("maximal [")
	for i, m := range res.Maximal {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", m.ID)
	}
	sb.WriteString("]\n")
	st := res.Stats
	st.Duration = 0
	if !evals {
		st.ConstraintEvals = 0
	}
	fmt.Fprintf(&sb, "stats %+v\n", st)
	return sb.String()
}
