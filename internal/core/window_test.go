package core

import (
	"math/rand"
	"strings"
	"testing"

	"formext/internal/dataset"
	"formext/internal/geom"
	"formext/internal/grammar"
	"formext/internal/htmlparse"
	"formext/internal/layout"
	"formext/internal/token"
)

// withoutWindows returns a parser over a private copy of p's plan with
// every geometric join window cleared: the full-scan enumeration the
// windows must be observationally identical to.
func withoutWindows(t *testing.T, p *Parser) *Parser {
	t.Helper()
	pl, err := buildPlan(p.pl.g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pl.prods {
		pl.prods[i].win = nil
	}
	return &Parser{pl: pl, opt: p.opt}
}

// tokenizePages runs pages through the real front half of the pipeline.
func tokenizePages(pages ...string) [][]*token.Token {
	lay, tok := layout.New(), token.NewTokenizer()
	out := make([][]*token.Token, 0, len(pages))
	for _, src := range pages {
		out = append(out, tok.Tokenize(lay.Layout(htmlparse.Parse(src))))
	}
	return out
}

// crawlPages generates n distinct pages shaped like the crawl benchmark's:
// every schema, 2 up to the longest schema's conditions, at the Basic
// dataset's hardness.
func crawlPages(n int) []string {
	maxConds := 0
	for _, s := range dataset.AllSchemas {
		maxConds = max(maxConds, len(s.Attrs))
	}
	st := dataset.NewStream(dataset.Config{
		Seed: 1, Sources: n, Schemas: dataset.AllSchemas,
		MinConds: 2, MaxConds: maxConds, Hardness: 0.46,
	})
	var out []string
	for {
		src, ok := st.Next()
		if !ok {
			return out
		}
		out = append(out, src.HTML)
	}
}

// TestJoinWindowsEquivalent is the windows' differential gate: parsing with
// the plan's join windows and with them cleared must build the same
// instances in the same order — same alive set, same maximal trees, every
// Stats counter equal — except ConstraintEvals, which the windows only
// ever lower. The corpus is the parity corpus plus 240 crawl-shaped pages,
// under scheduled, late-pruning and brute-force configurations; the
// instance caps make some parses truncate, which must happen at the same
// instance in both.
func TestJoinWindowsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var fuzz [][]*token.Token
	for i := 0; i < 12; i++ {
		fuzz = append(fuzz, fuzzTokens(rng, 6+rng.Intn(19)))
	}
	parity := append(tokenizePages(dataset.QamHTML, dataset.QaaHTML,
		dataset.Basic()[0].HTML, dataset.Basic()[5].HTML), fuzz...)
	crawl := tokenizePages(crawlPages(240)...)
	small := append(tokenizePages(dataset.Figure5Fragment), fuzz...)

	configs := []struct {
		name   string
		opt    Options
		corpus [][]*token.Token
	}{
		{"parity", Options{}, parity},
		{"crawl", Options{MaxInstances: 50_000}, crawl},
		{"crawlCapped", Options{MaxInstances: 3000}, crawl[:60]},
		{"latePruning", Options{DisableScheduling: true, MaxInstances: 4000}, small},
		{"bruteForce", Options{DisablePreferences: true, MaxInstances: 20000}, small},
	}
	g := grammar.Default()
	truncated := 0
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			pw, err := NewParser(g, cfg.opt)
			if err != nil {
				t.Fatal(err)
			}
			pf := withoutWindows(t, pw)
			lastW, lastF := watchParses(pw), watchParses(pf)
			var evalsW, evalsF int
			for i, toks := range cfg.corpus {
				rw, err := pw.Parse(toks)
				if err != nil {
					t.Fatalf("input %d: windowed: %v", i, err)
				}
				rf, err := pf.Parse(toks)
				if err != nil {
					t.Fatalf("input %d: full scan: %v", i, err)
				}
				got, want := renderResult(rw, lastW(), false), renderResult(rf, lastF(), false)
				if !strings.HasPrefix(got, "inst ") {
					t.Fatalf("input %d: the rendered alive set is empty\n%s", i, got)
				}
				if got != want {
					t.Fatalf("input %d (%d tokens): windowed and full-scan parses diverge\nwindowed:\n%s\nfull scan:\n%s",
						i, len(toks), got, want)
				}
				if rw.Stats.ConstraintEvals > rf.Stats.ConstraintEvals {
					t.Fatalf("input %d: windows raised ConstraintEvals %d -> %d",
						i, rf.Stats.ConstraintEvals, rw.Stats.ConstraintEvals)
				}
				evalsW += rw.Stats.ConstraintEvals
				evalsF += rf.Stats.ConstraintEvals
				if rw.Stats.Truncated {
					truncated++
				}
			}
			t.Logf("%d inputs: ConstraintEvals %d full scan -> %d windowed", len(cfg.corpus), evalsF, evalsW)
			if cfg.name == "crawl" && evalsW >= evalsF {
				t.Errorf("windows did not lower ConstraintEvals on crawl pages (%d -> %d)", evalsF, evalsW)
			}
		})
	}
	if truncated == 0 {
		t.Error("no parse hit MaxInstances; the truncation path went untested")
	}
}

// TestJoinWindowsPlanned pins which slots of the default grammar get a
// window and how: S2's single-factor above(q, h) windows h on its top
// edge, and a factor naming the later slot first (below(o, v) in O1) keys
// the later slot on its leading edge all the same.
func TestJoinWindowsPlanned(t *testing.T) {
	p, err := NewParser(grammar.Default(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*prodPlan{}
	for i := range p.pl.prods {
		byName[p.pl.prods[i].p.Name] = &p.pl.prods[i]
	}
	cases := []struct {
		prod string
		slot int
		want joinWin
	}{
		{"S2", 1, joinWin{on: true, after: true, anchor: 0, ax: geom.Vertical}},   // above(q, h)
		{"T1", 1, joinWin{on: true, after: true, anchor: 0, ax: geom.Horizontal}}, // left(a, v)
		{"T3", 1, joinWin{on: true, after: false, anchor: 0, ax: geom.Vertical}},  // below(a, v)
		{"O1", 2, joinWin{on: true, after: true, anchor: 1, ax: geom.Vertical}},   // below(o, v)
		{"O5", 2, joinWin{on: true, after: true, anchor: 1, ax: geom.Horizontal}}, // left(o, v)
		{"D1", 1, joinWin{on: true, after: true, anchor: 0, ax: geom.Horizontal}}, // left(a, b) && ...
		{"R4", 1, joinWin{on: true, after: true, anchor: 0, ax: geom.Vertical}},   // above(l, u) && samename
		{"G9", 1, joinWin{on: true, after: true, anchor: 0, ax: geom.Horizontal}}, // left(v, t) && width
		{"S4", 1, joinWin{}},  // samerow/hgap: no window
		{"X10", 1, joinWin{}}, // a disjunction is no factor
	}
	for _, c := range cases {
		pp := byName[c.prod]
		if pp == nil {
			t.Fatalf("production %s not in the default grammar", c.prod)
		}
		var got joinWin
		if pp.win != nil {
			got = pp.win[c.slot]
		}
		if got != c.want {
			t.Errorf("%s slot %d: window %+v, want %+v", c.prod, c.slot, got, c.want)
		}
		if pp.win != nil && pp.win[0].on {
			t.Errorf("%s: slot 0 has no earlier slot to anchor a window", c.prod)
		}
	}
}

// TestSubtreeSizesMatchSize checks maximize's bottom-up subtree-size pass
// against the recursive Instance.Size for every alive instance, and for
// the compacted maximal trees the Result keeps.
func TestSubtreeSizesMatchSize(t *testing.T) {
	p, err := NewParser(grammar.Default(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := watchParses(p)
	for i, toks := range tokenizePages(append(crawlPages(20), dataset.QamHTML)...) {
		res, err := p.Parse(toks)
		if err != nil {
			t.Fatal(err)
		}
		// Every instance the parse built, in ID order — children precede
		// parents, as maximize's pass over the engine's list requires.
		all := last()
		keys := make([]maxKey, len(all))
		subtreeSizes(all, keys)
		for _, in := range alive(all) {
			if got, want := int(keys[in.ID].size), in.Size(); got != want {
				t.Fatalf("page %d: instance %d (%s): bottom-up size %d, Size() %d", i, in.ID, in.Sym, got, want)
			}
		}
		for _, m := range res.Maximal {
			if got, want := int(keys[m.ID].size), m.Size(); got != want {
				t.Fatalf("page %d: maximal tree %d (%s): bottom-up size %d, compacted Size() %d", i, m.ID, m.Sym, got, want)
			}
		}
	}
}

// TestFrontierStartJoinsOldWithLaterNew pins the frontier start's
// condition: a slot may skip its old candidates only when no later slot
// has new ones. Under the single global fix point, S joins A (built in
// round 1) with B (built in round 2, one derivation step further from its
// token), so the only assignment pairs an old slot-0 candidate with a new
// slot-1 one.
func TestFrontierStartJoinsOldWithLaterNew(t *testing.T) {
	src := `
terminals text, textbox;
start S;
prod S -> a:A b:B ;
prod A -> t:text ;
prod B -> c:C ;
prod C -> x:textbox ;
`
	p := mustParser(t, src, Options{DisableScheduling: true})
	toks := []*token.Token{
		{ID: 0, Type: token.Text, SVal: "Title", Pos: geom.R(0, 40, 0, 14)},
		{ID: 1, Type: token.Textbox, Name: "q", Pos: geom.R(50, 150, 0, 20)},
	}
	res, err := p.Parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CompleteParses != 1 {
		t.Fatalf("complete parses = %d, want 1 (S over the round-1 A and the round-2 B)", res.Stats.CompleteParses)
	}
}
