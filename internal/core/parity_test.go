package core_test

// Differential testing of the two evaluation modes: the compiled
// per-grammar plan (the default) against the interpreted Expr walker (the
// semantic reference). Every parser configuration must produce
// byte-identical results — same alive instances (seen through the
// parser's observe seam, since the Result keeps only the maximal trees),
// same covers, same maximal trees, same statistics — on the example corpus
// and on fuzz-generated token sets.

import (
	"math/rand"
	"strings"
	"testing"

	"formext"

	"formext/internal/core"
	"formext/internal/dataset"
	"formext/internal/grammar"
	"formext/internal/token"
)

// parityPages tokenizes the named example pages through the real pipeline
// front half.
func parityPages(tb testing.TB, pages ...string) [][]*token.Token {
	tb.Helper()
	ex, err := formext.New()
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]*token.Token
	for _, p := range pages {
		toks := ex.Tokenize(p)
		if len(toks) == 0 {
			tb.Fatal("page tokenized to nothing")
		}
		out = append(out, toks)
	}
	return out
}

// TestCompiledParity is the differential gate: for every parser
// configuration and every input, Options{} and Options{Interpreted: true}
// must agree exactly.
func TestCompiledParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fuzz := make([][]*token.Token, 0, 12)
	for i := 0; i < 12; i++ {
		fuzz = append(fuzz, core.FuzzTokens(rng, 6+rng.Intn(19)))
	}
	full := append(parityPages(t, dataset.QamHTML, dataset.QaaHTML, dataset.Basic()[0].HTML, dataset.Basic()[5].HTML), fuzz...)
	// The ablation configurations blow up instance counts (that is what
	// they ablate), so they run over the Figure 5 fragment plus the smaller
	// fuzz sets, under an instance cap both modes must hit identically.
	small := parityPages(t, dataset.Figure5Fragment)
	for _, toks := range fuzz {
		if len(toks) <= 14 {
			small = append(small, toks)
		}
	}

	configs := []struct {
		name   string
		opt    core.Options
		corpus [][]*token.Token
	}{
		{"scheduled", core.Options{}, full},
		{"latePruning", core.Options{DisableScheduling: true, MaxInstances: 4000}, small},
		{"bruteForce", core.Options{DisablePreferences: true, MaxInstances: 20000}, small},
	}
	g := grammar.Default()
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			compiledOpt := cfg.opt
			interpOpt := cfg.opt
			interpOpt.Interpreted = true
			pc, err := core.NewParser(g, compiledOpt)
			if err != nil {
				t.Fatal(err)
			}
			pi, err := core.NewParser(g, interpOpt)
			if err != nil {
				t.Fatal(err)
			}
			lastC, lastI := core.WatchParses(pc), core.WatchParses(pi)
			for ti, toks := range cfg.corpus {
				rc, err := pc.Parse(toks)
				if err != nil {
					t.Fatalf("input %d: compiled: %v", ti, err)
				}
				ri, err := pi.Parse(toks)
				if err != nil {
					t.Fatalf("input %d: interpreted: %v", ti, err)
				}
				got, want := core.RenderResult(rc, lastC(), true), core.RenderResult(ri, lastI(), true)
				if !strings.HasPrefix(got, "inst ") {
					t.Fatalf("input %d: the rendered alive set is empty; parity would compare only trees and stats\n%s", ti, got)
				}
				if got != want {
					t.Fatalf("input %d (%d tokens): compiled and interpreted results diverge\ncompiled:\n%s\ninterpreted:\n%s", ti, len(toks), got, want)
				}
			}
		})
	}
}
