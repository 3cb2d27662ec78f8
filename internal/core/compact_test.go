package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"formext/internal/dataset"
	"formext/internal/grammar"
)

// renderReach renders the instances reachable from roots — every node of
// every tree, shared nodes once — sorted by ID, one line per node with its
// symbol, production, Dead flag, cover, position and child IDs.
func renderReach(roots []*grammar.Instance) string {
	seen := map[int]*grammar.Instance{}
	var walk func(in *grammar.Instance)
	walk = func(in *grammar.Instance) {
		if seen[in.ID] != nil {
			return
		}
		seen[in.ID] = in
		for _, c := range in.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var sb strings.Builder
	for _, id := range ids {
		in := seen[id]
		prod := ""
		if in.Prod != nil {
			prod = in.Prod.Name
		}
		fmt.Fprintf(&sb, "%d %s prod=%q dead=%v cover=%v pos=%v kids=[", in.ID, in.Sym, prod, in.Dead, in.Cover.Members(), in.Pos)
		for i, c := range in.Children {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", c.ID)
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

// TestCompactKeepsMaximalReach checks what compaction hands the Result:
// walking it from Maximal must visit exactly the naive reach of the
// engine's maximal roots (the trees plus every node under them, dead
// losers spared inside a winner included, Dead flags as the engine left
// them), node for node in ID order. Stats.Alive and Stats.CompleteParses,
// counted before compaction, must match counts over the full alive set the
// observe seam reports. Every Result's covers must own their words: once
// every page is parsed (so the engine's arena has recycled its slabs many
// times), each Result still renders as it did when it was returned, and
// complementing every cover of every Result in turn must flip each exactly
// once — a word shared by two covers would flip twice.
func TestCompactKeepsMaximalReach(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	corpus := tokenizePages(dataset.QamHTML, dataset.QaaHTML,
		dataset.Basic()[0].HTML, dataset.Basic()[5].HTML)
	for i := 0; i < 12; i++ {
		corpus = append(corpus, fuzzTokens(rng, 6+rng.Intn(19)))
	}
	corpus = append(corpus, tokenizePages(crawlPages(240)...)...)

	configs := []struct {
		name string
		opt  Options
	}{
		{"scheduled", Options{}},
		// Late pruning's single global fix point builds tens of thousands
		// of instances on a crawl page; the cap bounds the mode's cost and
		// makes most of its parses exercise compaction of a truncated parse.
		{"latePruning", Options{DisableScheduling: true, MaxInstances: 10_000}},
		{"interpreted", Options{Interpreted: true}},
	}
	g := grammar.Default()
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			p, err := NewParser(g, cfg.opt)
			if err != nil {
				t.Fatal(err)
			}
			last := watchParses(p)
			results := make([]*Result, len(corpus))
			renders := make([]string, len(corpus))
			deadKept := 0
			for i, toks := range corpus {
				res, err := p.Parse(toks)
				if err != nil {
					t.Fatalf("page %d: %v", i, err)
				}
				all := last()
				roots := make([]*grammar.Instance, len(res.Maximal))
				for j, m := range res.Maximal {
					roots[j] = all[m.ID]
				}
				want := renderReach(roots)
				if got := renderReach(res.Maximal); got != want {
					t.Fatalf("page %d: the Result's reach differs from the naive reach\nResult:\n%s\nnaive:\n%s", i, got, want)
				}
				deadKept += strings.Count(want, " dead=true ")
				nAlive, nComplete := 0, 0
				for _, in := range alive(all) {
					nAlive++
					if in.Sym == g.Start && in.Cover.Count() == len(toks) {
						nComplete++
					}
				}
				if res.Stats.Alive != nAlive || res.Stats.CompleteParses != nComplete {
					t.Fatalf("page %d: Stats Alive=%d CompleteParses=%d, the alive set has %d and %d",
						i, res.Stats.Alive, res.Stats.CompleteParses, nAlive, nComplete)
				}
				results[i], renders[i] = res, want
			}
			if deadKept == 0 {
				t.Error("no maximal tree kept a spared dead loser; the Dead-flag path went unchecked")
			}
			for i, res := range results {
				if got := renderReach(res.Maximal); got != renders[i] {
					t.Fatalf("page %d: the Result changed after later parses\nnow:\n%s\nwhen returned:\n%s", i, got, renders[i])
				}
			}
			checkCoversOwnWords(t, results)
		})
	}
}

// checkCoversOwnWords complements every cover reachable from the results,
// each instance once, then checks each cover holds exactly the complement
// of its members before: covers that share a word would each have flipped
// it, undoing the other's flip.
func checkCoversOwnWords(t *testing.T, results []*Result) {
	t.Helper()
	type snap struct {
		in      *grammar.Instance
		members []int
	}
	var snaps []snap
	seen := map[*grammar.Instance]bool{}
	var walk func(in *grammar.Instance)
	walk = func(in *grammar.Instance) {
		if seen[in] {
			return
		}
		seen[in] = true
		snaps = append(snaps, snap{in, in.Cover.Members()})
		for _, c := range in.Children {
			walk(c)
		}
	}
	for _, res := range results {
		for _, m := range res.Maximal {
			walk(m)
		}
	}
	for _, s := range snaps {
		c := s.in.Cover
		for i := 0; i < c.Len(); i++ {
			if c.Has(i) {
				c.Remove(i)
			} else {
				c.Add(i)
			}
		}
	}
	for _, s := range snaps {
		c := s.in.Cover
		want := c.Len() - len(s.members)
		for _, m := range s.members {
			if c.Has(m) {
				want = -1
			}
		}
		if c.Count() != want {
			t.Fatalf("instance %d (%s): cover did not flip cleanly; it shares words with another cover", s.in.ID, s.in.Sym)
		}
	}
	if len(snaps) == 0 {
		t.Fatal("no covers checked")
	}
}
