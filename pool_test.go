package formext_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"formext"

	"formext/internal/dataset"
)

func TestPoolExtractMatchesDirect(t *testing.T) {
	pool, err := formext.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := formext.New()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.ExtractHTML(dataset.QamHTML)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.ExtractBytes(context.Background(), []byte(dataset.QamHTML))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Model.Conditions) != len(want.Model.Conditions) {
		t.Fatalf("pool %d conditions vs direct %d",
			len(got.Model.Conditions), len(want.Model.Conditions))
	}
	for i := range want.Model.Conditions {
		if got.Model.Conditions[i].Attribute != want.Model.Conditions[i].Attribute {
			t.Errorf("condition %d differs", i)
		}
	}
}

func TestPoolGetPutReuse(t *testing.T) {
	pool, err := formext.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if ex == nil {
		t.Fatal("nil extractor from Get")
	}
	// Pooled extractors share the parse-once default grammar.
	ex2, err := formext.New()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Grammar() != ex2.Grammar() {
		t.Error("pooled extractor does not share the default grammar")
	}
	pool.Put(ex)
	pool.Put(nil) // must be a no-op
}

func TestPoolRejectsInvalidOptions(t *testing.T) {
	if _, err := formext.NewPool(formext.Options{GrammarSource: "start Nope;"}); err == nil {
		t.Error("invalid grammar must fail NewPool")
	}
	if _, err := formext.NewPool(formext.Options{}, formext.Options{}); err == nil {
		t.Error("two Options values must fail NewPool")
	}
}

func TestPoolConcurrentExtract(t *testing.T) {
	// The serving pattern: many goroutines sharing one pool (and therefore
	// one grammar and one schedule). Run under -race by the tier-1 target.
	pool, err := formext.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := pool.ExtractBytes(context.Background(), []byte(dataset.QamHTML))
				if err != nil {
					errs <- err
					return
				}
				if len(res.Model.Conditions) == 0 {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSharedExtractorConcurrentUse(t *testing.T) {
	// The audited guarantee behind the pool: one Extractor, used from many
	// goroutines at once, is race-free because all per-parse state is
	// allocated per call.
	ex, err := formext.New()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ex.ExtractHTML(dataset.QaaHTML)
			if err != nil || len(res.Model.Conditions) == 0 {
				t.Errorf("concurrent extract: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestPooledResultsSurviveArenaRecycling: the front-end arenas recycle the
// render tree's blocks on every release, so nothing a Result keeps may
// reach them. The test records a fresh, non-pooled Extractor's extraction
// of 240 distinct crawl-shaped pages, then extracts the same pages one after
// another through one Pool, keeping every Result, so each later extraction
// reuses blocks an earlier one released. Every other page breaks its words
// across lines, so layout joins its text runs in the arena instead of
// slicing the source. Finally every kept Result's tokens and model must
// match the record. The records are taken as deep-copied text before the
// pooled pass because a later extraction of the same page rewrites the same
// bytes into a recycled block, which would mask a Result that aliases it.
func TestPooledResultsSurviveArenaRecycling(t *testing.T) {
	const pages = 240
	st := dataset.NewStream(dataset.Config{
		Seed: 5, Sources: math.MaxInt, Schemas: dataset.AllSchemas,
		MinConds: 2, MaxConds: 12, Hardness: 0.46,
	})
	seen := map[string]bool{}
	var srcs []string
	for len(srcs) < pages {
		src, _ := st.Next()
		if seen[src.HTML] {
			continue
		}
		seen[src.HTML] = true
		if len(srcs)%2 == 1 {
			src.HTML = strings.ReplaceAll(src.HTML, " ", "\n  ")
		}
		srcs = append(srcs, src.HTML)
	}
	// record renders the compared part of a Result as text that owns its
	// bytes: each token's Type, SVal, Pos, Name and Options, then the model
	// as JSON.
	record := func(res *formext.Result) string {
		var b strings.Builder
		for _, tk := range res.Tokens {
			fmt.Fprintf(&b, "%s %q %v %q %q\n", tk.Type, tk.SVal, tk.Pos, tk.Name, tk.Options)
		}
		m, err := json.Marshal(res.Model)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(m)
		return b.String()
	}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		ex, err := formext.New()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.ExtractHTML(src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = record(res)
	}
	pool, err := formext.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	kept := make([]*formext.Result, len(srcs))
	for i, src := range srcs {
		if kept[i], err = pool.ExtractBytes(ctx, []byte(src)); err != nil {
			t.Fatal(err)
		}
	}
	for i, res := range kept {
		if got := record(res); got != want[i] {
			t.Fatalf("page %d: kept Result differs from a fresh extraction:\n kept:\n%s\n fresh:\n%s", i, got, want[i])
		}
	}
}
