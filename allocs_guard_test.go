//go:build !race

// Allocation-budget guards for the serving path. Excluded under the race
// detector: race builds deliberately degrade sync.Pool (random Put drops),
// so the pooled front-end arenas re-allocate their slabs and the counts
// stop measuring the code. `make check` runs these through the dedicated
// guards target, without -race.
package formext_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"formext"
	"formext/internal/dataset"
)

// TestColdExtractAllocationBudget guards the end-to-end cold-extraction
// allocation budget on the Qam fixture: with the arena front end (slab DOM,
// pooled layout, arena tokens) plus the slab parser, one uncached request
// must stay under 100 heap allocations (the seed paid ~717). The bound has
// headroom over the measured count (logged) so unrelated small changes
// don't flake it;
// a regression past it means some per-node or per-token allocation crept
// back into the hot path.
func TestColdExtractAllocationBudget(t *testing.T) {
	pool, err := formext.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	src := []byte(dataset.QamHTML)
	if _, err := pool.ExtractBytes(context.Background(), src); err != nil { // warm pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := pool.ExtractBytes(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold Qam extraction: %.0f allocations per op", allocs)
	if allocs >= 100 {
		t.Errorf("cold Qam extraction allocates %.0f objects per op, want < 100", allocs)
	}
}

// TestFreezeCostCoversRetainedHeap keeps the cache's byte accounting
// honest: the footprint Freeze records is what the cache charges an entry
// against its budget. If it falls short of what a frozen Result really
// retains, a cache sized in bytes holds more than its budget; if it
// overshoots, the cache silently holds less. For each page shape — serve
// (2 to 5 conditions) and crawl (2 to 12), both at the Basic dataset's
// hardness — the test extracts and freezes 400 distinct pages, keeps every
// Result, and asserts that their summed cost is within [0.9, 1.25] of the
// heap they retain after GC.
func TestFreezeCostCoversRetainedHeap(t *testing.T) {
	for _, shape := range []struct {
		name     string
		maxConds int
	}{{"serve", 5}, {"crawl", 12}} {
		ratio := freezeCostRatio(t, shape.maxConds)
		t.Logf("%s-shaped pages: Freeze cost / retained heap = %.2f", shape.name, ratio)
		if ratio < 0.9 || ratio > 1.25 {
			t.Errorf("%s-shaped pages: Freeze cost is %.2f of the retained heap, want within [0.90, 1.25]", shape.name, ratio)
		}
	}
}

// freezeCostRatio extracts 400 distinct pages of 2 to maxConds conditions
// through one Pool, freezes and keeps every Result, and returns their
// summed Freeze cost over the heap they retain after GC. The request
// bodies are copied inside the measured window because Results alias
// them, as cached serving Results do.
func freezeCostRatio(t *testing.T, maxConds int) float64 {
	t.Helper()
	const pages = 400
	st := dataset.NewStream(dataset.Config{
		Seed: 1, Sources: math.MaxInt, Schemas: dataset.AllSchemas,
		MinConds: 2, MaxConds: maxConds, Hardness: 0.46,
	})
	seen := map[string]bool{}
	var srcs []string
	for len(srcs) < pages+8 {
		src, _ := st.Next()
		if !seen[src.HTML] {
			seen[src.HTML] = true
			srcs = append(srcs, src.HTML)
		}
	}
	pool, err := formext.NewPool()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm the pooled engines, arenas and per-grammar plans on pages
	// outside the measured set, so their one-time state is in the baseline.
	for _, src := range srcs[pages:] {
		if _, err := pool.ExtractBytes(ctx, []byte(src)); err != nil {
			t.Fatal(err)
		}
	}
	srcs = srcs[:pages]
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	results := make([]*formext.Result, 0, pages)
	before := heap()
	var cost int64
	for _, src := range srcs {
		res, err := pool.ExtractBytes(ctx, []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		cost += formext.FreezeCost(res)
		results = append(results, res)
	}
	after := heap()
	runtime.KeepAlive(results)
	retained := int64(after) - int64(before)
	if retained <= 0 {
		t.Fatalf("retained heap %d bytes after %d extractions; the measurement is broken", retained, pages)
	}
	t.Logf("%d results of 2-%d conditions: Freeze cost %d bytes, retained heap %d bytes", pages, maxConds, cost, retained)
	return float64(cost) / float64(retained)
}
