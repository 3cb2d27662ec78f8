package formext

// Fault-injection tests for the stream's per-page failure paths, written
// against the package internals so they can inject failures the total
// pipeline never produces on its own: extractor construction that fails
// transiently or always, pages that fail or panic, and cancellation fired
// from inside the pipeline. The contract under test is the stream's
// accounting: without cancellation every page is reported exactly once, as
// a result or an error, and one page's failure never costs its neighbours
// their results.
//
// The TestExtractAll* names predate the removal of the fixed-slice batch
// wrapper; each now pins the same behaviour on a batch collected from
// ExtractStream by Seq (extractAll in stream_test.go).

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// failConstruction makes every pool-miss extractor construction fail for
// the rest of the test.
func failConstruction(t *testing.T) {
	t.Helper()
	orig := newPooledExtractor
	var calls atomic.Int64
	newPooledExtractor = func(g *Grammar, o Options) (*Extractor, error) {
		return nil, fmt.Errorf("injected: construction failure %d", calls.Add(1))
	}
	t.Cleanup(func() { newPooledExtractor = orig })
}

// injectPages replaces the per-page extraction for the rest of the test.
func injectPages(t *testing.T, f func(ctx context.Context, ex *Extractor, src string) (*Result, error)) {
	t.Helper()
	orig := extractPage
	extractPage = f
	t.Cleanup(func() { extractPage = orig })
}

// TestExtractAllWorkerFactoryFailureDoesNotDeadlock: when no worker can
// construct an extractor, the stream must still terminate and fail every
// page. (The seed batch code deadlocked here: a worker whose construction
// failed exited without draining the jobs channel.)
func TestExtractAllWorkerFactoryFailureDoesNotDeadlock(t *testing.T) {
	failConstruction(t)
	// NewPool's validation extractor is the only one that can exist, and
	// only if the pool kept it; whichever worker draws it panics on its
	// first page and abandons it, so every page fails.
	injectPages(t, func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		panic("injected: the validation extractor fails too")
	})
	pages := []string{
		"<form>A <input type=text name=a></form>",
		"<form>B <input type=text name=b></form>",
		"<form>C <input type=text name=c></form>",
		"<form>D <input type=text name=d></form>",
	}
	in := make(chan Page, len(pages))
	for _, p := range pages {
		in <- Page{HTML: p}
	}
	close(in)
	out := ExtractStream(context.Background(), in, StreamOptions{Workers: 4})
	reported := make(map[int]bool)
	panics := 0
	deadline := time.After(30 * time.Second)
	for len(reported) < len(pages) {
		var pr PageResult
		select {
		case pr = <-out:
		case <-deadline:
			t.Fatal("stream deadlocked with failing worker factories")
		}
		if reported[pr.Seq] {
			t.Fatalf("seq %d reported twice", pr.Seq)
		}
		reported[pr.Seq] = true
		if pr.Err == nil || pr.Result != nil {
			t.Errorf("seq %d: want an error and no result, got %v / %v", pr.Seq, pr.Err, pr.Result)
		}
		var pe *PanicError
		if errors.As(pr.Err, &pe) {
			panics++
		} else if !strings.Contains(fmt.Sprint(pr.Err), "injected: construction failure") {
			t.Errorf("seq %d error = %v, want the construction failure", pr.Seq, pr.Err)
		}
	}
	if _, open := <-out; open {
		t.Fatal("stream did not close after the last page")
	}
	if panics > 1 {
		t.Errorf("%d pages reached an extractor; only the validation extractor exists", panics)
	}
}

// TestExtractAllReturnsPartialResultsOnPageError: failing pages are
// reported with their error at their own Seq, and every other page keeps
// its result.
func TestExtractAllReturnsPartialResultsOnPageError(t *testing.T) {
	boom := errors.New("injected page failure")
	injectPages(t, func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		if src == "FAIL" {
			return nil, boom
		}
		return ex.ExtractBytes(ctx, []byte(src))
	})
	pages := []string{
		"<form>A <input type=text name=a></form>",
		"FAIL",
		"<form>C <input type=text name=c></form>",
		"FAIL",
		"<form>E <input type=text name=e></form>",
	}
	got := extractAll(t, context.Background(), pages, StreamOptions{Workers: 3})
	for i, pr := range got {
		if pr == nil {
			t.Fatalf("page %d never reported", i)
		}
		if pages[i] == "FAIL" {
			if !errors.Is(pr.Err, boom) {
				t.Errorf("page %d error = %v, want the injected failure", i, pr.Err)
			}
			continue
		}
		if pr.Err != nil || pr.Result == nil {
			t.Errorf("page %d lost to a neighbour's failure: %v", i, pr.Err)
		}
	}
}

// TestExtractAllRetriesTransientConstructionFailure is the regression test
// for worker stranding: historically a worker whose pool.Get failed exited
// permanently, charging every page it had yet to draw a construction error
// a retry could have avoided — with one worker that stranded the whole
// rest of the batch. Here the single worker loses its extractor to a
// panicking page, the replacement construction fails transiently, and
// every healthy page must still succeed via the retry-with-backoff path.
func TestExtractAllRetriesTransientConstructionFailure(t *testing.T) {
	origPooled := newPooledExtractor
	var pooledCalls atomic.Int64
	newPooledExtractor = func(g *Grammar, o Options) (*Extractor, error) {
		if n := pooledCalls.Add(1); n <= 2 {
			return nil, fmt.Errorf("injected: transient construction failure %d", n)
		}
		return origPooled(g, o)
	}
	t.Cleanup(func() { newPooledExtractor = origPooled })
	injectPages(t, func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		if strings.Contains(src, "PANIC") {
			panic("injected page panic")
		}
		return ex.ExtractBytes(ctx, []byte(src))
	})

	// Page 0 panics, abandoning the worker's extractor; pages 1..3 force the
	// worker through the transiently-failing replacement construction.
	pages := []string{
		"<form>PANIC <input type=text name=p></form>",
		"<form>B <input type=text name=b></form>",
		"<form>C <input type=text name=c></form>",
		"<form>D <input type=text name=d></form>",
	}
	got := extractAll(t, context.Background(), pages, StreamOptions{Workers: 1})
	var pe *PanicError
	if got[0] == nil || !errors.As(got[0].Err, &pe) {
		t.Fatalf("page 0 = %+v, want a *PanicError", got[0])
	}
	for i := 1; i < len(pages); i++ {
		if got[i] == nil || got[i].Err != nil {
			t.Errorf("page %d lost to a transient construction failure: %+v", i, got[i])
		}
	}
	if pooledCalls.Load() < 3 {
		t.Fatalf("pooled factory called %d times; the transient-failure path never ran", pooledCalls.Load())
	}
}

// TestExtractStreamMixedHealthyAndFailingWorkers covers the concurrent
// shape of the same bug: several workers racing a factory that fails
// intermittently. Every worker must keep draining (retrying construction
// per page rather than exiting), so all pages complete.
func TestExtractStreamMixedHealthyAndFailingWorkers(t *testing.T) {
	// The first three constructions fail, landing on whichever workers race
	// there first; later constructions succeed. Three failures fit every
	// worker's retry budget (getExtractorAttempts = 4), so no page may be
	// lost no matter how the failures distribute.
	origPooled := newPooledExtractor
	var calls atomic.Int64
	newPooledExtractor = func(g *Grammar, o Options) (*Extractor, error) {
		if n := calls.Add(1); n <= 3 {
			return nil, fmt.Errorf("injected: intermittent construction failure %d", n)
		}
		return origPooled(g, o)
	}
	t.Cleanup(func() { newPooledExtractor = origPooled })

	const n = 16
	in := make(chan Page)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			in <- Page{HTML: fmt.Sprintf("<form>F%02d <input type=text name=f%d></form>", i, i)}
		}
	}()
	out := ExtractStream(context.Background(), in, StreamOptions{Workers: 4, MaxInFlight: 8})
	delivered := 0
	for pr := range out {
		if pr.Err != nil {
			t.Errorf("seq %d failed despite retry: %v", pr.Seq, pr.Err)
		}
		delivered++
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d pages", delivered, n)
	}
}

// TestExtractAllPageErrorCarriesStageTimings: a failed page's PageResult
// must carry the partial Result accumulated before the failure — its stage
// timings and parser counters — so a crawl can report where a bad page
// spent its time without re-extracting it.
func TestExtractAllPageErrorCarriesStageTimings(t *testing.T) {
	injectPages(t, func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		res, err := ex.ExtractBytes(ctx, []byte(src))
		if err == nil && strings.Contains(src, "doomed") {
			err = errors.New("injected post-pipeline failure")
		}
		return res, err
	})
	pages := []string{
		"<form>A <input type=text name=a></form>",
		"<form>doomed <input type=text name=b></form>",
	}
	got := extractAll(t, context.Background(), pages, StreamOptions{Workers: 2})
	if got[0] == nil || got[0].Err != nil || got[0].Result == nil {
		t.Fatalf("healthy page: %+v", got[0])
	}
	bad := got[1]
	if bad == nil || bad.Err == nil || bad.Result == nil {
		t.Fatalf("failed page = %+v, want an error with the partial result", bad)
	}
	st := bad.Result.Stats
	if s := st.Stages; s.HTMLParse == 0 || s.Layout == 0 || s.Tokenize == 0 || s.Parse == 0 {
		t.Errorf("failed page's stage timings missing: %s", s)
	}
	if st.TotalCreated == 0 || st.FixpointIters == 0 {
		t.Errorf("failed page's parser counters empty: created=%d iters=%d",
			st.TotalCreated, st.FixpointIters)
	}
}

// TestExtractAllBatchErrorInvariant enumerates the accounting invariant —
// every page reported at most once, as a result or an error and never
// both; every page reported when nothing is cancelled; every injected
// failure reported as one — across every failure mode the stream has:
// page errors, page panics, total construction failure, pre-stream and
// mid-stream cancellation, each crossed with duplicate pages (including
// duplicates of the failing pages, which either wait on the failed flight
// or re-extract and fail again).
func TestExtractAllBatchErrorInvariant(t *testing.T) {
	type scenario struct {
		name     string
		cancel   string // "", "pre", "mid"
		panics   bool   // corpus includes panicking pages (and a duplicate)
		consFail bool   // every pool-miss construction fails
	}
	var scenarios []scenario
	for _, cancel := range []string{"", "pre", "mid"} {
		for _, panics := range []bool{false, true} {
			for _, consFail := range []bool{false, true} {
				name := fmt.Sprintf("cancel=%s panics=%v consfail=%v", cancel, panics, consFail)
				scenarios = append(scenarios, scenario{name, cancel, panics, consFail})
			}
		}
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if sc.cancel == "pre" {
				cancel()
			}
			injectPages(t, func(c context.Context, ex *Extractor, src string) (*Result, error) {
				switch {
				case strings.Contains(src, "PANICPAGE"):
					panic("injected page panic")
				case strings.Contains(src, "FAILPAGE"):
					return nil, errors.New("injected page failure")
				case strings.Contains(src, "CANCELPAGE"):
					cancel() // mid-stream cancellation fires from inside the pipeline
					return nil, c.Err()
				}
				return ex.ExtractBytes(c, []byte(src))
			})
			if sc.consFail {
				failConstruction(t)
			}

			// Healthy pages, a failing page, duplicates of both kinds, and an
			// empty page; panic and cancel trigger pages join per scenario.
			pages := []string{
				"<form>A <input type=text name=a></form>",
				"<form>FAILPAGE</form>",
				"<form>B <input type=text name=b></form>",
				"<form>A <input type=text name=a></form>", // dup of healthy
				"<form>FAILPAGE</form>",                   // dup of failing
				"",
				"<form>C <input type=text name=c></form>",
			}
			if sc.panics {
				pages = append(pages,
					"<form>PANICPAGE</form>",
					"<form>PANICPAGE</form>", // dup of panicking
				)
			}
			if sc.cancel == "mid" {
				pages = append(pages, "<form>CANCELPAGE</form>")
				// Pages queued behind the trigger, racing the cancellation.
				for i := 0; i < 6; i++ {
					pages = append(pages, fmt.Sprintf("<form>T%d <input type=text name=t%d></form>", i, i))
				}
			}

			got := extractAll(t, ctx, pages, StreamOptions{Workers: 3})
			for i, pr := range got {
				if pr == nil {
					// Only a cancelled stream may shed a page; its caller
					// charges the page to the cancellation.
					if sc.cancel == "" {
						t.Errorf("page %d (%q) never reported without cancellation", i, pages[i])
					}
					continue
				}
				if pr.Err == nil && (pr.Result == nil || pr.Result.Model == nil) {
					t.Errorf("page %d reported success without a model", i)
				}
				p := pages[i]
				mustFail := sc.cancel == "pre" || strings.Contains(p, "FAILPAGE") ||
					strings.Contains(p, "PANICPAGE") || strings.Contains(p, "CANCELPAGE")
				if mustFail && pr.Err == nil {
					t.Errorf("page %d (%q) must fail in scenario %q but succeeded", i, p, sc.name)
				}
			}
		})
	}
}
