package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"time"

	"formext"
	"formext/internal/core"
	"formext/internal/dataset"
	"formext/internal/grammar"
	"formext/internal/htmlparse"
	"formext/internal/layout"
	"formext/internal/merger"
	"formext/internal/metrics"
	"formext/internal/model"
	"formext/internal/token"
)

// The crawl workload: distinct generated pages through ExtractStream with
// one worker per CPU and no cache, in a closed loop (the stream admits a
// page when a slot frees).
const (
	crawlHardness = 0.46 // the Basic dataset's hardness
	// crawlMaxInstances bounds each page's parse (Options.MaxInstances).
	// Unbounded, about one page in 3000 runs to the 400k default for 2-3 s,
	// and whether a run draws one decides its throughput; 50k is the largest
	// page a full parse reached in the probes that sized this workload.
	// Truncated pages are still extracted, degraded, and counted.
	crawlMaxInstances = 50_000
	crawlScored       = 2000 // leading pages of a pass scored for precision/recall
	crawlWarmPages    = 400  // pages each set-up runs through its stream
	// crawlTracedPages is the corpus the traced stream passes cycle, so
	// their runtime figures count the program's allocations, not page
	// generation's.
	crawlTracedPages = 4000
	// Span request IDs of the decomposition pass start here, above any
	// stream sequence number.
	decompReqBase = 1 << 40
)

func crawlOptions() formext.Options { return formext.Options{MaxInstances: crawlMaxInstances} }

// crawlScoredPages is how many leading pages a pass scores.
func crawlScoredPages(cfg config) int {
	if cfg.Smoke {
		return 100
	}
	return crawlScored
}

// crawlMaxConds is the longest schema's attribute list: crawl pages have 2
// up to that many conditions.
func crawlMaxConds() int {
	n := 0
	for _, s := range dataset.AllSchemas {
		n = max(n, len(s.Attrs))
	}
	return n
}

// pageGen draws pages lazily from the generator's stream, cycling through
// every schema at the Basic hardness and skipping byte-identical repeats.
// A crawl pass holds only the pages in flight, so its heap and peak RSS are
// the program's, not a resident corpus's, and they do not grow with the
// run's length.
type pageGen struct {
	s    *dataset.Stream
	seen map[uint64]bool
}

func newPageGen(seed int64, minConds, maxConds int) *pageGen {
	return &pageGen{
		s: dataset.NewStream(dataset.Config{
			Seed: seed, Sources: math.MaxInt, Schemas: dataset.AllSchemas,
			MinConds: minConds, MaxConds: maxConds, Hardness: crawlHardness,
		}),
		seen: map[uint64]bool{},
	}
}

// crawlGen is the crawl's page stream for a seed.
func crawlGen(seed int64) *pageGen { return newPageGen(seed, 2, crawlMaxConds()) }

// next returns the next page not drawn before.
func (g *pageGen) next() dataset.Source {
	for {
		src, _ := g.s.Next() // unbounded
		h := fnv.New64a()
		h.Write([]byte(src.HTML))
		if k := h.Sum64(); !g.seen[k] {
			g.seen[k] = true
			return src
		}
	}
}

// genPages renders the first n distinct pages of a page stream.
func genPages(seed int64, n, minConds, maxConds int) []dataset.Source {
	g := newPageGen(seed, minConds, maxConds)
	out := make([]dataset.Source, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// warmStream runs crawlWarmPages pages of their own (set-up k's) through
// a stream, so lazy start-up (the grammar compile, pooled arenas) is paid
// in set-up.
func warmStream(cfg config, k int) error {
	n := crawlWarmPages
	if cfg.Smoke {
		n = 32
	}
	gen := crawlGen(subSeed(cfg.Seed, k))
	in := make(chan formext.Page)
	out := formext.ExtractStream(context.Background(), in, formext.StreamOptions{
		Options: crawlOptions(), Workers: runtime.NumCPU(),
	})
	go func() {
		for i := 0; i < n; i++ {
			in <- formext.Page{HTML: gen.next().HTML}
		}
		close(in)
	}()
	var err error
	for pr := range out {
		if pr.Err != nil && err == nil {
			err = fmt.Errorf("warm-up page: %w", pr.Err)
		}
	}
	return err
}

// crawlSetup warms a stream setupReps times, each with other pages, and
// returns the median time: a heavy page among one set-up's pages does not
// decide the figure.
func crawlSetup(cfg config) (float64, error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // each set-up starts from the same clean heap
		t0 := time.Now()
		if err := warmStream(cfg, rep); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// settle drops set-up garbage before a measured phase.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// streamStats is one pass of pages through ExtractStream.
type streamStats struct {
	Pages, Failed int
	Truncated     int // truncated parses among the scored pages
	Elapsed       time.Duration
	Done          []time.Duration // delivery of each page, from the pass start
	Latencies     []float64       // ms, admission to delivery
	Waits         []float64       // ms, latency minus the page's own stage time
	PR            prScore
	Problems      []string
}

// Throughput is pages delivered per second over the whole pass.
func (s streamStats) Throughput() float64 { return ratio(float64(s.Pages), s.Elapsed.Seconds(), 0) }

// streamPass feeds page(0), page(1), ... into one ExtractStream until dur
// has passed and at least minPages were sent, and checks every result: a
// page error fails the page. The first `scored` pages are scored against
// the generator's truth. With rec set, every page gets a span from
// admission to delivery.
//
// MaxInFlight equals Workers: no admitted page waits behind another, so a
// page's latency is its own extraction plus the hand-offs, and the parse
// tail (not queueing behind it) shows in the p99. The latency is taken
// without one goroutine waiting on another: the producer stamps each page
// when it is ready to send, the consumer stamps each delivery, and after
// the pass admissions works out when each page was admitted.
func streamPass(page func(i int) dataset.Source, scored, minPages int, dur time.Duration, rec *recorder, gauge *formext.StreamGauge) streamStats {
	slots := runtime.NumCPU()
	in := make(chan formext.Page)
	out := formext.ExtractStream(context.Background(), in, formext.StreamOptions{
		Options: crawlOptions(), Workers: slots, MaxInFlight: slots, Gauge: gauge,
	})
	truth := make([][]model.Condition, scored) // written before each send
	var ready []time.Duration                  // read once in is closed
	start := time.Now()
	go func() {
		deadline := start.Add(dur)
		for i := 0; i < minPages || time.Now().Before(deadline); i++ {
			src := page(i)
			if i < scored {
				truth[i] = src.Truth
			}
			ready = append(ready, time.Since(start))
			in <- formext.Page{ID: src.ID, HTML: src.HTML}
		}
		close(in)
	}()
	var got []delivery
	st := streamStats{}
	for pr := range out {
		d := delivery{seq: pr.Seq, at: time.Since(start), own: -1}
		if pr.Err != nil {
			st.Failed++
			st.Problems = append(st.Problems, fmt.Sprintf("crawl page %s: %v", pr.ID, pr.Err))
		} else {
			d.own = pr.Result.Stats.Stages.Total()
			if pr.Seq < scored {
				m := metrics.Match(truth[pr.Seq], pr.Result.Model.Conditions, false)
				st.PR.add(m.TP, m.Extracted, m.Truth)
				if pr.Result.Stats.Truncated {
					st.Truncated++
				}
			}
		}
		got = append(got, d)
	}
	admitted := admissions(ready, got, slots)
	for k, d := range got {
		st.Pages++
		st.Done = append(st.Done, d.at)
		st.Elapsed = max(st.Elapsed, d.at)
		if d.own < 0 {
			st.Latencies = append(st.Latencies, ms(failLatency))
			continue
		}
		st.Latencies = append(st.Latencies, ms(d.at-admitted[k]))
		st.Waits = append(st.Waits, ms(d.at-admitted[k]-d.own))
		if rec != nil {
			rec.add(0, 0, int64(d.seq), "formext.ExtractStream", start.Add(admitted[k]), start.Add(d.at))
		}
	}
	return st
}

// delivery is one page a stream delivered.
type delivery struct {
	seq int
	at  time.Duration // from the pass start
	own time.Duration // the page's own stage time; -1 for a failed page
}

// admissions returns each delivered page's admission time, in delivery
// order: the later of the time the producer had the page ready and the
// delivery that freed its slot. A stream with `slots` slots admits pages
// in order and frees one slot per delivery, so page i >= slots is
// admitted no earlier than the (i-slots)-th delivery.
func admissions(ready []time.Duration, got []delivery, slots int) []time.Duration {
	out := make([]time.Duration, len(got))
	for k, d := range got {
		out[k] = ready[d.seq]
		if d.seq >= slots {
			out[k] = max(out[k], got[d.seq-slots].at)
		}
	}
	return out
}

// crawlSession runs the crawl workload, traced when rec is set.
func crawlSession(cfg config, rec *recorder) (report, error) {
	if rec != nil {
		return traceCrawl(cfg, rec)
	}
	return runCrawl(cfg)
}

// runCrawl is the untraced crawl workload. Its pages are generated as the
// stream takes them, at about 36 µs a page on the producer goroutine.
func runCrawl(cfg config) (report, error) {
	var rep report
	setupS, err := crawlSetup(cfg)
	if err != nil {
		return rep, err
	}
	scored := crawlScoredPages(cfg)
	settle()
	fmt.Fprintf(os.Stderr, "benchmark: crawl for %v\n", cfg.Seconds)
	sampler, err := sampleRSS(0, window)
	if err != nil {
		return rep, err
	}
	gen := crawlGen(cfg.Seed)
	st := streamPass(func(int) dataset.Source { return gen.next() }, scored, scored, cfg.Seconds, nil, nil)
	rss, err := sampler.median()
	if err != nil {
		return rep, err
	}
	rep.Attempted = st.Pages
	rep.Failed = st.Failed
	rep.Problems = st.Problems
	rep.set("setup_s", "s", setupS)
	lat := windows(st.Done, st.Latencies, window)
	rep.set("throughput_ops_s", "1/s", windowRate(st.Done, window))
	rep.set("latency_p50_ms", "ms", windowMedian(lat, p50))
	rep.set("latency_p99_ms", "ms", p99(st.Latencies))
	rep.set("success_rate", "ratio", 1-ratio(float64(rep.Failed), float64(rep.Attempted), 0))
	rep.set("peak_rss_mb", "MB", rss)
	rep.set("precision", "ratio", st.PR.Precision())
	rep.set("recall", "ratio", st.PR.Recall())
	return rep, nil
}

// runtimeSample reads the runtime counters the traced crawl reports.
type runtimeSample struct{ gcCPU, usedCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	runtime.GC() // the CPU-class counters advance at GC boundaries
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: f(0), usedCPU: f(1) - f(2), allocBytes: f(3)}
}

// decompStats accumulates the stage-by-stage pass.
type decompStats struct {
	Pages                                     int
	Elements, Boxes, Tokens                   int
	Created, Alive, Pruned, RolledBack, Evals int
	Fixpoint, Conflicts, Missing              int
	Allocs, Bytes                             uint64
	FacadeSelf                                []float64 // ms: ExtractBytes time minus its own stage sum
	ParityFailures                            []string
}

// decompose extracts pages one at a time twice: once by calling each
// pipeline stage's public function directly, with the arguments and
// arenas the facade passes, each call wrapped in a span; and once through
// Pool.ExtractBytes. The two models must be identical on every page, or
// the per-stage figures would describe a different pipeline.
func decompose(corpus []dataset.Source, minPages int, dur time.Duration, rec *recorder) (decompStats, error) {
	var d decompStats
	g := grammar.Default()
	parser, err := core.NewParser(g, core.Options{MaxInstances: crawlMaxInstances})
	if err != nil {
		return d, err
	}
	mg := merger.New(g)
	eng := layout.New()
	tk := token.NewTokenizer()
	pool, err := formext.NewPool(crawlOptions())
	if err != nil {
		return d, err
	}
	var domA htmlparse.Arena
	var layA layout.Arena
	var tokA token.Arena
	ctx := context.Background()
	deadline := time.Now().Add(dur)
	var m0, m1 runtime.MemStats
	for i := 0; i < len(corpus) && (i < minPages || time.Now().Before(deadline)); i++ {
		src := []byte(corpus[i].HTML)
		req := int64(decompReqBase + i)
		root := rec.id()
		var t [8]time.Time // stage boundaries of the direct path
		var direct []byte
		viaStages := func() error {
			t[0] = time.Now()
			doc, _ := htmlparse.ParseBytes(ctx, src, htmlparse.Limits{}, &domA)
			t[1] = time.Now()
			boxes, lerr := eng.LayoutArena(ctx, doc, &layA)
			t[2] = time.Now()
			if lerr != nil {
				return fmt.Errorf("page %s: layout: %w", corpus[i].ID, lerr)
			}
			toks := tk.TokenizeArena(boxes, &tokA)
			t[3] = time.Now()
			if len(toks) > formext.DefaultMaxTokens {
				toks = toks[:formext.DefaultMaxTokens]
			}
			runtime.ReadMemStats(&m0)
			t[4] = time.Now()
			pres, perr := parser.Parse(toks)
			t[5] = time.Now()
			runtime.ReadMemStats(&m1)
			if perr != nil {
				return fmt.Errorf("page %s: parse: %w", corpus[i].ID, perr)
			}
			t[6] = time.Now()
			mdl := mg.Merge(pres)
			t[7] = time.Now()
			direct, _ = json.Marshal(mdl) // plain data: cannot fail

			d.Elements += htmlparse.StatsOf(doc).Elements
			bs := layout.StatsOf(boxes)
			d.Boxes += bs.Blocks + bs.Texts + bs.Widgets + bs.Rules
			d.Tokens += len(toks)
			ps := pres.Stats
			d.Created += ps.TotalCreated
			d.Alive += ps.Alive
			d.Pruned += ps.Pruned
			d.RolledBack += ps.RolledBack
			d.Evals += ps.ConstraintEvals
			d.Fixpoint += ps.FixpointIters
			d.Conflicts += len(mdl.Conflicts)
			d.Missing += len(mdl.Missing)
			d.Allocs += m1.Mallocs - m0.Mallocs
			d.Bytes += m1.TotalAlloc - m0.TotalAlloc
			// As the facade does: the result keeps the blocks, the arenas
			// start the next page empty.
			domA.Release()
			layA.Release()
			tokA.Release()
			return nil
		}
		var p0, p1 time.Time
		var viaPool []byte
		facade := func() error {
			p0 = time.Now()
			res, err := pool.ExtractBytes(ctx, src)
			p1 = time.Now()
			if err != nil {
				return fmt.Errorf("page %s: ExtractBytes: %w", corpus[i].ID, err)
			}
			viaPool, _ = json.Marshal(res.Model)
			d.FacadeSelf = append(d.FacadeSelf, ms(p1.Sub(p0)-res.Stats.Stages.Total()))
			return nil
		}
		// Alternate which path runs first, so the second run's warm caches
		// favour neither path's stage times.
		first, second := viaStages, facade
		if i%2 == 1 {
			first, second = facade, viaStages
		}
		if err := first(); err != nil {
			return d, err
		}
		if err := second(); err != nil {
			return d, err
		}
		d.Pages++
		if !bytes.Equal(direct, viaPool) {
			d.ParityFailures = append(d.ParityFailures, corpus[i].ID)
		}

		rec.add(0, root, req, "htmlparse.ParseBytes", t[0], t[1])
		rec.add(0, root, req, "layout.Engine.LayoutArena", t[1], t[2])
		rec.add(0, root, req, "token.Tokenizer.TokenizeArena", t[2], t[3])
		rec.add(0, root, req, "core.Parser.Parse", t[4], t[5])
		rec.add(0, root, req, "merger.Merger.Merge", t[6], t[7])
		rec.add(0, root, req, "formext.Pool.ExtractBytes", p0, p1)
		start, end := t[0], p1
		if i%2 == 1 {
			start, end = p0, t[7]
		}
		rec.add(root, 0, req, "page", start, end)
	}
	return d, nil
}

// traceCrawl is the traced crawl: an untraced stream pass (the baseline
// for the tracing overhead and the runtime counters), a traced stream
// pass, and the stage-by-stage decomposition with its parity check. All
// three draw from one pre-generated corpus, cycled.
func traceCrawl(cfg config, rec *recorder) (report, error) {
	var rep report
	n, scored := crawlTracedPages, crawlScoredPages(cfg)
	if cfg.Smoke {
		n, scored = 200, 50
	}
	corpus := genPages(cfg.Seed, n, 2, crawlMaxConds())
	if err := warmStream(cfg, 0); err != nil {
		return rep, err
	}
	budget := cfg.Seconds / 3
	page := func(i int) dataset.Source { return corpus[i%len(corpus)] }

	r0 := readRuntime()
	u := streamPass(page, scored, scored, budget*3/10, nil, nil)
	r1 := readRuntime()
	gauge := &formext.StreamGauge{}
	s := streamPass(page, scored, 0, budget*3/10, rec, gauge)
	minDecomp := 100
	if cfg.Smoke {
		minDecomp = 20
	}
	d, err := decompose(corpus, minDecomp, budget*4/10, rec)
	if err != nil {
		return rep, err
	}

	rep.Attempted = u.Pages + s.Pages + d.Pages
	rep.Failed = u.Failed + s.Failed + len(d.ParityFailures)
	rep.Problems = append(append(rep.Problems, u.Problems...), s.Problems...)
	for _, id := range d.ParityFailures {
		rep.problem("stage-decomposition parity: page %s: direct stage calls and Pool.ExtractBytes built different models", id)
	}

	spans := rec.snapshot()
	pages := float64(d.Pages)
	perPage := func(x int) float64 { return float64(x) / pages }
	coreMs := durations(spans, "core.Parser.Parse")
	rep.set("htmlparse.ms_per_page", "ms", mean(durations(spans, "htmlparse.ParseBytes")))
	rep.set("htmlparse.elements_per_page", "count", perPage(d.Elements))
	rep.set("layout.ms_per_page", "ms", mean(durations(spans, "layout.Engine.LayoutArena")))
	rep.set("layout.boxes_per_page", "count", perPage(d.Boxes))
	rep.set("token.ms_per_page", "ms", mean(durations(spans, "token.Tokenizer.TokenizeArena")))
	rep.set("token.tokens_per_page", "count", perPage(d.Tokens))
	rep.set("core.ms_per_page", "ms", mean(coreMs))
	rep.set("core.ms_p99", "ms", percentile(coreMs, 99))
	rep.set("core.instances_per_page", "count", perPage(d.Created))
	rep.set("core.alive_ratio", "ratio", ratio(float64(d.Alive), float64(d.Created), 0))
	rep.set("core.pruned_per_page", "count", perPage(d.Pruned))
	rep.set("core.rolled_back_per_page", "count", perPage(d.RolledBack))
	rep.set("core.constraint_evals_per_page", "count", perPage(d.Evals))
	rep.set("core.fixpoint_iters_per_page", "count", perPage(d.Fixpoint))
	rep.set("core.truncated_pages", "count", float64(u.Truncated))
	rep.set("core.allocs_per_page", "count", float64(d.Allocs)/pages)
	rep.set("core.bytes_per_page", "bytes", float64(d.Bytes)/pages)
	rep.set("merger.ms_per_page", "ms", mean(durations(spans, "merger.Merger.Merge")))
	rep.set("merger.conflicts_per_page", "count", perPage(d.Conflicts))
	rep.set("merger.missing_per_page", "count", perPage(d.Missing))
	rep.set("formext.self_ms_per_page", "ms", median(d.FacadeSelf))
	rep.set("stream.wait_ms_p50", "ms", median(s.Waits))
	rep.set("stream.peak_inflight", "count", float64(gauge.Peak()))
	rep.set("runtime.gc_cpu_fraction", "ratio", ratio(r1.gcCPU-r0.gcCPU, r1.usedCPU-r0.usedCPU, 0))
	rep.set("runtime.alloc_bytes_per_page", "bytes", ratio(r1.allocBytes-r0.allocBytes, float64(u.Pages), 0))
	rep.set("trace.overhead_ratio", "ratio", ratio(s.Throughput(), u.Throughput(), 0))
	return rep, nil
}
