package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"formext"
	"formext/internal/metrics"
	"formext/internal/model"
)

// The serve-inproc workload replays serve's traffic in process: the call
// formserve's /extract handler makes, Pool.ExtractBytes over a pool with
// an extraction cache, without HTTP, the cluster layer or a second
// process. Every parameter is serve's: the hot corpus (serveHotPages pages
// of 2 to 5 conditions), the schedule (Zipf s = 1 over the corpus,
// serveFreshShare of requests a never-seen variant of a hot page) and a
// cache the size of the two peers' caches together, below the hot
// corpus's result footprint, so revisits of colder pages miss as well.
// runtime.NumCPU() goroutines call ExtractBytes in a closed loop, and each
// call is timed on the goroutine that makes it.
//
// A run replays the mix on serveInprocCorpora corpora in turn, each for an
// equal share of the run, and reports the median over them. About one
// corpus in seven holds a far-tail page (about 60k instances, close to a
// second per parse) whose result is larger than a cache shard: the cache
// never keeps it, every revisit parses it again, and that corpus's
// throughput is several times lower. With one corpus per run, whether a
// seed drew such a corpus decided the run; the median over five keeps the
// figure steady while every corpus is still run and checked.
const (
	serveInprocCacheBytes = 2 * serveCacheBytes
	serveInprocCorpora    = 5
)

// inprocEnv is one set-up corpus.
type inprocEnv struct {
	pool  *formext.Pool
	hot   [][]byte // the hot pages' sources
	sched schedule
	first []uint64 // each hot page's conditions (conditionsSig) from the warm-up
	pr    prScore  // the warm-up scored against the generator's truth
}

// conditionsSig hashes the byte form of a model's conditions, for
// comparing two extractions of one page without keeping either.
func conditionsSig(m *model.SemanticModel) uint64 {
	h := fnv.New64a()
	if m != nil {
		b, _ := json.Marshal(m.Conditions) // plain data: cannot fail
		h.Write(b)
	}
	return h.Sum64()
}

// newInprocEnv sets up serve's mix at a seed: it generates the hot
// corpus, builds the cached pool and warms it with every hot page once.
func newInprocEnv(seed int64, n int) (*inprocEnv, error) {
	cache, err := formext.NewCache(formext.CacheConfig{MaxBytes: serveInprocCacheBytes})
	if err != nil {
		return nil, err
	}
	pool, err := formext.NewPool(formext.Options{MaxInstances: crawlMaxInstances, Cache: cache})
	if err != nil {
		return nil, err
	}
	srcs := genPages(seed+1, n, serveMinConds, serveMaxConds)
	env := &inprocEnv{
		pool:  pool,
		hot:   make([][]byte, n),
		sched: newSchedule(seed, n, serveFreshShare),
		first: make([]uint64, n),
	}
	models := make([]*model.SemanticModel, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < n; b += runtime.NumCPU() {
				env.hot[b] = []byte(srcs[b].HTML)
				res, err := pool.ExtractBytes(context.Background(), env.hot[b])
				if err != nil {
					errs[b] = fmt.Errorf("warming page %s: %w", srcs[b].ID, err)
					continue
				}
				models[b] = res.Model
			}
		}(w)
	}
	wg.Wait()
	for b, src := range srcs {
		if errs[b] != nil {
			return nil, errs[b]
		}
		env.first[b] = conditionsSig(models[b])
		m := metrics.Match(src.Truth, models[b].Conditions, false)
		env.pr.add(m.TP, m.Extracted, m.Truth)
	}
	return env, nil
}

// request returns request i's hot page and its source: the hot page
// itself, or for a fresh request the page with a unique trailing comment,
// which changes its content address (a cache miss and a full parse) but
// not its conditions.
func (e *inprocEnv) request(i int) (base int, src []byte) {
	base, fresh := e.sched.pick(i)
	if !fresh {
		return base, e.hot[base]
	}
	return base, append(slices.Clip(e.hot[base]), freshTag(i)...)
}

// inprocSamples is one goroutine's record of its calls.
type inprocSamples struct {
	done     []time.Duration // end of each call, from the phase start
	lat      []float64       // ms, each call's duration
	failed   int
	problems []string
}

// inprocRun is one corpus's share of a run.
type inprocRun struct {
	setupS, throughput, p50, p99, rss float64
	attempted, failed                 int
	problems                          []string
}

// serveInprocSession runs the serve-inproc workload. It has no traced
// variant: the cache's per-layer figures come from serve's traced run.
func serveInprocSession(cfg config, _ *recorder) (report, error) {
	var rep report
	n := serveHotPages
	if cfg.Smoke {
		n = 60
	}
	fmt.Fprintf(os.Stderr, "benchmark: serve-inproc over %d corpora of %d hot pages for %v\n", serveInprocCorpora, n, cfg.Seconds)
	var runs []inprocRun
	var pr prScore
	for k := 0; k < serveInprocCorpora; k++ {
		r, err := runInprocCorpus(subSeed(cfg.Seed, k), n, cfg.Seconds/serveInprocCorpora, &pr)
		if err != nil {
			return rep, err
		}
		runs = append(runs, r)
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		rep.Problems = append(rep.Problems, r.problems...)
	}
	mid := func(f func(inprocRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	rep.set("setup_s", "s", mid(func(r inprocRun) float64 { return r.setupS }))
	rep.set("throughput_ops_s", "1/s", mid(func(r inprocRun) float64 { return r.throughput }))
	rep.set("latency_p50_ms", "ms", mid(func(r inprocRun) float64 { return r.p50 }))
	rep.set("latency_p99_ms", "ms", mid(func(r inprocRun) float64 { return r.p99 }))
	rep.set("success_rate", "ratio", 1-ratio(float64(rep.Failed), float64(rep.Attempted), 0))
	rep.set("peak_rss_mb", "MB", mid(func(r inprocRun) float64 { return r.rss }))
	rep.set("precision", "ratio", pr.Precision())
	rep.set("recall", "ratio", pr.Recall())
	return rep, nil
}

// runInprocCorpus sets up serve's mix at seed, runs it for dur and adds
// the warm-up's precision and recall to pr.
func runInprocCorpus(seed int64, n int, dur time.Duration, pr *prScore) (inprocRun, error) {
	var r inprocRun
	runtime.GC() // each set-up starts from the same clean heap
	t0 := time.Now()
	env, err := newInprocEnv(seed, n)
	if err != nil {
		return r, err
	}
	r.setupS = time.Since(t0).Seconds()
	pr.add(env.pr.TP, env.pr.Claimed, env.pr.Truth)
	settle()
	sampler, err := sampleRSS(0, window)
	if err != nil {
		return r, err
	}
	per := make([]inprocSamples, runtime.NumCPU())
	var next atomic.Int64
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(s *inprocSamples) {
			defer wg.Done()
			// verified[b] is a model already checked for page b: a hit
			// shares the cached model, so most checks are one comparison.
			verified := make([]*model.SemanticModel, len(env.hot))
			for {
				i := int(next.Add(1) - 1)
				base, src := env.request(i)
				t0 := time.Now()
				res, err := env.pool.ExtractBytes(ctx, src)
				t1 := time.Now()
				s.done = append(s.done, t1.Sub(start))
				switch {
				case err != nil:
					s.failed++
					s.lat = append(s.lat, ms(failLatency))
					s.problems = append(s.problems, fmt.Sprintf("serve-inproc seed %d request %d: %v", seed, i, err))
				case res.Model != verified[base] && conditionsSig(res.Model) != env.first[base]:
					s.failed++
					s.lat = append(s.lat, ms(t1.Sub(t0)))
					s.problems = append(s.problems, fmt.Sprintf("serve-inproc seed %d request %d: conditions differ from the page's first extraction", seed, i))
				default:
					verified[base] = res.Model
					s.lat = append(s.lat, ms(t1.Sub(t0)))
				}
				if !t1.Before(deadline) {
					return
				}
			}
		}(&per[w])
	}
	wg.Wait()
	if r.rss, err = sampler.median(); err != nil {
		return r, err
	}
	var done []time.Duration
	var lat []float64
	for _, s := range per {
		done = append(done, s.done...)
		lat = append(lat, s.lat...)
		r.failed += s.failed
		r.problems = append(r.problems, s.problems...)
	}
	r.attempted = n + len(done)
	groups := windows(done, lat, window)
	r.throughput = windowRate(done, window)
	r.p50 = windowMedian(groups, p50)
	r.p99 = windowMedian(groups, p99)
	return r, nil
}
