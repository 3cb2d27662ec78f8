package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"formext/internal/dataset"
	"formext/internal/metrics"
	"formext/internal/model"
)

// The serve workload: two formserve peers on loopback, requests sent
// round-robin across them, pages drawn from a Zipf-skewed hot corpus with
// a steady share of never-seen pages. Its pages are smaller forms than
// crawl's (2 to 5 conditions): parsing is crawl's subject, and a page
// from the far parse tail (seconds per miss, about one in 3000 of crawl's
// pages) would decide a serve run by itself.
const (
	serveHotPages = 1200
	serveMinConds = 2
	serveMaxConds = 5
	// serveFreshShare of requests carry a never-seen page.
	serveFreshShare = 0.10
	// serveCacheBytes is each peer's -cache-bytes: two peers hold most,
	// not all, of the hot corpus's results (115-125 MB filled without
	// eviction, measured in process on three seeds). Each of a cache's
	// 16 shards gets 3 MB, and a larger result is never cached; only the
	// rare far-tail page comes near that.
	serveCacheBytes = 48 << 20
	serveRate       = 500.0 // open-loop requests per second
	serveOpenShare  = 0.6   // of the measured time; the closed loop gets the rest
	serveReqBase    = 2 << 40
)

// serveEnv is one set-up serve workload: the running peers and the corpus.
type serveEnv struct {
	peers  []*serverProc
	hot    []dataset.Source
	sched  schedule
	client *http.Client

	mu      sync.Mutex
	first   map[int]string // base page → conditions of its first response
	samples []serveSample
}

// serveSample is one answered request, for the per-layer split.
type serveSample struct {
	source string  // X-Cluster-Source
	hit    bool    // stats.cacheHit
	ms     float64 // client time from send to full response
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: failLatency,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// splitmix64 mixes a seed and an index into a uniform 64-bit value, so
// request i's content is a pure function of (seed, i) whichever worker
// sends it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unitFloat(seed int64, i, salt int) float64 {
	v := splitmix64(uint64(seed)*0x100000001b3 ^ uint64(i)<<8 ^ uint64(salt))
	return float64(v>>11) / (1 << 53)
}

// schedule draws each request's page from a hot corpus: Zipf-skewed by
// corpus position (s = 1), or with probability fresh a never-seen variant
// of a uniformly drawn page.
type schedule struct {
	seed  int64
	fresh float64
	cum   []float64 // cumulative Zipf weights over the corpus
}

func newSchedule(seed int64, n int, fresh float64) schedule {
	cum := make([]float64, n)
	total := 0.0
	for r := range cum {
		total += 1 / float64(r+1)
		cum[r] = total
	}
	return schedule{seed: seed, fresh: fresh, cum: cum}
}

// pick returns request i's hot page and whether it is sent as a
// never-seen variant.
func (s schedule) pick(i int) (base int, fresh bool) {
	n := len(s.cum)
	if unitFloat(s.seed, i, 1) < s.fresh {
		return min(int(unitFloat(s.seed, i, 2)*float64(n)), n-1), true
	}
	u := unitFloat(s.seed, i, 3) * s.cum[n-1]
	return min(sort.SearchFloat64s(s.cum, u), n-1), false
}

// page renders request i over the corpus: the hot page, or for a fresh
// request the hot page with a unique trailing comment, which changes its
// content address (a cache miss and a full parse) but not its conditions.
func (s schedule) page(hot []dataset.Source, i int) (base int, html string) {
	base, fresh := s.pick(i)
	html = hot[base].HTML
	if fresh {
		html += freshTag(i)
	}
	return base, html
}

// freshTag is what request i appends to a hot page to send it as a
// never-seen page.
func freshTag(i int) string { return "\n<!-- fresh " + strconv.Itoa(i) + " -->\n" }

// serveSetup generates the corpus, starts the two peers and warms their
// caches with one request per hot page; it does so reps times, keeping
// the last, and returns the median set-up time.
func serveSetup(cfg config, reps int) (*serveEnv, float64, error) {
	var env *serveEnv
	var times []float64
	for rep := 0; rep < reps; rep++ {
		env.close()
		t0 := time.Now()
		var err error
		env, err = startServe(cfg)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return env, median(times), nil
}

func startServe(cfg config) (*serveEnv, error) {
	hotN := serveHotPages
	if cfg.Smoke {
		hotN = 60
	}
	env := &serveEnv{
		hot:    genPages(cfg.Seed+1, hotN, serveMinConds, serveMaxConds),
		client: newClient(runtime.NumCPU()),
		first:  map[int]string{},
	}
	env.sched = newSchedule(cfg.Seed, len(env.hot), serveFreshShare)
	addrs := make([]string, 2)
	urls := make([]string, 2)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i], urls[i] = a, "http://"+a
	}
	for i, a := range addrs {
		p, err := startServer(cfg.Formserve, a,
			"-self", urls[i], "-peers", urls[0]+","+urls[1],
			"-cache-bytes", strconv.Itoa(serveCacheBytes))
		if err != nil {
			env.close()
			return nil, err
		}
		env.peers = append(env.peers, p)
	}
	// Warm: every hot page once, two connections.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < len(env.hot); b += 2 {
				if err := env.warm(b); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			env.close()
			return nil, fmt.Errorf("warming the serve cache: %w", err)
		}
	}
	return env, nil
}

func (e *serveEnv) close() {
	if e == nil {
		return
	}
	var wg sync.WaitGroup
	for _, p := range e.peers {
		wg.Add(1)
		go func(p *serverProc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
	e.peers = nil
}

// extractReply is the part of an /extract response the benchmark reads.
type extractReply struct {
	Model struct {
		Conditions json.RawMessage `json:"conditions"`
	} `json:"model"`
	Stats struct {
		CacheHit bool `json:"cacheHit"`
	} `json:"stats"`
}

// warm sends hot page b once and keeps its conditions as the page's
// first response, which every later response must equal.
func (e *serveEnv) warm(b int) error {
	resp, err := e.client.Post(e.peers[b%2].URL+"/extract", "text/html", strings.NewReader(e.hot[b].HTML))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	var rep extractReply
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("decoding /extract reply: %w", err)
	}
	e.mu.Lock()
	e.first[b] = string(rep.Model.Conditions)
	e.mu.Unlock()
	return nil
}

// do sends request i and checks it against the first response seen for
// its page, across peers, hits, misses and hot copies.
func (e *serveEnv) do(i int, rec *recorder) bool {
	base, body := e.sched.page(e.hot, i)
	peer := e.peers[i%2]
	t0 := time.Now()
	resp, err := e.client.Post(peer.URL+"/extract", "text/html", strings.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()
	if rec != nil {
		rec.add(0, 0, int64(serveReqBase+i), "POST /extract", t0, t1)
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var rep extractReply
	if json.Unmarshal(data, &rep) != nil {
		return false
	}
	sig := string(rep.Model.Conditions)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.samples = append(e.samples, serveSample{source: resp.Header.Get("X-Cluster-Source"), hit: rep.Stats.CacheHit, ms: ms(t1.Sub(t0))})
	if want, ok := e.first[base]; ok {
		return want == sig
	}
	e.first[base] = sig
	return true
}

// scrape reads /metrics from every peer.
func (e *serveEnv) scrape() ([]metricsScrape, error) {
	out := make([]metricsScrape, len(e.peers))
	for i, p := range e.peers {
		s, err := scrapeMetrics(e.client, p.URL)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// sumHist adds histograms bucket by bucket (same layout assumed).
func sumHist(hs ...histSnapshot) histSnapshot {
	var out histSnapshot
	for _, h := range hs {
		out.Count += h.Count
		out.Max = math.Max(out.Max, h.Max)
		for i, b := range h.Buckets {
			if i >= len(out.Buckets) {
				out.Buckets = append(out.Buckets, histBucket{LE: b.LE})
			}
			out.Buckets[i].Count += b.Count
		}
	}
	return out
}

// serveSession runs the serve workload, traced when rec is set.
func serveSession(cfg config, rec *recorder) (report, error) {
	var rep report
	reps := setupReps
	if rec != nil {
		reps = 1
	}
	env, setupS, err := serveSetup(cfg, reps)
	if err != nil {
		return rep, err
	}
	measured := cfg.Seconds
	if rec != nil {
		measured /= 3 // a traced run covers all three workloads in about one run's time
	}
	defer env.close()
	env.samples = nil
	for _, p := range env.peers {
		if err := resetPeakRSS(p.cmd.Process.Pid); err != nil {
			return rep, err
		}
	}
	before, err := env.scrape()
	if err != nil {
		return rep, err
	}
	openDur := time.Duration(float64(measured) * serveOpenShare)
	n := int(serveRate * openDur.Seconds())
	fmt.Fprintf(os.Stderr, "benchmark: serve open loop %d requests at %.0f/s, then closed loop\n", n, serveRate)
	open := openLoop(serveRate, n, runtime.NumCPU(), func(i int) bool { return env.do(i, rec) })
	after, err := env.scrape()
	if err != nil {
		return rep, err
	}
	env.mu.Lock()
	openSamples := env.samples
	env.mu.Unlock()

	closed := closedLoop(runtime.NumCPU(), measured-openDur, n, func(i int) bool { return env.do(i, rec) })
	var rss float64
	for _, p := range env.peers {
		if !p.alive() {
			return rep, fmt.Errorf("formserve %s died during the run\n%s", p.URL, p.stderr.String())
		}
		r, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return rep, err
		}
		rss += r
	}
	// An untraced run withholds its latencies when the generator fell
	// behind; a traced run reports the generator's figures instead, and
	// its per-layer times run from each send, not from the due time.
	if err := open.valid(); err != nil && rec == nil {
		return rep, fmt.Errorf("serve open loop invalid: %w", err)
	}
	// Precision and recall over every hot page's first response (from
	// the warm-up): a fixed set for a seed, which all later responses
	// matched or were counted failed.
	var pr prScore
	for b, src := range env.hot {
		var conds []model.Condition
		if err := json.Unmarshal([]byte(env.first[b]), &conds); err != nil {
			return rep, fmt.Errorf("decoding conditions of %s: %w", src.ID, err)
		}
		m := metrics.Match(src.Truth, conds, false)
		pr.add(m.TP, m.Extracted, m.Truth)
	}
	rep.Attempted = len(env.hot) + open.Attempted + closed.Attempted
	rep.Failed = open.Failed + closed.Failed
	if rep.Failed > 0 {
		rep.problem("serve: %d of %d requests failed or disagreed with the page's first response", rep.Failed, rep.Attempted)
	}
	if rec == nil {
		rep.set("setup_s", "s", setupS)
		rep.set("throughput_ops_s", "1/s", closed.Throughput(window))
		rep.set("latency_p50_ms", "ms", open.LatencyP(window, 50))
		rep.set("latency_p99_ms", "ms", open.LatencyP(window, 99))
		rep.set("success_rate", "ratio", 1-ratio(float64(rep.Failed), float64(rep.Attempted), 0))
		rep.set("peak_rss_mb", "MB", rss)
		rep.set("precision", "ratio", pr.Precision())
		rep.set("recall", "ratio", pr.Recall())
		return rep, nil
	}
	setServeLayers(&rep, openSamples, before, after)
	rep.set("loadgen.late_p99_ms", "ms", open.LateP99())
	rep.set("loadgen.achieved_ratio", "ratio", open.AchievedRatio())
	return rep, nil
}

// setServeLayers derives the serving, cache and cluster per-layer metrics
// from the open loop's responses and the peers' /metrics deltas.
func setServeLayers(rep *report, samples []serveSample, before, after []metricsScrape) {
	by := map[string][]float64{}
	var hit, miss, all []float64
	for _, s := range samples {
		by[s.source] = append(by[s.source], s.ms)
		all = append(all, s.ms)
		switch {
		case s.hit:
			hit = append(hit, s.ms)
		case s.source != "peer-hot":
			// A hot copy replays a response some peer produced earlier,
			// cacheHit included; it counts under the cluster split only.
			miss = append(miss, s.ms)
		}
	}
	var hb, ha []histSnapshot
	cache := map[string]float64{}
	var fallbacks int64
	for i := range after {
		hb = append(hb, before[i].ExtractLatency)
		ha = append(ha, after[i].ExtractLatency)
		for _, k := range []string{"cache_hits", "cache_misses", "cache_evictions"} {
			cache[k] += float64(after[i].Cache[k] - before[i].Cache[k])
		}
		cache["cache_bytes"] += float64(after[i].Cache["cache_bytes"])
		cache["cache_entries"] += float64(after[i].Cache["cache_entries"])
		fallbacks += after[i].Fallbacks - before[i].Fallbacks
	}
	serverNs, _ := histDeltaQuantile(sumHist(hb...), sumHist(ha...), 0.5)
	serverMs := serverNs / 1e6
	fwd := len(by["peer"]) + len(by["peer-hot"])
	rep.set("formserve.hit_ms_p50", "ms", median(hit))
	rep.set("formserve.miss_ms_p50", "ms", median(miss))
	rep.set("formserve.server_ms_p50", "ms", serverMs)
	rep.set("http.overhead_ms_p50", "ms", median(all)-serverMs)
	rep.set("cache.hit_ratio", "ratio", ratio(cache["cache_hits"], cache["cache_hits"]+cache["cache_misses"], 0))
	rep.set("cache.evictions", "count", cache["cache_evictions"])
	rep.set("cache.bytes_per_entry", "bytes", ratio(cache["cache_bytes"], cache["cache_entries"], 0))
	rep.set("cluster.forwarded_ratio", "ratio", ratio(float64(fwd), float64(len(samples)), 0))
	rep.set("cluster.peer_hot_ratio", "ratio", ratio(float64(len(by["peer-hot"])), float64(fwd), 0))
	rep.set("cluster.fallbacks", "count", float64(fallbacks))
	rep.set("cluster.local_ms_p50", "ms", median(by["local"]))
	rep.set("cluster.peer_ms_p50", "ms", median(by["peer"]))
	rep.set("cluster.peer_hot_ms_p50", "ms", median(by["peer-hot"]))
}
