package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"formext/internal/dataset"
	"formext/internal/metaquery"
	"formext/internal/metaquery/simsource"
	"formext/internal/model"
)

// The query workload: one formserve mediating several domains × several
// sources, each source's backend a simsource handler served by this
// process, registered through POST /sources.
const (
	queryPerDomain = 10
	queryRecords   = 32
	queryHardness  = 0.3 // > 0, so extraction errors reach the answers
	// queryDistinct queries, sent in turn: the open loop at full length
	// sends each once. A broad range constraint can fan out to 20 sources
	// and return 1000 records, so the p99 rests on how many such queries
	// a set holds; two constraints per query and a large set keep that
	// share steady.
	queryDistinct  = 1125
	queryRate      = 75.0
	queryOpenShare = 0.75
	// The open loop's latency percentiles are taken over the whole phase:
	// at this rate a 15 s phase holds 1125 requests, about the fewest that
	// leave ten beyond the p99. The closed loop's rate is the median of
	// 1 s windows.
	queryLatencyWindow = time.Hour
	queryRateWindow    = time.Second
	queryReqBase       = 3 << 40
)

// queryDomains are the mediated domains: the paper's three Basic domains
// and three of its new ones. More sources average the answer scores over
// more extractions, which is what keeps recall steady from seed to seed.
var queryDomains = []dataset.Schema{
	dataset.Books, dataset.Airfares, dataset.Automobiles,
	dataset.Movies, dataset.Hotels, dataset.Jobs,
}

// querySource is one simulated source with its ground truth.
type querySource struct {
	domain string
	src    dataset.Source
	sim    *simsource.Source
}

// queryEnv is one set-up query workload.
type queryEnv struct {
	sources  []*querySource
	backend  *http.Server
	backDone chan struct{}
	server   *serverProc
	client   *http.Client
	queries  [][]metaquery.Constraint
	regMs    []float64 // per-source POST /sources time

	rec        *recorder
	mu         sync.Mutex
	handlerMs  []float64
	answers    map[int]*metaquery.Answer // first answer per distinct query
	aggregates queryAggregates
}

// queryAggregates sums per-answer figures over the open loop.
type queryAggregates struct {
	answers, degraded, fanout, records int
	returned, kept                     int
	sourceMs                           []float64
}

// genQuerySources renders every domain's sources.
func genQuerySources(seed int64, perDomain int) []*querySource {
	var out []*querySource
	for di, schema := range queryDomains {
		gen := dataset.Generate(dataset.Config{
			Seed: seed + int64(di)*101, Sources: perDomain,
			Schemas:  []dataset.Schema{schema},
			MinConds: 8, MaxConds: 10, Hardness: queryHardness,
		})
		for _, src := range gen {
			out = append(out, &querySource{domain: schema.Name, src: src, sim: simsource.New(src, seed, queryRecords)})
		}
	}
	return out
}

// genQueries samples distinct-query workload entries per domain from the
// ground truth: attributes at least two sources carry, values from the
// shared record pools, ordered operators on ranges and dates.
func genQueries(seed int64, sources []*querySource, n int) [][]metaquery.Constraint {
	rng := rand.New(rand.NewSource(seed * 7919))
	type cand struct {
		cond model.Condition
		pool []string
	}
	var domains []string
	cands := map[string][]cand{}
	for _, schema := range queryDomains {
		domains = append(domains, schema.Name)
		counts := map[string]int{}
		first := map[string]model.Condition{}
		for _, s := range sources {
			if s.domain != schema.Name {
				continue
			}
			seen := map[string]bool{}
			for _, c := range s.src.Truth {
				k := model.NormalizeLabel(c.Attribute)
				if seen[k] {
					continue
				}
				seen[k] = true
				counts[k]++
				if _, ok := first[k]; !ok {
					first[k] = c
				}
			}
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := first[k]
			if pool := simsource.ValuePool(&c); counts[k] >= 2 && len(pool) > 0 {
				cands[schema.Name] = append(cands[schema.Name], cand{cond: c, pool: pool})
			}
		}
	}
	var out [][]metaquery.Constraint
	for qi := 0; len(out) < n && qi < 10*n; qi++ {
		cs := cands[domains[qi%len(domains)]]
		if len(cs) == 0 {
			continue
		}
		k := min(2, len(cs))
		var q []metaquery.Constraint
		for _, pi := range rng.Perm(len(cs))[:k] {
			c := cs[pi]
			op := metaquery.OpEq
			switch c.cond.Domain.Kind {
			case model.RangeDomain:
				op = []metaquery.Op{metaquery.OpEq, metaquery.OpLe, metaquery.OpGe, metaquery.OpLt}[rng.Intn(4)]
			case model.DateDomain:
				if rng.Intn(4) == 0 {
					op = metaquery.OpLt
				}
			}
			q = append(q, metaquery.Constraint{Attr: c.cond.Attribute, Op: op, Value: c.pool[rng.Intn(len(c.pool))]})
		}
		out = append(out, q)
	}
	return out
}

// querySetup builds the workload reps times, keeping the last, and
// returns the median set-up time: generating the sources, serving their
// backends, starting formserve and registering every source (which
// extracts its interface).
func querySetup(cfg config, reps int, rec *recorder) (*queryEnv, float64, error) {
	var env *queryEnv
	var times []float64
	for rep := 0; rep < reps; rep++ {
		env.close()
		t0 := time.Now()
		var err error
		env, err = startQuery(cfg, rec)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return env, median(times), nil
}

func startQuery(cfg config, rec *recorder) (*queryEnv, error) {
	perDomain, distinct := queryPerDomain, queryDistinct
	if cfg.Smoke {
		perDomain, distinct = 3, 20
	}
	env := &queryEnv{
		sources:  genQuerySources(cfg.Seed, perDomain),
		client:   newClient(runtime.NumCPU()),
		rec:      rec,
		answers:  map[int]*metaquery.Answer{},
		backDone: make(chan struct{}),
	}
	env.queries = genQueries(cfg.Seed, env.sources, distinct)
	if len(env.queries) == 0 {
		return nil, errors.New("query workload: no queries could be generated")
	}
	mux := http.NewServeMux()
	for _, s := range env.sources {
		prefix := "/s/" + s.src.ID
		mux.Handle(prefix+"/", http.StripPrefix(prefix, env.timed(s.sim.Handler())))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serving simulated sources: %w", err)
	}
	env.backend = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(env.backDone)
		_ = env.backend.Serve(ln) // returns ErrServerClosed on close
	}()
	backURL := "http://" + ln.Addr().String()

	addr, err := freeAddr()
	if err != nil {
		env.close()
		return nil, err
	}
	env.server, err = startServer(cfg.Formserve, addr)
	if err != nil {
		env.close()
		return nil, err
	}
	for _, s := range env.sources {
		spec, _ := json.Marshal(map[string]string{ // plain strings: cannot fail
			"id": s.src.ID, "endpoint": backURL + "/s/" + s.src.ID, "html": s.src.HTML,
		})
		t0 := time.Now()
		resp, err := env.client.Post(env.server.URL+"/sources", "application/json", bytes.NewReader(spec))
		if err != nil {
			env.close()
			return nil, fmt.Errorf("registering %s: %w", s.src.ID, err)
		}
		body, _ := io.ReadAll(resp.Body) // only for the error message
		resp.Body.Close()
		env.regMs = append(env.regMs, ms(time.Since(t0)))
		if resp.StatusCode != http.StatusOK {
			env.close()
			return nil, fmt.Errorf("registering %s: status %d: %.200s", s.src.ID, resp.StatusCode, body)
		}
	}
	return env, nil
}

// timed wraps a simsource handler with a span per call.
func (e *queryEnv) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		if e.rec != nil {
			e.rec.add(0, 0, 0, "simsource.Source.Handler", t0, t1)
			e.mu.Lock()
			e.handlerMs = append(e.handlerMs, ms(t1.Sub(t0)))
			e.mu.Unlock()
		}
	})
}

func (e *queryEnv) close() {
	if e == nil {
		return
	}
	e.server.stop()
	if e.backend != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if e.backend.Shutdown(ctx) != nil {
			e.backend.Close()
		}
		<-e.backDone
		e.backend = nil
	}
}

// do sends query i (cycling the distinct set). A transport error or a
// non-2xx reply fails it; a degraded answer is still an answer. Only the
// open loop (record set) keeps answers and aggregates.
func (e *queryEnv) do(i int, record bool) bool {
	qi := i % len(e.queries)
	body := metaquery.FormatQuery(e.queries[qi])
	t0 := time.Now()
	resp, err := e.client.Post(e.server.URL+"/query", "text/plain", bytes.NewReader([]byte(body)))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t1 := time.Now()
	if e.rec != nil {
		e.rec.add(0, 0, int64(queryReqBase+i), "POST /query", t0, t1)
	}
	if err != nil || resp.StatusCode/100 != 2 {
		return false
	}
	var ans metaquery.Answer
	if json.Unmarshal(data, &ans) != nil {
		return false
	}
	if !record {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.answers[qi]; !ok {
		for i := range ans.Records {
			ans.Records[i].Fields = nil // scoring reads IDs; keep the heap small
		}
		e.answers[qi] = &ans
	}
	a := &e.aggregates
	a.answers++
	if len(ans.Degraded) > 0 {
		a.degraded++
	}
	a.fanout += ans.Fanout
	a.records += len(ans.Records)
	for _, s := range ans.Sources {
		a.returned += s.Returned
		a.kept += s.Kept
		if s.Eligible {
			a.sourceMs = append(a.sourceMs, s.ElapsedMs)
		}
	}
	return true
}

// truthEligible lists the sources whose ground truth carries every
// constrained attribute: the routing oracle.
func (e *queryEnv) truthEligible(q []metaquery.Constraint) map[string]bool {
	out := map[string]bool{}
	for _, s := range e.sources {
		have := map[string]bool{}
		for _, c := range s.src.Truth {
			have[model.NormalizeLabel(c.Attribute)] = true
		}
		ok := true
		for _, k := range q {
			if !have[model.NormalizeLabel(k.Attr)] {
				ok = false
				break
			}
		}
		if ok {
			out[s.src.ID] = true
		}
	}
	return out
}

// expectedIDs is the answer oracle: the records of the truth-eligible
// sources that satisfy every constraint.
func (e *queryEnv) expectedIDs(q []metaquery.Constraint, eligible map[string]bool) map[string]bool {
	want := map[string]bool{}
	for _, s := range e.sources {
		if !eligible[s.src.ID] {
			continue
		}
		conds := map[string]*model.Condition{}
		for i := range s.src.Truth {
			conds[model.NormalizeLabel(s.src.Truth[i].Attribute)] = &s.src.Truth[i]
		}
	next:
		for _, rec := range s.sim.Records() {
			for _, k := range q {
				c := conds[model.NormalizeLabel(k.Attr)]
				if !metaquery.MatchValue(c.Domain.Kind, rec[model.NormalizeLabel(c.Attribute)], k.Op, k.Value) {
					continue next
				}
			}
			want[rec["_id"]] = true
		}
	}
	return want
}

// scoreAnswer scores one answer: records against the oracle (answer
// soundness is precision, completeness is recall) and routing against
// the truth-eligible sources.
func scoreAnswer(ans *metaquery.Answer, want, eligible map[string]bool, answers, routing *prScore) {
	got := map[string]bool{}
	for _, r := range ans.Records {
		for _, id := range r.IDs {
			got[id] = true
		}
	}
	hits := 0
	for id := range got {
		if want[id] {
			hits++
		}
	}
	answers.add(hits, len(got), len(want))
	routed, tp := 0, 0
	for _, s := range ans.Sources {
		if s.Eligible {
			routed++
			if eligible[s.ID] {
				tp++
			}
		}
	}
	routing.add(tp, routed, len(eligible))
}

// querySession runs the query workload, traced when rec is set.
func querySession(cfg config, rec *recorder) (report, error) {
	var rep report
	reps := setupReps
	if rec != nil {
		reps = 1
	}
	env, setupS, err := querySetup(cfg, reps, rec)
	if err != nil {
		return rep, err
	}
	measured := cfg.Seconds
	if rec != nil {
		measured /= 3 // a traced run covers all three workloads in about one run's time
	}
	defer env.close()
	pid := env.server.cmd.Process.Pid
	if err := resetPeakRSS(pid); err != nil {
		return rep, err
	}
	before, err := scrapeMetrics(env.client, env.server.URL)
	if err != nil {
		return rep, err
	}
	openDur := time.Duration(float64(measured) * queryOpenShare)
	n := max(int(queryRate*openDur.Seconds()), len(env.queries))
	fmt.Fprintf(os.Stderr, "benchmark: query open loop %d requests over %d distinct queries at %.0f/s, then closed loop\n",
		n, len(env.queries), queryRate)
	open := openLoop(queryRate, n, runtime.NumCPU(), func(i int) bool { return env.do(i, true) })
	after, err := scrapeMetrics(env.client, env.server.URL)
	if err != nil {
		return rep, err
	}
	closed := closedLoop(runtime.NumCPU(), measured-openDur, n, func(i int) bool { return env.do(i, false) })
	if !env.server.alive() {
		return rep, fmt.Errorf("formserve died during the run\n%s", env.server.stderr.String())
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return rep, err
	}
	// An untraced run withholds its latencies when the generator fell
	// behind; a traced run reports the generator's figures instead, and
	// its per-layer times run from each send, not from the due time.
	if err := open.valid(); err != nil && rec == nil {
		return rep, fmt.Errorf("query open loop invalid: %w", err)
	}

	var answers, routing prScore
	for qi, q := range env.queries {
		ans, ok := env.answers[qi]
		if !ok {
			continue // its every attempt failed, which error counting reports
		}
		eligible := env.truthEligible(q)
		scoreAnswer(ans, env.expectedIDs(q, eligible), eligible, &answers, &routing)
	}
	rep.Attempted = open.Attempted + closed.Attempted
	rep.Failed = open.Failed + closed.Failed
	if rep.Failed > 0 {
		rep.problem("query: %d of %d queries failed (transport error or non-2xx)", rep.Failed, rep.Attempted)
	}
	if rec == nil {
		rep.set("setup_s", "s", setupS)
		rep.set("throughput_ops_s", "1/s", closed.Throughput(queryRateWindow))
		rep.set("latency_p50_ms", "ms", open.LatencyP(queryLatencyWindow, 50))
		rep.set("latency_p99_ms", "ms", open.LatencyP(queryLatencyWindow, 99))
		rep.set("success_rate", "ratio", 1-ratio(float64(rep.Failed), float64(rep.Attempted), 0))
		rep.set("peak_rss_mb", "MB", rss)
		rep.set("precision", "ratio", answers.Precision())
		rep.set("recall", "ratio", answers.Recall())
		return rep, nil
	}
	a := env.aggregates
	serverNs, _ := histDeltaQuantile(before.QueryLatency, after.QueryLatency, 0.5)
	rep.set("metaquery.server_ms_p50", "ms", serverNs/1e6)
	rep.set("metaquery.fanout_per_query", "count", ratio(float64(a.fanout), float64(a.answers), 0))
	rep.set("metaquery.records_per_query", "count", ratio(float64(a.records), float64(a.answers), 0))
	rep.set("metaquery.kept_ratio", "ratio", ratio(float64(a.kept), float64(a.returned), 0))
	rep.set("metaquery.degraded_ratio", "ratio", ratio(float64(a.degraded), float64(a.answers), 0))
	rep.set("metaquery.routing_precision", "ratio", routing.Precision())
	rep.set("metaquery.routing_recall", "ratio", routing.Recall())
	rep.set("metaquery.source_ms_p50", "ms", median(a.sourceMs))
	env.mu.Lock()
	rep.set("simsource.handler_ms_p50", "ms", median(env.handlerMs))
	env.mu.Unlock()
	rep.set("formserve.register_ms_per_source", "ms", mean(env.regMs))
	rep.set("loadgen.late_p99_ms", "ms", open.LateP99())
	rep.set("loadgen.achieved_ratio", "ratio", open.AchievedRatio())
	return rep, nil
}
