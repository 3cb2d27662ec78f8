package main

import (
	"math"
	"testing"
	"time"

	"formext/internal/dataset"
	"formext/internal/metaquery"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	cases := []struct{ p, want float64 }{{0, 1}, {10, 1}, {50, 5}, {90, 9}, {99, 10}, {100, 10}}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of empty = %v, want 0", got)
	}
	in := []float64{3, 1, 2}
	if got := median(in); got != 2 || in[0] != 3 {
		t.Errorf("median = %v (input now %v), want 2 and input untouched", got, in)
	}
}

func TestHistDeltaQuantile(t *testing.T) {
	inf := math.Inf(1)
	before := histSnapshot{Count: 10, Max: 900, Buckets: []histBucket{{100, 10}, {250, 10}, {500, 10}, {inf, 10}}}
	// 40 new observations: 10 in (100,250], 20 in (250,500], 10 above 500.
	after := histSnapshot{Count: 50, Max: 1500, Buckets: []histBucket{{100, 10}, {250, 20}, {500, 40}, {inf, 50}}}
	// The median of the delta is observation 20 of 40: ten into the
	// (250,500] bucket's twenty, halfway through it.
	got, ok := histDeltaQuantile(before, after, 0.5)
	if !ok || math.Abs(got-375) > 1e-9 {
		t.Fatalf("p50 = %v, %v; want 375, true", got, ok)
	}
	// The top quantile lands in +Inf, bounded by the scrape's max.
	if got, _ := histDeltaQuantile(before, after, 1); math.Abs(got-1500) > 1e-9 {
		t.Errorf("p100 = %v, want 1500", got)
	}
	if _, ok := histDeltaQuantile(after, after, 0.5); ok {
		t.Error("no new observations must report ok=false")
	}
}

func TestDecodeMetricsHistogram(t *testing.T) {
	body := []byte(`{"formserve_extract_latency_ns":{"count":3,"sum":9,"min":1,"max":700,` +
		`"buckets":[{"le":100,"count":1},{"le":500,"count":2},{"le":"+Inf","count":3}]},` +
		`"formserve_cache":{"cache_hits":4,"cache_misses":1},"formserve_peer_fallback_total":2}`)
	m, err := decodeMetrics(body)
	if err != nil {
		t.Fatal(err)
	}
	h := m.ExtractLatency
	if h.Count != 3 || len(h.Buckets) != 3 || h.Buckets[1].LE != 500 || !math.IsInf(h.Buckets[2].LE, 1) {
		t.Errorf("histogram decoded as %+v", h)
	}
	if m.Cache["cache_hits"] != 4 || m.Fallbacks != 2 || m.QueryLatency.Count != 0 {
		t.Errorf("scrape decoded as %+v", m)
	}
}

func TestPRScore(t *testing.T) {
	var s prScore
	if s.Precision() != 1 || s.Recall() != 1 {
		t.Error("an empty score is vacuously perfect")
	}
	s.add(3, 4, 6)
	s.add(1, 1, 2)
	if s.Precision() != 0.8 || s.Recall() != 0.5 {
		t.Errorf("P=%v R=%v, want 0.8 0.5", s.Precision(), s.Recall())
	}
}

func TestScoreAnswer(t *testing.T) {
	ans := &metaquery.Answer{
		Records: []metaquery.Record{{IDs: []string{"a#1", "b#1"}}, {IDs: []string{"a#2"}}},
		Sources: []metaquery.SourceReport{{ID: "a", Eligible: true}, {ID: "b", Eligible: true}, {ID: "c"}},
	}
	want := map[string]bool{"a#1": true, "a#3": true}
	eligible := map[string]bool{"a": true, "c": true}
	var answers, routing prScore
	scoreAnswer(ans, want, eligible, &answers, &routing)
	if answers != (prScore{TP: 1, Claimed: 3, Truth: 2}) {
		t.Errorf("answer score %+v", answers)
	}
	if routing != (prScore{TP: 1, Claimed: 2, Truth: 2}) {
		t.Errorf("routing score %+v", routing)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "page", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Start: 3 * ms, End: 5 * ms},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 8 * ms, End: 12 * ms}, // clipped at the parent's end
		{ID: 5, Parent: 2, Start: 2 * ms, End: 3 * ms},
	}
	st := selfTimes(spans)
	want := map[int64]time.Duration{1: 4 * ms, 2: 2 * ms, 3: 2 * ms, 4: 4 * ms, 5: 1 * ms}
	for id, w := range want {
		if st[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, st[id], w)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One connection and a request that stalls: the requests queued
	// behind it are charged the stall, because latency runs from each
	// request's due time.
	r := openLoop(1000, 5, 1, func(i int) bool {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		return i != 4
	})
	if r.Attempted != 5 || r.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 5 and 1", r.Attempted, r.Failed)
	}
	if r.Latencies[1] < 15 {
		t.Errorf("request 1 latency %.2f ms, want it to include request 0's stall", r.Latencies[1])
	}
	if r.Latencies[4] != ms(failLatency) {
		t.Errorf("failed request latency %.2f ms, want the failure charge %v", r.Latencies[4], failLatency)
	}
	if r.AchievedRatio() >= 1 {
		t.Errorf("achieved ratio %.2f, want below 1 after a stall", r.AchievedRatio())
	}
}

func TestOpenLoopValidity(t *testing.T) {
	ok := openResult{Late: []float64{0.1, 0.2}, Offered: 100, Achieved: 99}
	if err := ok.valid(); err != nil {
		t.Errorf("valid run reported invalid: %v", err)
	}
	late := openResult{Late: []float64{0.1, 90}, Offered: 100, Achieved: 99}
	if late.valid() == nil {
		t.Error("a generator 90 ms late must invalidate the run")
	}
	backlog := openResult{Late: []float64{0.1}, Offered: 100, Achieved: 50}
	if backlog.valid() == nil {
		t.Error("half the offered rate must invalidate the run")
	}
}

func TestSchedulePickIsAPureFunctionOfSeedAndIndex(t *testing.T) {
	s := newSchedule(9, 50, 0.1)
	fresh, head := 0, 0
	for i := 0; i < 4000; i++ {
		b1, f1 := s.pick(i)
		b2, f2 := s.pick(i)
		if b1 != b2 || f1 != f2 || b1 < 0 || b1 >= 50 {
			t.Fatalf("pick(%d) = (%d,%v) then (%d,%v)", i, b1, f1, b2, f2)
		}
		if f1 {
			fresh++
		} else if b1 == 0 {
			head++
		}
	}
	if share := float64(fresh) / 4000; math.Abs(share-0.1) > 0.02 {
		t.Errorf("fresh share %.3f, want about 0.10", share)
	}
	// Zipf s=1 over 50 ranks gives rank 1 about 22% of the non-fresh draws.
	if share := float64(head) / float64(4000-fresh); share < 0.18 || share > 0.27 {
		t.Errorf("rank-1 share %.3f, want about 0.22", share)
	}
	hot := []dataset.Source{{HTML: "<form></form>"}}
	one := newSchedule(1, 1, 1)
	if _, html := one.page(hot, 7); html == hot[0].HTML {
		t.Error("a fresh page must differ from its hot page")
	}
}

func TestWindows(t *testing.T) {
	s := time.Second
	offs := []time.Duration{0, s / 2, s, 3 * s / 2, 2 * s, 5 * s / 2}
	xs := []float64{1, 2, 3, 4, 5, 6}
	g := windows(offs, xs, s)
	if len(g) != 2 || len(g[0]) != 2 || len(g[1]) != 2 || g[1][0] != 3 {
		t.Fatalf("windows = %v, want two whole windows [1 2] [3 4]", g)
	}
	if got := windowMedian([][]float64{{1, 100}, {2}, {3}}, func(w []float64) float64 { return w[0] }); got != 2 {
		t.Errorf("windowMedian = %v, want 2", got)
	}
	// 10 completions per second for 3 s, then a stalled second with one.
	var done []time.Duration
	for i := 0; i < 30; i++ {
		done = append(done, time.Duration(i)*s/10)
	}
	done = append(done, 3*s+s/2, 4*s)
	if got := windowRate(done, s); got != 10 {
		t.Errorf("windowRate = %v, want the median window's 10/s", got)
	}
}

func TestAdmissions(t *testing.T) {
	ms := time.Millisecond
	// Two slots. Pages 0 and 1 are admitted when ready; page 2 waits for
	// the first delivery (page 1 at 5 ms), page 3 for the second (page 0
	// at 9 ms), and page 4 was ready only after the third delivery.
	ready := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 20 * ms}
	got := []delivery{{seq: 1, at: 5 * ms}, {seq: 0, at: 9 * ms}, {seq: 2, at: 12 * ms}, {seq: 3, at: 15 * ms}, {seq: 4, at: 30 * ms}}
	want := []time.Duration{1 * ms, 0, 5 * ms, 9 * ms, 20 * ms}
	adm := admissions(ready, got, 2)
	for k := range want {
		if adm[k] != want[k] {
			t.Errorf("delivery %d (page %d): admitted %v, want %v", k, got[k].seq, adm[k], want[k])
		}
	}
}
