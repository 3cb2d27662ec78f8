package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// failLatency is the latency charged to a failed request: the client
// timeout, so a failure counts as missing every latency limit.
const failLatency = 10 * time.Second

// Validity limits of the open-loop generator. A run whose generator sent
// its requests late, or whose requests finished at well under the offered
// rate (a growing backlog), measured the generator or an overload, not
// the program at the stated rate; such a run is reported invalid and its
// latencies are withheld.
const (
	maxLateP99    = 25 * time.Millisecond
	minAchievedOf = 0.9
)

// openResult summarizes one open-loop phase.
type openResult struct {
	Due       []time.Duration // each request's due time, from the phase start
	Latencies []float64       // ms from each request's due time to its end; failures at failLatency
	Late      []float64       // ms each request was handed to a connection after its due time
	Attempted int
	Failed    int
	Offered   float64 // requests/s scheduled
	Achieved  float64 // requests/s completed, first due time to last completion
}

// LatencyP is the median over windows of width w (by due time) of each
// window's p-th percentile latency.
func (r openResult) LatencyP(w time.Duration, p float64) float64 {
	return windowMedian(windows(r.Due, r.Latencies, w), func(x []float64) float64 { return percentile(x, p) })
}

// LateP99 is the generator's own 99th-percentile lateness in ms.
func (r openResult) LateP99() float64 { return percentile(append([]float64(nil), r.Late...), 99) }

// AchievedRatio is achieved over offered rate.
func (r openResult) AchievedRatio() float64 { return ratio(r.Achieved, r.Offered, 0) }

// valid reports whether the phase measured the program at the offered
// rate, with the reason when it did not.
func (r openResult) valid() error {
	if late := r.LateP99(); late > ms(maxLateP99) {
		return fmt.Errorf("load generator fell behind: late p99 %.2f ms > %.0f ms", late, ms(maxLateP99))
	}
	if ar := r.AchievedRatio(); ar < minAchievedOf {
		return fmt.Errorf("backlog grew: achieved %.1f/s of %.1f/s offered (%.2f < %.2f)",
			r.Achieved, r.Offered, ar, minAchievedOf)
	}
	return nil
}

// openLoop sends n requests at a fixed rate over conns connections: a
// scheduler hands request i to the connection queue at its due time
// start+i/rate whatever the state of earlier requests, and each request
// is timed from that due time, so a stall charges the wait it imposes on
// every later request. do performs request i and reports success.
func openLoop(rate float64, n, conns int, do func(i int) bool) openResult {
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the number of sends: the scheduler must never block on a
	// slow program, or the loop would close.
	queue := make(chan job, n)
	lat := make([]float64, n)
	ok := make([]bool, n)
	var lastEnd atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				ok[j.i] = do(j.i)
				end := time.Now()
				lat[j.i] = ms(end.Sub(j.due))
				for {
					prev := lastEnd.Load()
					if int64(end.Sub(start)) <= prev || lastEnd.CompareAndSwap(prev, int64(end.Sub(start))) {
						break
					}
				}
			}
		}()
	}
	late := make([]float64, n)
	dues := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		dues[i] = time.Duration(float64(i) / rate * float64(time.Second))
		due := start.Add(dues[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(due))
		queue <- job{i: i, due: due}
	}
	close(queue)
	wg.Wait()
	r := openResult{Due: dues, Latencies: lat, Late: late, Attempted: n, Offered: rate}
	for i := range ok {
		if !ok[i] {
			r.Failed++
			r.Latencies[i] = ms(failLatency)
		}
	}
	if el := time.Duration(lastEnd.Load()); el > 0 {
		r.Achieved = float64(n) / el.Seconds()
	}
	return r
}

// closedResult summarizes one closed-loop phase.
type closedResult struct {
	Attempted int
	Failed    int
	Done      []time.Duration // completion of each successful request, from the phase start
}

// Throughput is the median over windows of width w of successful
// requests per second.
func (r closedResult) Throughput(w time.Duration) float64 { return windowRate(r.Done, w) }

// closedLoop runs conns workers that each send their next request only
// after the previous one completed, until dur has passed. Requests are
// numbered from first across all workers; do performs one and reports
// success.
func closedLoop(conns int, dur time.Duration, first int, do func(i int) bool) closedResult {
	var next, failed atomic.Int64
	next.Store(int64(first))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	done := make([][]time.Duration, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if do(int(next.Add(1) - 1)) {
					done[w] = append(done[w], time.Since(start))
				} else {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	r := closedResult{
		Attempted: int(next.Load()) - first,
		Failed:    int(failed.Load()),
	}
	for _, d := range done {
		r.Done = append(r.Done, d...)
	}
	return r
}
