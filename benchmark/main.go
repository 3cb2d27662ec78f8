// Command benchmark is formext's repository benchmark: it generates a
// workload from a seed, drives the program with it for a fixed time,
// checks every output it gets back, and prints one JSON result line.
//
// Usage (from the repository root, normally through benchmark/run.sh,
// which builds this program and cmd/formserve first):
//
//	benchmark --workload crawl|serve-inproc|serve|query --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures one workload with tracing off and reports
// the end-to-end metrics. With --trace 1 it runs the traced variants of
// crawl, serve and query whichever workload was named, recording spans
// around each call it makes into a layer of the program, writes the
// spans to the output directory and reports the per-layer metrics. The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"u"},...}}
//
// The line before it stamps the run (commit, Go version, CPUs, seed).
// Progress and diagnostics go to standard error. A run that cannot be
// measured validly (a failed set-up, a load generator that fell behind)
// exits non-zero without a result line. See README.md for the workloads
// and the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Seeds: DefaultSeed is the one to develop against; a claim made on it
// must also hold on HeldOutSeed, which is not used while a change is
// written.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// subSeed is the seed of part k (k < 16) of a run with the given seed: a
// run made of several parts, each on inputs of its own, still takes all of
// them from its one seed.
func subSeed(seed int64, k int) int64 { return seed*16 + int64(k) }

// window is the width of the windows a run's throughput and latency
// percentiles are taken over; each figure is the median over windows.
const window = 2 * time.Second

// setupReps is how many times crawl, serve and query build their set-up;
// setup_s is their median and the last one is measured. serve-inproc sets
// up each of its corpora once and reports the median over them.
const setupReps = 5

// config is one run's parameters.
type config struct {
	Workload  string
	Seed      int64
	Seconds   time.Duration
	Trace     bool
	Smoke     bool
	Formserve string // path of the formserve binary
	OutDir    string // where traced runs write their spans
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload (or a traced pass over all of them) returns.
type report struct {
	Attempted int
	Failed    int
	// Problems lists every failed correctness check; a run with any is
	// reported correct=false.
	Problems []string
	Metrics  map[string]metric
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// keepWorse names the metrics more than one traced workload reports
// (each open loop has a generator), with the rule that keeps the worse.
var keepWorse = map[string]func(a, b float64) float64{
	"loadgen.late_p99_ms":    math.Max,
	"loadgen.achieved_ratio": math.Min,
}

// merge folds o into r.
func (r *report) merge(o report) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Problems = append(r.Problems, o.Problems...)
	for k, v := range o.Metrics {
		if old, ok := r.Metrics[k]; ok && keepWorse[k] != nil {
			v.Value = keepWorse[k](old.Value, v.Value)
		}
		r.set(k, v.Unit, v.Value)
	}
}

// workloads maps each name to its session: untraced with a nil
// recorder, traced otherwise.
var workloads = map[string]func(config, *recorder) (report, error){
	"crawl":        crawlSession,
	"serve-inproc": serveInprocSession,
	"serve":        serveSession,
	"query":        querySession,
}

// tracedWorkloads are the workloads a traced run covers, whichever one
// it was started for: together they reach every layer.
var tracedWorkloads = []string{"crawl", "serve", "query"}

func main() {
	var cfg config
	var trace int
	var seconds float64
	flag.StringVar(&cfg.Workload, "workload", "crawl", "workload: crawl, serve-inproc, serve or query")
	flag.Int64Var(&cfg.Seed, "seed", DefaultSeed, "workload seed (same seed, same inputs)")
	flag.Float64Var(&seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run of crawl, serve and query, reporting per-layer metrics")
	flag.BoolVar(&cfg.Smoke, "smoke", false, "tiny inputs and short phases: proves the harness in seconds")
	flag.StringVar(&cfg.Formserve, "formserve", filepath.Join(".bench_build", "bin", "formserve"), "formserve binary")
	flag.StringVar(&cfg.OutDir, "out", ".bench_build", "directory for span files")
	flag.Parse()
	cfg.Trace = trace == 1
	cfg.Seconds = time.Duration(seconds * float64(time.Second))
	if _, ok := workloads[cfg.Workload]; !ok || (trace != 0 && trace != 1) || seconds <= 0 {
		fmt.Fprintf(os.Stderr, "benchmark: bad arguments (workload %q, trace %d, seconds %v)\n", cfg.Workload, trace, seconds)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	stamp := runStamp(cfg)
	var rep report
	if cfg.Trace {
		rec := newRecorder()
		for _, n := range tracedWorkloads {
			fmt.Fprintf(os.Stderr, "benchmark: traced %s\n", n)
			r, err := workloads[n](cfg, rec)
			if err != nil {
				return fmt.Errorf("traced %s: %w", n, err)
			}
			rep.merge(r)
		}
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return fmt.Errorf("creating %s: %w", cfg.OutDir, err)
		}
		path := filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
		if err := writeSpans(path, stamp, rec.snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchmark: spans written to %s\n", path)
	} else {
		r, err := workloads[cfg.Workload](cfg, nil)
		if err != nil {
			return err
		}
		rep = r
	}
	for i, p := range rep.Problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "benchmark: ... and %d more failed checks\n", len(rep.Problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", p)
	}
	return emit(os.Stdout, stamp, rep)
}

// emit prints the stamp line and then the result line.
func emit(f *os.File, stamp map[string]any, rep report) error {
	names := make([]string, 0, len(rep.Metrics))
	for n, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	if rep.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	stampLine, err := json.Marshal(map[string]any{"stamp": stamp})
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.Problems) == 0 && rep.Failed == 0, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", stampLine, line)
	return err
}
