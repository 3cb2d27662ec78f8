package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(r report) []string {
	var out []string
	for n := range r.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Errorf("%s reports metrics\n%s\nBENCHMARK.json declares\n%s", what, gj, wj)
	}
}

// TestSmoke runs every workload, untraced and traced, on tiny inputs: the
// harness works end to end, every check passes at this commit, and each
// run reports exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds formserve and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "formserve")
	build := exec.Command("go", "build", "-o", bin, "formext/cmd/formserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building formserve: %v\n%s", err, out)
	}
	endToEnd, perLayer := declared(t)
	cfg := config{Seed: DefaultSeed, Seconds: 2 * time.Second, Smoke: true, Formserve: bin}
	for _, name := range []string{"crawl", "serve-inproc", "serve", "query"} {
		cfg.Workload = name
		r, err := workloads[name](cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Attempted == 0 || r.Failed != 0 || len(r.Problems) != 0 {
			t.Errorf("%s: attempted %d failed %d problems %v", name, r.Attempted, r.Failed, r.Problems)
		}
		sameNames(t, name, names(r), endToEnd)
	}
	var traced report
	rec := newRecorder()
	for _, name := range tracedWorkloads {
		cfg.Workload = name
		r, err := workloads[name](cfg, rec)
		if err != nil {
			t.Fatalf("traced %s: %v", name, err)
		}
		traced.merge(r)
	}
	if traced.Failed != 0 || len(traced.Problems) != 0 {
		t.Errorf("traced: failed %d problems %v", traced.Failed, traced.Problems)
	}
	sameNames(t, "traced run", names(traced), perLayer)
	if len(rec.snapshot()) == 0 {
		t.Error("traced run recorded no spans")
	}
}
