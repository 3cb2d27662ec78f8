package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `<form action="/s"><table>
<tr><td>Author</td><td><input type="text" name="a" size="30"></td></tr>
<tr><td>Format</td><td><select name="f"><option>Hard</option><option>Soft</option></select></td></tr>
</table></form>`

// withFile writes content to a temp file and returns its path.
func withFile(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "form.html")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// capture redirects stdout around fn and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		done <- string(out)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func TestRunTextOutput(t *testing.T) {
	p := withFile(t, sample)
	out, err := capture(t, func() error {
		return run(cliOptions{showStats: true, explain: -1}, []string{p})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"conditions (2):", "[Author; {}; text]", "stats:"} {
		if !contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	p := withFile(t, sample)
	out, err := capture(t, func() error {
		return run(cliOptions{asJSON: true, explain: -1}, []string{p})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"conditions"`, `"attribute": "Author"`} {
		if !contains(out, want) {
			t.Errorf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestRunTreesTokensExplain(t *testing.T) {
	p := withFile(t, sample)
	out, err := capture(t, func() error {
		return run(cliOptions{showTokens: true, showTrees: true, explain: 1}, []string{p})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tokens:", "maximal parse trees", "token t1:"} {
		if !contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPrintGrammar(t *testing.T) {
	out, err := capture(t, func() error {
		return run(cliOptions{printGrammar: true, explain: -1}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "start QI;") || !contains(out, "pref Q1") {
		t.Errorf("grammar dump wrong:\n%.200s", out)
	}
}

func TestRunCustomGrammar(t *testing.T) {
	gp := filepath.Join(t.TempDir(), "g.2p")
	g := `terminals text, textbox; start QI;
prod QI -> c:TextVal ;
prod TextVal -> a:Attr v:Val : left(a, v);
prod Attr -> t:text : attrlike(t);
prod Val -> b:textbox ;
tag condition TextVal; tag attribute Attr;`
	if err := os.WriteFile(gp, []byte(g), 0o644); err != nil {
		t.Fatal(err)
	}
	p := withFile(t, `<form>Name <input type=text name=n></form>`)
	out, err := capture(t, func() error {
		return run(cliOptions{grammarFile: gp, explain: -1}, []string{p})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, "[Name; {}; text]") {
		t.Errorf("custom grammar output:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(cliOptions{explain: -1}, []string{"a", "b"}); err == nil {
		t.Error("two files should error")
	}
	if err := run(cliOptions{grammarFile: "/nonexistent.2p", explain: -1}, nil); err == nil {
		t.Error("missing grammar file should error")
	}
	if err := run(cliOptions{explain: -1}, []string{"/nonexistent.html"}); err == nil {
		t.Error("missing input file should error")
	}
	bad := withFile(t, "terminals text; start Broken;")
	page := withFile(t, sample)
	out, err := capture(t, func() error {
		return run(cliOptions{grammarFile: bad, explain: -1}, []string{page, page})
	})
	if err == nil || out != "" {
		t.Errorf("invalid grammar with several files: err %v, output %q; want an error before any output", err, out)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestRunMultiFile checks multi-file mode: each page's output appears under
// its own header in argument order, and a duplicate file prints exactly
// what its original prints — which is also what a single-file run prints.
func TestRunMultiFile(t *testing.T) {
	other := `<form>Title <input type="text" name="t"></form>`
	a, b, dup := withFile(t, sample), withFile(t, other), withFile(t, sample)
	single := func(p string) string {
		out, err := capture(t, func() error { return run(cliOptions{explain: -1}, []string{p}) })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out, err := capture(t, func() error {
		return run(cliOptions{explain: -1}, []string{a, b, dup})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "== " + a + " ==\n" + single(a) +
		"== " + b + " ==\n" + single(b) +
		"== " + dup + " ==\n" + single(a)
	if out != want {
		t.Errorf("multi-file output:\n%s\nwant:\n%s", out, want)
	}
}

// TestRunTrace checks that -trace writes one JSON object whose span tree
// covers every pipeline stage, with the parse span carrying the parser's
// internal counters.
func TestRunTrace(t *testing.T) {
	p := withFile(t, sample)
	tp := filepath.Join(t.TempDir(), "trace.json")
	if _, err := capture(t, func() error {
		return run(cliOptions{traceFile: tp, explain: -1}, []string{p})
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tp)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceID string `json:"traceId"`
		Name    string `json:"name"`
		DurUs   int64  `json:"durUs"`
		Root    struct {
			Name     string `json:"name"`
			Children []struct {
				Name  string           `json:"name"`
				Attrs map[string]int64 `json:"attrs"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
	}
	if tr.TraceID == "" || tr.Name != "extract" {
		t.Errorf("trace envelope wrong: id=%q name=%q", tr.TraceID, tr.Name)
	}
	got := map[string]bool{}
	for _, c := range tr.Root.Children {
		got[c.Name] = true
		if c.Name == "parse" && c.Attrs["instances"] == 0 {
			t.Error("parse span has no instances attribute")
		}
	}
	for _, stage := range []string{"htmlparse", "layout", "tokenize", "parse", "merge"} {
		if !got[stage] {
			t.Errorf("trace missing stage span %q (have %v)", stage, got)
		}
	}
}

// TestRunTraceStdout checks the "-" target and that the trace coexists
// with normal output.
func TestRunTraceStdout(t *testing.T) {
	p := withFile(t, sample)
	out, err := capture(t, func() error {
		return run(cliOptions{traceFile: "-", showStats: true, explain: -1}, []string{p})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !contains(out, `"traceId"`) || !contains(out, "trace: ") {
		t.Errorf("stdout trace output missing:\n%s", out)
	}
}
