package formext

// Hostile-page containment tests: the serving-path guarantees of this
// package are that no input — adversarial nesting, token floods,
// pathological tables — and no internal failure — a panic, a blown budget,
// a gone caller — crashes the process or poisons an unrelated extraction.
// Each test here is one of those guarantees; they run under -race in CI.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// deepPage nests divs far past any real page.
func deepPage(depth int) string {
	return strings.Repeat("<div>", depth) + "<form>Author <input type=text name=a></form>" +
		strings.Repeat("</div>", depth)
}

// widePage emits n label/textbox pairs — a token flood.
func widePage(n int) string {
	var b strings.Builder
	b.WriteString("<form>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<p>F%d <input type=text name=f%d></p>", i, i)
	}
	b.WriteString("</form>")
	return b.String()
}

// pathologicalTable nests tables inside table cells, recursively.
func pathologicalTable(depth, rows int) string {
	var build func(d int) string
	build = func(d int) string {
		if d == 0 {
			return "X <input type=text name=q>"
		}
		var b strings.Builder
		b.WriteString("<table>")
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&b, "<tr><td>%s</td></tr>", build(d-1))
		}
		b.WriteString("</table>")
		return b.String()
	}
	return "<form>" + build(depth) + "</form>"
}

// TestHostileDeepNestingSurvives is the end-to-end regression for the seed
// stack overflow: the full pipeline over a 1M-deep page must return a
// result (with a depth-cap degradation) instead of crashing the process.
func TestHostileDeepNestingSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(deepPage(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Degraded) == 0 || !strings.Contains(res.Stats.Degraded[0], "depth") {
		t.Errorf("Degraded = %v, want a depth-cap entry", res.Stats.Degraded)
	}
	// The form's content survives the flattening.
	if len(res.Tokens) == 0 {
		t.Error("no tokens extracted from the flattened page")
	}
}

// TestHostileTokenFloodCapped verifies the token budget: a page tokenizing
// far past MaxTokens is parsed over the capped prefix and says so.
func TestHostileTokenFloodCapped(t *testing.T) {
	ex, err := New(Options{MaxTokens: 200})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(widePage(500))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) != 200 {
		t.Errorf("tokens = %d, want capped at 200", len(res.Tokens))
	}
	found := false
	for _, d := range res.Stats.Degraded {
		found = found || strings.Contains(d, "token count capped")
	}
	if !found {
		t.Errorf("Degraded = %v, want a token-cap entry", res.Stats.Degraded)
	}
	// The capped prefix still yields conditions.
	if len(res.Model.Conditions) == 0 {
		t.Error("no conditions from the capped prefix")
	}
}

// TestHostileHundredThousandTokens runs the 10^5-token flood end to end:
// the front half of the pipeline (parse, layout, tokenize) handles the full
// page in linear time, and the token budget keeps the parser's share
// bounded.
func TestHostileHundredThousandTokens(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ex, err := New(Options{MaxTokens: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(widePage(50_000)) // ~10^5 tokens
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) != 300 {
		t.Errorf("tokens = %d, want capped at 300", len(res.Tokens))
	}
	if len(res.Stats.Degraded) == 0 {
		t.Error("token flood must record a Degraded entry")
	}
	if len(res.Model.Conditions) == 0 {
		t.Error("capped prefix yielded no conditions")
	}
}

// TestHostilePathologicalTable runs the recursive-table shape through the
// default budgets; the point is termination without crash, whatever the
// degradation.
func TestHostilePathologicalTable(t *testing.T) {
	ex, err := New(Options{MaxTokens: 500, ParseBudget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(pathologicalTable(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Model == nil {
		t.Fatal("pathological table produced no result")
	}
}

// TestParseBudgetDegradesWithoutError pins the budget-vs-deadline
// distinction: an expired ParseBudget is not an error — the partial result
// comes back with Degraded entries and a nil error.
func TestParseBudgetDegradesWithoutError(t *testing.T) {
	ex, err := New(Options{ParseBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML(widePage(3000))
	if err != nil {
		t.Fatalf("budget expiry must not error, got %v", err)
	}
	if len(res.Stats.Degraded) == 0 {
		t.Fatal("budget expiry must record Degraded entries")
	}
	for _, d := range res.Stats.Degraded {
		if strings.Contains(d, "cancelled") {
			t.Errorf("budget expiry misclassified as cancellation: %v", res.Stats.Degraded)
		}
	}
}

// TestCancelledCallerGetsPartialResultAndError pins the other side: caller
// cancellation is an error (nobody is waiting for the answer), but the
// partial result still comes back for diagnosis.
func TestCancelledCallerGetsPartialResultAndError(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ex.ExtractBytes(ctx, []byte(widePage(3000)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled extraction must return the partial result")
	}
	found := false
	for _, d := range res.Stats.Degraded {
		found = found || strings.Contains(d, "cancelled")
	}
	if !found {
		t.Errorf("Degraded = %v, want a cancellation entry", res.Stats.Degraded)
	}
}

// TestPanicBecomesPanicError injects a panic into a pipeline stage and
// verifies the facade's containment: a typed *PanicError with the stack and
// the stats accumulated before the failure, not a crashed test binary.
func TestPanicBecomesPanicError(t *testing.T) {
	orig := stageHook
	stageHook = func(stage string) {
		if stage == "parse" {
			panic("injected parse-stage fault")
		}
	}
	t.Cleanup(func() { stageHook = orig })

	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExtractHTML("<form>Author <input type=text name=a></form>")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), "injected parse-stage fault") {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack empty")
	}
	if pe.Stats.Stages.HTMLParse == 0 {
		t.Error("PanicError.Stats lost the pre-failure stage timings")
	}
	if res == nil || len(res.Tokens) == 0 {
		t.Error("partial result (tokens before the panic) lost")
	}
}

// TestPoolDropsPoisonedExtractor verifies the pool boundary: the extractor
// serving a panicking extraction is abandoned, and the pool keeps serving.
func TestPoolDropsPoisonedExtractor(t *testing.T) {
	var arm bool
	orig := stageHook
	stageHook = func(stage string) {
		if arm && stage == "parse" {
			arm = false
			panic("injected pool fault")
		}
	}
	t.Cleanup(func() { stageHook = orig })

	pool, err := NewPool()
	if err != nil {
		t.Fatal(err)
	}
	arm = true
	_, err = pool.ExtractBytes(context.Background(), []byte("<form>A <input type=text name=a></form>"))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError from the armed extraction, got %v", err)
	}
	// The pool must still serve after dropping the poisoned extractor.
	res, err := pool.ExtractBytes(context.Background(), []byte("<form>B <input type=text name=b></form>"))
	if err != nil || len(res.Model.Conditions) == 0 {
		t.Fatalf("pool did not recover after a contained panic: %v", err)
	}
}

// TestPoolCachesCompiledGrammar is the regression test for the miss-path
// re-parse: every extractor a pool constructs must share the one grammar
// compiled at NewPool, custom DSL included.
func TestPoolCachesCompiledGrammar(t *testing.T) {
	pool, err := NewPool(Options{GrammarSource: DefaultGrammarSource()})
	if err != nil {
		t.Fatal(err)
	}
	// Drain the pool so the second Get is a construction miss.
	ex1, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if ex1.Grammar() != ex2.Grammar() {
		t.Error("pool miss compiled a fresh grammar instead of reusing the cached one")
	}
	pool.Put(ex1)
	pool.Put(ex2)
}

// TestExtractAllCancelledContext verifies stream cancellation: a batch
// streamed under an already-cancelled context fails every page it reports
// with the context's error, and the stream closes instead of hanging.
// (The name predates the removal of the fixed-slice batch wrapper.)
func TestExtractAllCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pages := []string{widePage(5), widePage(5), widePage(5)}
	for i, pr := range extractAll(t, ctx, pages, StreamOptions{Workers: 2}) {
		if pr == nil {
			continue // shed by the cancelled stream: charged to the cancellation
		}
		if !errors.Is(pr.Err, context.Canceled) || pr.Result != nil {
			t.Errorf("page %d = %v / %v, want context.Canceled and no result", i, pr.Err, pr.Result)
		}
	}
}

// TestExtractAllContainsPanickingPage verifies the worker boundary: one
// panicking page is reported as a *PanicError while every other page in the
// batch extracts normally.
func TestExtractAllContainsPanickingPage(t *testing.T) {
	orig := extractPage
	extractPage = func(ctx context.Context, ex *Extractor, src string) (*Result, error) {
		if strings.Contains(src, "bomb") {
			panic("injected page bomb")
		}
		return ex.ExtractBytes(ctx, []byte(src))
	}
	t.Cleanup(func() { extractPage = orig })

	pages := []string{
		"<form>A <input type=text name=a></form>",
		"<form>bomb <input type=text name=b></form>",
		"<form>C <input type=text name=c></form>",
	}
	got := extractAll(t, context.Background(), pages, StreamOptions{Workers: 2})
	var pe *PanicError
	if got[1] == nil || !errors.As(got[1].Err, &pe) {
		t.Fatalf("bombed page = %+v, want a *PanicError", got[1])
	}
	for _, i := range []int{0, 2} {
		if got[i] == nil || got[i].Err != nil || got[i].Result == nil {
			t.Errorf("healthy page %d lost to the bombed page: %+v", i, got[i])
		}
	}
}

// TestExtractTokensRejectsMalformedSets is the regression test for the
// token-validation panics: nil entries and non-dense IDs must come back as
// descriptive errors, never as crashes.
func TestExtractTokensRejectsMalformedSets(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	good, err := ex.ExtractHTML("<form>Author <input type=text name=a></form>")
	if err != nil {
		t.Fatal(err)
	}
	toks := good.Tokens

	cases := []struct {
		name string
		mut  func([]*Token) []*Token
	}{
		{"nil entry", func(ts []*Token) []*Token {
			out := append([]*Token(nil), ts...)
			out[0] = nil
			return out
		}},
		{"sparse ids", func(ts []*Token) []*Token {
			out := make([]*Token, len(ts))
			for i, tk := range ts {
				c := *tk
				c.ID = i * 2
				out[i] = &c
			}
			return out
		}},
		{"duplicate ids", func(ts []*Token) []*Token {
			out := make([]*Token, len(ts))
			for i, tk := range ts {
				c := *tk
				c.ID = 0
				out[i] = &c
			}
			return out
		}},
	}
	for _, tc := range cases {
		_, err := ex.ExtractTokens(tc.mut(toks))
		if err == nil {
			t.Errorf("%s: want a validation error", tc.name)
		} else if !strings.Contains(err.Error(), "token") {
			t.Errorf("%s: undiagnostic error %q", tc.name, err)
		}
	}
	// The pristine set still extracts.
	if _, err := ex.ExtractTokens(toks); err != nil {
		t.Errorf("valid token set rejected: %v", err)
	}
}

// TestConcurrentHostileAndHealthy runs hostile and healthy extractions
// concurrently through one pool: containment on one goroutine must not
// perturb the others.
func TestConcurrentHostileAndHealthy(t *testing.T) {
	pool, err := NewPool(Options{ParseBudget: 50 * time.Millisecond, MaxTokens: 300})
	if err != nil {
		t.Fatal(err)
	}
	hostile := widePage(2000)
	healthy := "<form>Author <input type=text name=a></form>"
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		src := healthy
		if i%2 == 0 {
			src = hostile
		}
		go func(src string) {
			res, err := pool.ExtractBytes(context.Background(), []byte(src))
			if err != nil {
				done <- err
				return
			}
			if res == nil || res.Model == nil {
				done <- errors.New("nil result")
				return
			}
			done <- nil
		}(src)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Errorf("concurrent extraction %d: %v", i, err)
		}
	}
}
