// Command formext extracts the semantic model of an HTML query form: the
// query conditions [attribute; operators; domain] it supports.
//
// Usage:
//
//	formext [flags] [file.html ...]
//
// With no file argument, HTML is read from standard input. With several
// files, the pages are extracted concurrently through the streaming path;
// a "== file ==" header precedes each page's output, in argument order,
// and byte-identical files in flight together are extracted once and share
// the result (marked "coalesced" in -stats output).
//
//	-json            emit the semantic model as JSON instead of text
//	-tokens          also list the tokenized form
//	-trees           also dump the maximal parse trees
//	-stats           also print parser statistics
//	-trace FILE      write a JSON trace of the extraction to FILE ("-" = stdout)
//	-grammar FILE    parse against a custom 2P grammar (DSL source)
//	-explain N       explain how token N was interpreted
//	-print-grammar   print the embedded derived grammar and exit
//	-budget D        wall-clock parse budget (e.g. 2s); expiry degrades to a
//	                 partial result instead of failing
//	-max-depth N     HTML nesting cap (0 = default, -1 = unlimited)
//	-max-tokens N    token-count cap (0 = default, -1 = unlimited)
//
// Budget or cap degradations are listed on standard error, one line each,
// and the exit status stays 0: a degraded extraction is still the
// best-effort answer.
//
// The trace is one JSON object per extraction: a span tree with one child
// per pipeline stage (htmlparse, layout, tokenize, parse, merge) carrying
// per-stage timings, structured attributes (token counts, instances
// created, prunes) and events (preference prunes, merge conflicts).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"formext"
)

// cliOptions collects the command's flags so run stays testable without a
// positional-boolean signature.
type cliOptions struct {
	asJSON       bool
	showTokens   bool
	showTrees    bool
	showStats    bool
	grammarFile  string
	printGrammar bool
	explain      int
	traceFile    string // "-" = stdout
	budget       time.Duration
	maxDepth     int
	maxTokens    int
}

func main() {
	var o cliOptions
	flag.BoolVar(&o.asJSON, "json", false, "emit the semantic model as JSON")
	flag.BoolVar(&o.showTokens, "tokens", false, "list the tokenized form")
	flag.BoolVar(&o.showTrees, "trees", false, "dump the maximal parse trees")
	flag.BoolVar(&o.showStats, "stats", false, "print parser statistics")
	flag.StringVar(&o.grammarFile, "grammar", "", "custom 2P grammar DSL file")
	flag.BoolVar(&o.printGrammar, "print-grammar", false, "print the embedded derived grammar and exit")
	flag.IntVar(&o.explain, "explain", -1, "explain how the given token id was interpreted")
	flag.StringVar(&o.traceFile, "trace", "", "write a JSON trace of the extraction to `file` (\"-\" = stdout)")
	flag.DurationVar(&o.budget, "budget", 0, "wall-clock parse budget; expiry degrades to a partial result (0 = none)")
	flag.IntVar(&o.maxDepth, "max-depth", 0, "HTML nesting cap (0 = default, negative = unlimited)")
	flag.IntVar(&o.maxTokens, "max-tokens", 0, "token-count cap (0 = default, negative = unlimited)")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "formext:", err)
		os.Exit(1)
	}
}

func run(o cliOptions, args []string) error {
	if o.printGrammar {
		fmt.Print(formext.DefaultGrammarSource())
		return nil
	}

	opts := formext.Options{
		ParseBudget: o.budget,
		MaxDepth:    o.maxDepth,
		MaxTokens:   o.maxTokens,
	}
	if o.grammarFile != "" {
		src, err := os.ReadFile(o.grammarFile)
		if err != nil {
			return err
		}
		opts.GrammarSource = string(src)
	}
	if o.traceFile != "" {
		w := io.Writer(os.Stdout)
		if o.traceFile != "-" {
			f, err := os.Create(o.traceFile)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		opts.Tracer = formext.NewTracer(formext.NewJSONLSink(w))
	}
	// Built before the multi-file branch too, so a bad grammar fails up
	// front instead of once per page.
	ex, err := formext.New(opts)
	if err != nil {
		return err
	}
	if len(args) > 1 {
		return runBatch(o, opts, args)
	}

	var src []byte
	switch len(args) {
	case 0:
		if src, err = io.ReadAll(os.Stdin); err != nil {
			return err
		}
	case 1:
		if src, err = os.ReadFile(args[0]); err != nil {
			return err
		}
	}

	res, err := ex.ExtractHTML(string(src))
	if err != nil {
		return err
	}
	return printResult(o, res)
}

// runBatch extracts several files through ExtractStream: pages run
// concurrently, and every page's output appears under its own header in
// argument order (results are collected by Seq, which is the argument
// index because the files are fed in order).
func runBatch(o cliOptions, opts formext.Options, args []string) error {
	pages := make([]string, len(args))
	for i, name := range args {
		src, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		pages[i] = string(src)
	}
	in := make(chan formext.Page)
	go func() {
		defer close(in)
		for _, page := range pages {
			in <- formext.Page{HTML: page}
		}
	}()
	results := make([]formext.PageResult, len(args))
	for pr := range formext.ExtractStream(context.Background(), in, formext.StreamOptions{Options: opts}) {
		results[pr.Seq] = pr
	}
	failed := 0
	for i, pr := range results {
		fmt.Printf("== %s ==\n", args[i])
		if pr.Err != nil {
			fmt.Fprintf(os.Stderr, "formext: %s: %v\n", args[i], pr.Err)
			failed++
			continue
		}
		if perr := printResult(o, pr.Result); perr != nil {
			return perr
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d pages failed", failed, len(args))
	}
	return nil
}

// printResult renders one extraction according to the output flags.
func printResult(o cliOptions, res *formext.Result) error {
	for _, d := range res.Stats.Degraded {
		fmt.Fprintln(os.Stderr, "formext: degraded:", d)
	}

	if o.showTokens {
		fmt.Println("tokens:")
		for _, t := range res.Tokens {
			fmt.Println("  ", t)
		}
	}
	if o.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Model); err != nil {
			return err
		}
	} else {
		fmt.Printf("conditions (%d):\n", len(res.Model.Conditions))
		for _, c := range res.Model.Conditions {
			fmt.Println("  ", c.String())
			if len(c.Fields) > 0 {
				fmt.Println("     fields:", c.Fields)
			}
		}
		for _, k := range res.Model.Conflicts {
			a := res.Model.Conditions[k.Conditions[0]].Attribute
			b := res.Model.Conditions[k.Conditions[1]].Attribute
			fmt.Printf("conflict: token %d claimed by %q and %q\n", k.TokenID, a, b)
		}
		for _, id := range res.Model.Missing {
			fmt.Printf("missing element: token %d (%s)\n", id, res.Tokens[id])
		}
	}
	if o.showTrees {
		fmt.Printf("maximal parse trees (%d):\n", len(res.Trees))
		for i, tr := range res.Trees {
			fmt.Printf("--- tree %d: %s over %d tokens ---\n", i, tr.Sym, tr.Cover.Count())
			fmt.Print(tr.Dump())
		}
	}
	if o.explain >= 0 {
		fmt.Print(res.Explain(o.explain))
	}
	if o.showStats {
		s := res.Stats
		fmt.Printf("stats: %d tokens, %d instances created, %d pruned, %d rolled back, %d alive, %d complete parses, %d fix-point rounds, %v\n",
			s.Tokens, s.TotalCreated, s.Pruned, s.RolledBack, s.Alive, s.CompleteParses, s.FixpointIters, s.Duration)
		fmt.Printf("stages: %s\n", s.Stages)
		if s.Coalesced {
			fmt.Println("coalesced: shares an identical page's extraction")
		}
		if s.CacheHit {
			fmt.Println("cache: hit")
		}
		if s.TraceID != "" {
			fmt.Printf("trace: %s\n", s.TraceID)
		}
	}
	return nil
}
