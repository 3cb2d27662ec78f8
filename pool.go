package formext

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// newPooledExtractor builds the pool's miss-path extractors around the
// pool's cached compiled grammar, so a custom GrammarSource is parsed once
// at NewPool rather than on every pool miss. A package variable so tests
// can inject construction failures after NewPool's validation succeeded.
var newPooledExtractor = func(g *Grammar, o Options) (*Extractor, error) {
	return newWithGrammar(g, o)
}

// Pool keeps ready-to-use extractors for one Options value, backed by
// sync.Pool. All pooled extractors share the same compiled grammar and 2P
// schedule (both immutable; the grammar is compiled once at NewPool and
// cached, so misses never re-parse a custom GrammarSource), so Get after a
// warm-up is amortized allocation-free and the pool shrinks under memory
// pressure like any sync.Pool.
//
// Observability composes with pooling: when Options.Tracer is set, every
// pooled extractor records through that one tracer (tracers are safe for
// concurrent use and issue process-unique trace IDs), so a server attaches
// a tracer to the pool once and gets a per-request Trace.
//
// A Pool is safe for concurrent use; it is the serving-path primitive that
// cmd/formserve and ExtractStream build on.
type Pool struct {
	opts Options
	g    *Grammar
	pool sync.Pool
	// cache and keyPrefix are copied from the validation extractor, so the
	// pool consults the cache (when Options.Cache is set) before drawing an
	// extractor at all: a hit (or a coalesced wait) costs no pool traffic
	// and no pipeline work. keyPrefix is always populated — ExtractKeyBytes
	// routes by it with or without a cache.
	cache     *Cache
	keyPrefix [32]byte
}

// NewPool validates the options by building one extractor and returns a
// pool keyed to them. The validation extractor primes the pool, and its
// compiled grammar is cached for every later construction.
func NewPool(opts ...Options) (*Pool, error) {
	var o Options
	if len(opts) > 1 {
		return nil, fmt.Errorf("formext: at most one Options value")
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	ex, err := New(o)
	if err != nil {
		return nil, err
	}
	p := &Pool{opts: o, g: ex.Grammar(), cache: ex.cache, keyPrefix: ex.keyPrefix}
	p.pool.Put(ex)
	return p, nil
}

// Options returns the options every pooled extractor is built with.
func (p *Pool) Options() Options { return p.opts }

// Get returns a ready extractor, constructing one only when the pool is
// empty. Return it with Put when done.
func (p *Pool) Get() (*Extractor, error) {
	if v := p.pool.Get(); v != nil {
		return v.(*Extractor), nil
	}
	return newPooledExtractor(p.g, p.opts)
}

// Put returns an extractor to the pool. Only extractors obtained from Get
// on the same pool may be returned: a foreign extractor built with other
// options would poison every later Get. Putting nil is a no-op.
func (p *Pool) Put(ex *Extractor) {
	if ex == nil {
		return
	}
	p.pool.Put(ex)
}

// ExtractBytes runs the full pipeline on a page using a pooled extractor
// (Get, Extractor.ExtractBytes, Put), with the cancellation, partial-result
// and budget semantics of Extractor.ExtractBytes and its aliasing contract:
// the result (and any cache holding it) reads src in place, so the buffer
// must not be modified afterwards.
//
// It is also a containment boundary: an extraction that panics (a
// *PanicError from the pipeline, or a raw panic escaping it) never returns
// its extractor to the pool — a panic mid-parse can leave the extractor's
// internals torn, and reusing it would poison an unrelated later request.
// The extractor is abandoned to the collector and the pool stays healthy.
//
// With Options.Cache set, the cache is consulted before any extractor is
// drawn: hits and coalesced requests return a shared frozen result without
// touching the pool, and only the flight leader of a miss checks an
// extractor out.
func (p *Pool) ExtractBytes(ctx context.Context, src []byte) (*Result, error) {
	if p.cache != nil {
		return cachedExtract(ctx, p.cache, p.keyPrefix, src, p.opts.Tracer, p)
	}
	return p.runExtract(ctx, src, "")
}

// runExtract implements cacheRunner: the uncached pooled extraction.
func (p *Pool) runExtract(ctx context.Context, src []byte, cacheEvent string) (res *Result, err error) {
	ex, gerr := p.Get()
	if gerr != nil {
		return nil, gerr
	}
	healthy := false
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
			return
		}
		if healthy {
			p.Put(ex)
		}
	}()
	res, err = ex.extractBytesEvent(ctx, src, cacheEvent)
	var pe *PanicError
	healthy = !errors.As(err, &pe)
	return res, err
}
