package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program:
// its name (the layer function or endpoint), its interval as offsets from
// the recorder's start, the span that caused it (0 for a root) and the
// request or page it belongs to. Spans of one request share Req.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps every span of a traced run in memory; write puts them on
// disk once the run is over, so recording costs a clock read and an
// append, never I/O.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span ID, so children can name a parent that has not
// finished yet.
func (r *recorder) id() int64 { return r.nextID.Add(1) }

// add records a finished span under a reserved ID (0 reserves one) and
// returns the ID.
func (r *recorder) add(id, parent, req int64, name string, start, end time.Time) int64 {
	if id == 0 {
		id = r.id()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(r.t0), End: end.Sub(r.t0)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the durations, in milliseconds, of every span named
// name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes maps each span ID to its self time: the span's duration minus
// the part of its interval that its children cover. Overlapping children
// (concurrent calls under one parent) are counted once; children are
// clipped to the parent's interval.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// spanLine is one span as written out, with its self time.
type spanLine struct {
	span
	Self time.Duration `json:"self_ns"`
}

// writeSpans saves spans as JSON lines, each with its self time, preceded
// by one header line carrying the run's stamp.
func writeSpans(path string, stamp map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"stamp": stamp, "spans": len(spans)}); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if err := enc.Encode(spanLine{s, self[s.ID]}); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
