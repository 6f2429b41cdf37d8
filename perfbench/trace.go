package main

import (
	"sort"
	"sync"
	"time"
)

// spanTimes is one measured interval on the monotonic clock.
type spanTimes struct{ t0, t1 time.Time }

func (s *spanTimes) start()            { s.t0 = time.Now() }
func (s *spanTimes) stop()             { s.t1 = time.Now() }
func (s spanTimes) dur() time.Duration { return s.t1.Sub(s.t0) }

// span is one call into a layer, recorded from outside the program.
// Spans of one operation share Op; Parent is the enclosing span's ID
// (0 for an operation's root). A counted span has no clock of its own:
// its duration comes from a counter the layer returns (Result.Elapsed,
// RankStats.CkptPauseTime, a job's wait_nanos, ...), and it is laid out
// from its parent's start, after earlier counted siblings.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	StartS  float64 `json:"start_s"`
	DurS    float64 `json:"dur_s"`
	Counted bool    `json:"counted,omitempty"`
	SelfS   float64 `json:"self_s"`
}

// tracer keeps spans in memory; they are written out with the run
// record when the benchmark ends. Client goroutines of serve_jobs add
// spans concurrently, hence the lock.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// op allocates an operation id.
func (t *tracer) op() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// add records a measured span and returns its id.
func (t *tracer) add(op, parent int, name, layer string, st spanTimes) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		StartS: st.t0.Sub(t.epoch).Seconds(), DurS: st.dur().Seconds()})
	return id
}

// addCounted records a span whose duration a layer counter reports.
func (t *tracer) addCounted(op, parent int, name, layer string, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent-1].StartS
	for _, s := range t.spans {
		if s.Parent == parent && s.Counted {
			start += s.DurS
		}
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		StartS: start, DurS: d.Seconds(), Counted: true})
	return id
}

// setDur sets the duration of a span added before it ended.
func (t *tracer) setDur(id int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].DurS = d.Seconds()
}

// opSpans returns a copy of the spans of one operation.
func (t *tracer) opSpans(op int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// finish computes every span's self time (its duration minus its
// children's, floored at zero) and returns the spans and the total self
// time per layer.
func (t *tracer) finish() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.DurS
	}
	self := map[string]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfS = max(s.DurS-child[s.ID], 0)
		self[s.Layer] += s.SelfS
	}
	out := append([]span(nil), t.spans...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartS < out[j].StartS })
	return out, self
}

// unaccountedFrac is the share of the operations' wall time that no
// layer span covers: for every operation whose root span is named name,
// its duration minus the self time of its other spans, summed and
// divided by the summed duration. It goes negative when layer spans
// overlap (a job's queue wait starts inside its submit request).
func unaccountedFrac(spans []span, name string) float64 {
	roots := map[int]bool{}
	var wall, covered float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == name {
			roots[s.Op] = true
			wall += s.DurS
		}
	}
	for _, s := range spans {
		if roots[s.Op] && s.Parent != 0 {
			covered += s.SelfS
		}
	}
	return ratio(wall-covered, wall)
}
