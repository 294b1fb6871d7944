package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a module's public function, recorded from
// the benchmark's side of the call.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // the op the call belongs to
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. It is safe for
// concurrent use: the serving workload records from several clients.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, op, parent int, fn func()) time.Duration {
	id := t.begin(name, op, parent)
	fn()
	return t.end(id)
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summary returns, per span name, the call count, total time and self
// time: a span's duration minus the part of it its children cover.
func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	by := map[string]*spanSummary{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		self := d - covered(t.spans, children[i], s.Start, s.End)
		agg := by[s.Name]
		if agg == nil {
			agg = &spanSummary{Name: s.Name}
			by[s.Name] = agg
		}
		agg.Count++
		agg.TotalMs += float64(d) / 1e6
		agg.SelfMs += float64(self) / 1e6
	}
	out := make([]spanSummary, 0, len(by))
	for _, s := range by {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi]. Children of one span may overlap when they ran on several
// goroutines.
func covered(spans []span, kids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		s := spans[k]
		if s.End < 0 {
			continue
		}
		ivs = append(ivs, iv{max(s.Start, lo), min(s.End, hi)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if v.b <= v.a {
			continue
		}
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores every span and the per-name summary as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sum := t.summary()
	t.mu.Lock()
	raw, err := json.Marshal(map[string]any{"summary": sum, "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
