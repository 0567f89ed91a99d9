package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// tracer records the traced run: one span around every public layer call
// a workload makes, the Go allocation delta across it, and the counts the
// workload reads at the same boundaries. A nil *tracer is the untraced
// mode — every method is a no-op, so the end-to-end runs pay only a nil
// check per boundary.
type tracer struct {
	t0    time.Time
	op    int
	open  []int // indices of the spans still open, innermost last
	spans []span

	layers map[string]*layerStat
	counts map[string]float64
}

// span is one recorded layer call. Spans of one op share Op; Parent is
// the index of the enclosing span in the same op, or -1.
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	AllocB  uint64  `json:"alloc_bytes"`
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	wall   time.Duration
	allocB uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layers: make(map[string]*layerStat), counts: make(map[string]float64)}
}

func noop() {}

// setOp tags the spans that follow with op id i.
func (t *tracer) setOp(i int) {
	if t != nil {
		t.op = i
	}
}

// span opens a span named name and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return noop
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent})
	t.open = append(t.open, idx)
	a0 := totalAlloc()
	start := time.Now()
	return func() {
		end := time.Now()
		alloc := totalAlloc() - a0
		s := &t.spans[idx]
		s.StartUS = float64(start.Sub(t.t0).Nanoseconds()) / 1e3
		s.EndUS = float64(end.Sub(t.t0).Nanoseconds()) / 1e3
		s.AllocB = alloc
		t.open = t.open[:len(t.open)-1]
		ls := t.layers[name]
		if ls == nil {
			ls = &layerStat{}
			t.layers[name] = ls
		}
		ls.wall += end.Sub(start)
		ls.allocB += alloc
	}
}

// add accumulates a count read at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// layer returns the aggregate of the spans named name (zero when none).
func (t *tracer) layer(name string) layerStat {
	if ls := t.layers[name]; ls != nil {
		return *ls
	}
	return layerStat{}
}

// write stores the span timeline as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
