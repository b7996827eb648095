package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Every span of one operation
// carries the operation's id; parent is the index of the enclosing span in
// the same trace, or -1 for the operation's root span.
type span struct {
	name       string
	op         int32
	parent     int32
	client     int32
	start, end int64 // nanoseconds since the trace began
}

// tracer keeps the spans of one traced phase in memory. Spans are appended
// under a mutex because decorators record from the builder's worker
// goroutines while the operation's own goroutine waits in Build.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// close stamps a span's end and returns its parent.
func (t *tracer) close(i int32, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = end
	return t.spans[i].parent
}

// opTrace records the spans of one operation. A nil *opTrace is the
// untraced case: every method is a no-op, so workloads call them
// unconditionally.
type opTrace struct {
	tr     *tracer
	op     int32
	client int32
	// cur is the innermost span open on the operation's own goroutine;
	// decorator spans recorded from other goroutines hang under it. Only
	// the operation's goroutine writes it, and only while no decorator of
	// the operation runs.
	cur int32
}

// begin opens a span under the innermost open one and makes it current.
func (o *opTrace) begin(name string) int32 {
	if o == nil {
		return -1
	}
	i := o.tr.add(span{name: name, op: o.op, parent: o.cur, client: o.client, start: o.tr.now()})
	o.cur = i
	return i
}

// end closes a span begun by begin and restores its parent as current.
func (o *opTrace) end(i int32) {
	if o == nil {
		return
	}
	o.cur = o.tr.close(i, o.tr.now())
}

// mark returns the start stamp for a leaf span.
func (o *opTrace) mark() int64 {
	if o == nil {
		return 0
	}
	return o.tr.now()
}

// leaf records a completed span that started at the given mark, under the
// span currently open on the operation's goroutine.
func (o *opTrace) leaf(name string, start int64) {
	if o == nil {
		return
	}
	o.tr.add(span{name: name, op: o.op, parent: o.cur, client: o.client, start: start, end: o.tr.now()})
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls int
	total time.Duration
	self  time.Duration
}

// traceStats is what the per-layer table reports from one traced phase.
type traceStats struct {
	layers map[string]*layerStat
	// covered and opTime sum, over every operation's root span, the part
	// of its interval its child spans cover and its whole duration.
	covered, opTime time.Duration
	spans           int
}

// analyze computes each layer's total and self time: a span's self time
// is its duration minus the union of its children's intervals, so
// children running in parallel are not subtracted twice.
func analyze(spans []span) traceStats {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	st := traceStats{layers: make(map[string]*layerStat), spans: len(spans)}
	for i, s := range spans {
		dur := time.Duration(s.end - s.start)
		cover := time.Duration(unionLength(spans, kids[i], s.start, s.end))
		l := st.layers[s.name]
		if l == nil {
			l = &layerStat{}
			st.layers[s.name] = l
		}
		l.calls++
		l.total += dur
		l.self += dur - cover
		if s.parent < 0 {
			st.covered += cover
			st.opTime += dur
		}
	}
	return st
}

// unionLength measures the union of the given spans' intervals clipped to
// [lo, hi].
func unionLength(spans []span, idx []int32, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, k := range idx {
		a, b := max(spans[k].start, lo), min(spans[k].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and about:tracing open offline.
func writeChromeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		name, _ := json.Marshal(s.name)
		fmt.Fprintf(w, `{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"op":%d,"parent":%d}}`,
			name, s.client+1, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.op, s.parent)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
