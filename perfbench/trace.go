package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// spanSoftCap bounds the traced phase: it ends at the first pass boundary
// after this many spans, so a fast workload cannot grow the span buffer
// without limit.
const spanSoftCap = 200_000

// span is one timed call. Spans of one op share the op's index; the op's
// root span has parent -1 and every layer span below it names its parent
// by position in the tracer's span list.
type span struct {
	name       string
	op         int32
	parent     int32
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer records spans in memory during the traced phase; they are
// written out once the run ends. It is single-goroutine, like the ops it
// wraps.
type tracer struct {
	epoch      time.Time
	spans      []span
	cur        int32 // innermost open span, -1 outside any op
	opSeq      int32 // ops traced so far; the current op's identifier
	mismatches int   // ops whose decomposition disagreed with the real call
	mismatched bool

	// allocs counts heap allocations inside spans opened with callAlloc,
	// by span name.
	allocs map[string]uint64
	ms     runtime.MemStats
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, spanSoftCap+spanSoftCap/4),
		cur:    -1,
		allocs: map[string]uint64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// op runs one traced op under a root span named "op".
func (t *tracer) op(fn func() error) error {
	t.opSeq++
	t.mismatched = false
	id := t.begin("op")
	err := fn()
	t.end(id)
	if t.mismatched {
		t.mismatches++
	}
	return err
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, op: t.opSeq, parent: t.cur, start: t.now()})
	t.cur = id
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	t.spans[id].end = t.now()
	t.cur = t.spans[id].parent
}

// call wraps fn in a span.
func (t *tracer) call(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// callAlloc wraps fn in a span and counts the heap allocations it makes.
// The two heap-statistics reads sit outside the span's interval.
func (t *tracer) callAlloc(name string, fn func()) {
	runtime.ReadMemStats(&t.ms)
	before := t.ms.Mallocs
	t.call(name, fn)
	runtime.ReadMemStats(&t.ms)
	t.allocs[name] += t.ms.Mallocs - before
}

// mismatch marks the current op's decomposition as disagreeing with the
// real call.
func (t *tracer) mismatch() { t.mismatched = true }

// layerTotals are one span name's accumulated durations.
type layerTotals struct {
	count int
	total time.Duration
}

// totals aggregates the spans by name.
func (t *tracer) totals() map[string]*layerTotals {
	out := map[string]*layerTotals{}
	for _, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.name] = lt
		}
		lt.count++
		lt.total += time.Duration(s.end - s.start)
	}
	return out
}

// us is a layer's total time in microseconds per n, 0 when absent.
func us(tot map[string]*layerTotals, name string, n int) float64 {
	lt := tot[name]
	if lt == nil || n == 0 {
		return 0
	}
	return float64(lt.total.Nanoseconds()) / 1e3 / float64(n)
}

// usPerCall is a layer's mean span time in microseconds, 0 when absent.
func usPerCall(tot map[string]*layerTotals, name string) float64 {
	if lt := tot[name]; lt != nil {
		return us(tot, name, lt.count)
	}
	return 0
}

// write stores the spans as JSON lines in dir, one file per workload, and
// returns the file's path.
func (t *tracer) write(dir, workload string) (string, error) {
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(bw, `{"id":%d,"op":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.op, s.parent, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
