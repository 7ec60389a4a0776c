package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// spanID indexes a tracer's per-name aggregates.
type spanID int

// rawSpan is one recorded span of a sampled iteration. Spans of one
// iteration share Trace; Parent names the span that caused this one.
type rawSpan struct {
	Trace  int64  `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans around calls into the system's layers. It
// keeps one (calls, total ns) aggregate per span name, so its memory
// does not grow with run length, and raw spans only for iterations
// whose index is a multiple of sampleEvery, capped at maxRaw. Sampling
// by index, never by a random draw, leaves the workload's RNG streams
// untouched and makes the sampled set the same for every run.
//
// A tracer is used from one goroutine at a time; spans recorded on
// another goroutine go through a lockedTracer.
type tracer struct {
	base        time.Time
	names       []string
	parents     []string
	calls       []int64
	ns          []int64
	sampleEvery int64
	maxRaw      int
	raw         []rawSpan
}

func newTracer(sampleEvery int64, maxRaw int) *tracer {
	return &tracer{base: time.Now(), sampleEvery: sampleEvery, maxRaw: maxRaw}
}

// span registers a span name and the name of its parent span.
func (t *tracer) span(name, parent string) spanID {
	t.names = append(t.names, name)
	t.parents = append(t.parents, parent)
	t.calls = append(t.calls, 0)
	t.ns = append(t.ns, 0)
	return spanID(len(t.names) - 1)
}

// now is the tracer clock: monotonic nanoseconds since the tracer
// was made.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records one span of iteration iter from start to end.
func (t *tracer) add(id spanID, iter, start, end int64) {
	t.calls[id]++
	t.ns[id] += end - start
	if iter%t.sampleEvery != 0 {
		return
	}
	if len(t.raw) < t.maxRaw {
		t.raw = append(t.raw, rawSpan{Trace: iter, Span: t.names[id], Parent: t.parents[id], Start: start, End: end})
	}
}

// total returns a span's call count and summed duration.
func (t *tracer) total(id spanID) (calls, ns int64) { return t.calls[id], t.ns[id] }

// writeRaw writes the sampled raw spans as JSON lines.
func (t *tracer) writeRaw(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.raw {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// lockedTracer lets a second goroutine (the hub's HTTP handler) record
// into a tracer whose owner goroutine reads it only after that
// goroutine's work is done.
type lockedTracer struct {
	mu sync.Mutex
	t  *tracer
}

func (l *lockedTracer) add(id spanID, iter, start, end int64) {
	l.mu.Lock()
	l.t.add(id, iter, start, end)
	l.mu.Unlock()
}

// runtimeSample is a reading of the runtime/metrics the benchmark
// reports per layer.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2)}
}

// runtimeAcc sums runtime/metrics deltas over bracketed intervals.
type runtimeAcc runtimeSample

func (a *runtimeAcc) addSince(before runtimeSample) {
	after := readRuntime()
	a.gcCPU += after.gcCPU - before.gcCPU
	a.totalCPU += after.totalCPU - before.totalCPU
	a.allocBytes += after.allocBytes - before.allocBytes
}

// layers records the runtime per-layer metrics for ops operations.
func (a *runtimeAcc) layers(r *result, ops int) {
	if a.totalCPU > 0 {
		r.layer("runtime.gc_cpu_share", a.gcCPU/a.totalCPU)
	}
	if ops > 0 {
		r.layer("runtime.alloc_bytes_per_op", a.allocBytes/float64(ops))
	}
}
