// Command perfbench is the repository benchmark. It runs one workload
// per invocation against the system's exported packages, checks the
// workload's outputs, and prints its metrics: a human-readable report
// first, then, as the last line of standard output, one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload fuzz-oracle --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON metrics are the end-to-end metrics, measured
// with tracing off; their timings are scaled by the speed of a
// reference loop that a child process runs between iterations (see
// reference.go). With --trace 1 the run records spans around the
// calls into each layer and the JSON metrics are the per-layer ones.
// Every run also writes its metrics and run metadata, and a traced
// run its sampled spans, under .bench_build/results in the working
// directory. README.md in this directory is the metric glossary.
//
// The exit code is 0 when every output check passed, 1 when a check
// failed (the JSON line then reads "correct": false), and 2 when the
// benchmark could not run at all.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// resultsDir holds each run's metrics, metadata and sampled spans.
const resultsDir = ".bench_build/results"

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, env *runEnv) (*result, error)
}

var workloads = []workload{
	{"fuzz-oracle", runFuzzOracle},
	{"hub-fleet", runHubFleet},
	{"specgen", runSpecgen},
}

// runEnv is what every workload is given.
type runEnv struct {
	seed   int64
	window time.Duration
	traced bool
	// spansPath is where a traced run writes its sampled raw spans.
	spansPath string
	ref       *reference
	// refErr is the first failure of the reference loop.
	refErr error
	// windowRef is the index of the first reference sample taken in
	// the measurement window, after the set-ups.
	windowRef int
}

// more reports whether another iteration of about last's duration
// still fits in the measurement window that began at start. Called
// between iterations, it also samples the reference loop when one is
// due.
func (e *runEnv) more(start time.Time, last time.Duration) bool {
	if err := e.ref.maybeSample(); err != nil {
		e.refErr = err
		return false
	}
	return time.Since(start)+last <= e.window
}

// alternate runs an iteration's untraced and traced halves, the
// untraced one first on even iterations and last on odd ones, so that
// neither side always runs on a colder or warmer process. traced is
// nil in an untraced run.
func alternate(i int, untraced, traced func() error) error {
	first, second := untraced, traced
	if traced != nil && i%2 == 1 {
		first, second = traced, untraced
	}
	if err := first(); err != nil {
		return err
	}
	if second == nil {
		return nil
	}
	return second()
}

// named is one metric as the report prints it, under the name the
// glossary gives it for this workload.
type named struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// P95 is the 95th percentile of a timing (0 when not a timing).
	P95 float64 `json:"p95,omitempty"`
	// N is the number of samples behind the value.
	N int `json:"n"`
}

// check is one output-correctness check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	checks            []check
	// e2e holds the end-to-end metrics under their BENCHMARK.json
	// names; workload-specific names go to report.
	e2e    map[string]float64
	report []named
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	meta   map[string]any
	// refSamples holds every reference-loop sample of the run, by
	// part, in ns per step; set-up's come first.
	refSamples map[string][]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}, meta: map[string]any{}}
}

// checkSet collects the first failure of each named output check.
type checkSet struct {
	names []string
	fail  map[string]string
}

func newChecks(names ...string) *checkSet {
	return &checkSet{names: names, fail: map[string]string{}}
}

// failf records a failure of check name unless one is recorded.
func (c *checkSet) failf(name, format string, args ...any) {
	if _, ok := c.fail[name]; !ok {
		c.fail[name] = fmt.Sprintf(format, args...)
	}
}

// record appends every check's outcome to r.
func (c *checkSet) record(r *result) {
	for _, n := range c.names {
		d, failed := c.fail[n]
		r.checks = append(r.checks, check{Name: n, OK: !failed, Detail: d})
	}
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

// timing reports a timing distribution (milliseconds) under name, as
// its median and 95th percentile, and returns the median.
func (r *result) timing(name string, ms []float64) float64 {
	p50 := median(ms)
	r.report = append(r.report, named{Name: name, Unit: "ms", Value: p50, P95: quantile(ms, 0.95), N: len(ms)})
	return p50
}

// value reports a non-timing metric under name.
func (r *result) value(name, unit string, v float64, n int) {
	r.report = append(r.report, named{Name: name, Unit: unit, Value: v, N: n})
}

func (r *result) layer(name string, v float64) { r.layers[name] = v }

// spanLayers records a span's calls, self time per call and share of
// the workload's wall time.
func (r *result) spanLayers(name string, calls, selfNs, wallNs int64) {
	r.layer(name+".calls", float64(calls))
	if calls > 0 {
		r.layer(name+".ns", float64(selfNs)/float64(calls))
	}
	if wallNs > 0 {
		r.layer(name+".share", float64(selfNs)/float64(wallNs))
	}
}

// metricSpec is one BENCHMARK.json metric.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd and perLayer list the metrics the JSON line carries; they
// match BENCHMARK.json. Every workload reports every end-to-end
// metric; a per-layer metric of a layer the workload does not use
// reads 0.
var endToEnd = []metricSpec{
	{"throughput_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"yield_count", "count"},
	{"rss_peak_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = func() []metricSpec {
	var out []metricSpec
	spans := func(names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{n + ".calls", "count"}, metricSpec{n + ".ns", "ns"}, metricSpec{n + ".share", "ratio"})
		}
	}
	spans("seedpool.pick", "prog.sched", "prog.mutate", "prog.generate", "prog.compile_exec",
		"vkernel.exec", "vkernel.cover_merge", "seedpool.minimize", "seedpool.add")
	out = append(out,
		metricSpec{"prog.mutate.yield", "ratio"},
		metricSpec{"prog.generate.yield", "ratio"},
		metricSpec{"seedpool.admit_ratio", "ratio"})
	spans("fuzz.campaign_self", "hub.client_sync", "hub.roundtrip", "hub.handler_sync")
	out = append(out,
		metricSpec{"hub.req_bytes", "B"},
		metricSpec{"hub.resp_bytes", "B"},
		metricSpec{"hub.seeds_pulled", "count"})
	spans("llm.complete", "core.generate_self", "core.merge", "syzlang.validate", "prog.compile")
	out = append(out,
		metricSpec{"llm.tokens_in", "count"},
		metricSpec{"llm.tokens_out", "count"},
		metricSpec{"llm.cache_hit_ratio", "ratio"},
		metricSpec{"core.repaired_ratio", "ratio"},
		metricSpec{"core.iterations_per_handler", "count"},
		metricSpec{"runtime.gc_cpu_share", "ratio"},
		metricSpec{"runtime.alloc_bytes_per_op", "B"},
		metricSpec{"trace.overhead", "ratio"},
		metricSpec{"trace.self_share_sum", "ratio"})
	return out
}()

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type lastLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == refFlag {
		if err := serveReference(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench reference loop:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "", "workload: fuzz-oracle, hub-fleet or specgen")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	os.Exit(run(*name, *seed, *seconds, *trace == 1))
}

func run(name string, seed int64, seconds float64, traced bool) int {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil || seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", name)
		return 2
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	base := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, btoi(traced)))
	ref, err := startReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer ref.stop()
	env := &runEnv{seed: seed, window: time.Duration(seconds * float64(time.Second)), traced: traced, spansPath: base + ".spans.jsonl", ref: ref}
	start := time.Now()
	res, err := w.run(context.Background(), env)
	if err == nil {
		err = env.refErr
	}
	if err == nil {
		err = ref.sample() // the window holds at least one sample
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := ref.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference loop:", err)
		return 2
	}
	// The window's timings are scaled to the nominal host by the
	// reference samples taken in the window (see reference.go).
	from, to := env.windowRef, ref.samples()
	res.refSamples = map[string][]float64{}
	for i, p := range refParts {
		res.value("ref_"+p.name+"_ns", "ns", mean(ref.ns[i][from:to]), to-from)
		res.refSamples[p.name] = ref.ns[i]
	}
	scale := ref.scale(from, to)
	res.value("host_scale", "ratio", scale, to-from)
	res.value("throughput_per_s_raw", "1/s", res.e2e["throughput_per_s"], 1)
	res.value("latency_ms_raw", "ms", res.e2e["latency_ms"], 1)
	res.e2e["throughput_per_s"] /= scale
	res.e2e["latency_ms"] *= scale
	res.value("throughput_per_s", "1/s", res.e2e["throughput_per_s"], to-from)
	res.value("latency_ms", "ms", res.e2e["latency_ms"], to-from)
	res.e2e["rss_peak_mb"] = peakRSSMB()
	for k, v := range runMeta(seed) {
		res.meta[k] = v
	}
	res.meta["run_wall_s"] = time.Since(start).Seconds()

	out := lastLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	specs, vals := endToEnd, res.e2e
	if traced {
		specs, vals = perLayer, res.layers
	}
	for _, m := range specs {
		out.Metrics[m.Name] = metricOut{Value: vals[m.Name], Unit: m.Unit}
	}
	printReport(name, seed, traced, res)
	if err := writeResults(base+".json", res, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printReport prints the human-readable report: metadata, every
// metric by its workload name with unit and sample count, and the
// output checks.
func printReport(name string, seed int64, traced bool, res *result) {
	fmt.Printf("workload %s seed %d trace %v\n", name, seed, traced)
	keys := make([]string, 0, len(res.meta))
	for k := range res.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  meta %-22s %v\n", k, res.meta[k])
	}
	for _, m := range res.report {
		if m.P95 != 0 {
			fmt.Printf("  %-26s %14.4f %-6s p95 %.4f  n=%d\n", m.Name, m.Value, m.Unit, m.P95, m.N)
		} else {
			fmt.Printf("  %-26s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	fmt.Printf("  %-26s %14.4f %-6s n=1\n", "rss_peak_mb", res.e2e["rss_peak_mb"], "MB")
	if traced {
		names := make([]string, 0, len(res.layers))
		for k := range res.layers {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  layer %-32s %.6g\n", k, res.layers[k])
		}
	}
	for _, c := range res.checks {
		status := "ok"
		if !c.OK {
			status = "FAIL: " + c.Detail
		}
		fmt.Printf("  check %-32s %s\n", c.Name, status)
	}
}

// writeResults records the run next to its metadata.
func writeResults(path string, res *result, out lastLine) error {
	doc := map[string]any{
		"meta":                 res.meta,
		"metrics":              res.report,
		"layers":               res.layers,
		"checks":               res.checks,
		"result":               out,
		"reference_samples_ns": res.refSamples,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupRuns is how many times a run repeats its set-up; setup_s is
// the median.
const setupRuns = 7

// timedSetup runs build setupRuns times, each after a sample of the
// reference loop, records the median duration, scaled to the nominal
// host by those samples, as setup_s, and returns the last build's
// value.
func timedSetup[T any](env *runEnv, r *result, build func() (T, error)) (T, error) {
	var v T
	var secs []float64
	first := env.ref.samples()
	for i := 0; i < setupRuns; i++ {
		if err := env.ref.sample(); err != nil {
			return v, err
		}
		runtime.GC() // start each set-up from the same heap state
		t0 := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	env.windowRef = env.ref.samples()
	r.e2e["setup_s"] = median(secs) * env.ref.scale(first, env.windowRef)
	r.value("setup_s", "s", r.e2e["setup_s"], len(secs))
	r.value("setup_s_raw", "s", median(secs), len(secs))
	return v, nil
}
