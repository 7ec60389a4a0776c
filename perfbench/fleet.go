package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strconv"
	"syscall"
	"time"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/corpusstore"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/hub"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/telemetry"
)

// A hub-fleet iteration: fleetWorkers campaigns of fleetExecs each,
// one after another, against one fresh hub bounded to fleetCap seeds.
//
// The cap is syzhub's -cap 64, not its default of 512, because the
// store must live in the working directory, which is usually a disk:
// every sync that brings new seeds rewrites the whole store, and at
// 512 seeds the fleet measured the disk instead of the hub (on ext4
// with online discard, fleets took 6 to 14 s and slowed from run to
// run). At 64 the same code paths run with an eighth of the file
// writes, and back-to-back runs agree.
const (
	fleetWorkers = 4
	fleetExecs   = 25_000
	fleetCap     = 64
)

// storeParent holds the hub stores; it lies inside the working
// directory because the benchmark writes nowhere else.
const storeParent = ".bench_build"

// seqHeader carries the sync's trace identifier from the client's
// transport to the hub's handler in traced runs.
const seqHeader = "X-Perfbench-Sync"

type fleetTarget struct {
	*fuzzTarget
	hubTarget *prog.Target
}

func buildFleetTarget() (*fleetTarget, error) {
	ft, err := buildFuzzTarget()
	if err != nil {
		return nil, err
	}
	ht, err := widestTarget(ft.corpus)
	if err != nil {
		return nil, err
	}
	return &fleetTarget{fuzzTarget: ft, hubTarget: ht}, nil
}

// widestTarget is the target syzhub validates pushes against: every
// loaded handler's oracle spec plus the fd-plumbing surface.
func widestTarget(c *corpus.Corpus) (*prog.Target, error) {
	var files []*syzlang.File
	for _, h := range c.Handlers {
		if h.Loaded {
			files = append(files, corpus.OracleSpec(h))
		}
	}
	spec := syzlang.MergeDedup(append(files, c.PlumbingSuite())...)
	if errs := syzlang.Validate(spec, c.Env()); len(errs) > 0 {
		return nil, fmt.Errorf("widest suite invalid: %v", errs[0])
	}
	return prog.Compile(spec, c.Env())
}

// fleetTracer holds the hub-fleet spans. The handler span is recorded
// on the server's goroutine, so every record goes through the lock.
type fleetTracer struct {
	lt                                       *lockedTracer
	campaign, clientSync, roundtrip, handler spanID
	// seq numbers syncs; it is read and written only on the client
	// goroutine.
	seq                            int64
	reqBytes, respBytes, seedsPull int64
}

func newFleetTracer() *fleetTracer {
	t := newTracer(10, 4096)
	ft := &fleetTracer{lt: &lockedTracer{t: t}}
	ft.campaign = t.span("fuzz.campaign", "")
	ft.clientSync = t.span("hub.client_sync", "fuzz.campaign")
	ft.roundtrip = t.span("hub.roundtrip", "hub.client_sync")
	ft.handler = t.span("hub.handler_sync", "hub.roundtrip")
	return ft
}

func (f *fleetTracer) now() int64 { return f.lt.t.now() }

// layers reports self times by difference along the nesting
// campaign ⊃ client sync ⊃ round trip ⊃ handler.
func (f *fleetTracer) layers(r *result, wallNs int64) {
	f.lt.mu.Lock()
	defer f.lt.mu.Unlock()
	cc, cn := f.lt.t.total(f.campaign)
	sc, sn := f.lt.t.total(f.clientSync)
	rc, rn := f.lt.t.total(f.roundtrip)
	hc, hn := f.lt.t.total(f.handler)
	r.spanLayers("fuzz.campaign_self", cc, cn-sn, wallNs)
	r.spanLayers("hub.client_sync", sc, sn-rn, wallNs)
	r.spanLayers("hub.roundtrip", rc, rn-hn, wallNs)
	r.spanLayers("hub.handler_sync", hc, hn, wallNs)
	r.layer("trace.self_share_sum", float64(cn)/float64(wallNs))
	if sc > 0 {
		r.layer("hub.req_bytes", float64(f.reqBytes)/float64(sc))
		r.layer("hub.resp_bytes", float64(f.respBytes)/float64(sc))
		r.layer("hub.seeds_pulled", float64(f.seedsPull)/float64(sc))
	}
}

// syncRecorder is the fuzz.HubSync the campaign sees. It times every
// Client.Sync (the latency the campaign waits for) and counts
// failures; in a traced run it also records the client-sync span.
type syncRecorder struct {
	client *hub.Client
	ms     []float64
	failed int
	tr     *fleetTracer
}

func (s *syncRecorder) Sync(ctx context.Context, st fuzz.SyncState) ([]seedpool.SeedState, error) {
	if s.tr != nil {
		s.tr.seq++
	}
	t0 := time.Now()
	var s0 int64
	if s.tr != nil {
		s0 = s.tr.now()
	}
	seeds, err := s.client.Sync(ctx, st)
	if s.tr != nil {
		s.tr.lt.add(s.tr.clientSync, s.tr.seq, s0, s.tr.now())
		s.tr.seedsPull += int64(len(seeds))
	}
	s.ms = append(s.ms, float64(time.Since(t0))/1e6)
	if err != nil {
		s.failed++
	}
	return seeds, err
}

// spanTransport records the hub.roundtrip span of every /v1/sync
// request: from sending the request until the response body is read
// to its end.
type spanTransport struct {
	next http.RoundTripper
	tr   *fleetTracer
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/sync" {
		return t.next.RoundTrip(req)
	}
	seq := t.tr.seq
	req = req.Clone(req.Context())
	req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	t.tr.reqBytes += req.ContentLength
	start := t.tr.now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.tr.lt.add(t.tr.roundtrip, seq, start, t.tr.now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, seq: seq, start: start}
	return resp, nil
}

// spanBody ends the round-trip span at the body's EOF (or Close, if
// the reader stops early) and counts the response bytes.
type spanBody struct {
	io.ReadCloser
	tr    *fleetTracer
	seq   int64
	start int64
	done  bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tr.respBytes += int64(n)
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *spanBody) end() {
	if !b.done {
		b.done = true
		b.tr.lt.add(b.tr.roundtrip, b.seq, b.start, b.tr.now())
	}
}

// spanHandler records the hub.handler_sync span around the hub's
// /v1/sync handler.
type spanHandler struct {
	next http.Handler
	tr   *fleetTracer
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/sync" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	seq, _ := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64) // 0 if absent: trace id only
	h.tr.lt.add(h.tr.handler, seq, start, h.tr.now())
}

// fleetOutcome is what one fleet iteration produced.
type fleetOutcome struct {
	wall         time.Duration
	execs        int
	syncMs       []float64
	syncFails    int
	union        int
	titles       []string // distinct crash titles at the hub
	crashEntries int
	workers      []int // per-worker cover counts
}

// runFleet serves one fresh hub over loopback HTTP and runs the
// workers against it one after another.
func runFleet(ctx context.Context, ft *fleetTarget, seed int64, tr *fleetTracer, r *result, checks *checkSet) (*fleetOutcome, error) {
	// Every fleet starts from a flushed disk. The writes and deletes of
	// earlier fleets otherwise stay queued and slow the store writes of
	// later ones: back-to-back runs got slower one after another.
	syscall.Sync()
	dir, err := os.MkdirTemp(storeParent, "hubstore-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r.meta["hub_store_fs"] = fsType(dir)
	store, err := corpusstore.Open(dir)
	if err != nil {
		return nil, err
	}
	// syzhub's defaults apart from the cap: no state sidecar, metrics
	// on.
	h, err := hub.New(ft.hubTarget, store, hub.WithCapacity(fleetCap), hub.WithMetrics(telemetry.NewRegistry()))
	if err != nil {
		return nil, err
	}
	handler := h.Handler()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	var rt http.RoundTripper = transport
	if tr != nil {
		handler = spanHandler{next: handler, tr: tr}
		rt = &spanTransport{next: transport, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown(ctx)
		<-served
	}()
	url := "http://" + ln.Addr().String()
	hc := &http.Client{Timeout: 30 * time.Second, Transport: rt}

	f := fuzz.New(ft.target, ft.kernel)
	out := &fleetOutcome{}
	var covers []*fuzz.Stats
	start := time.Now()
	for w := 0; w < fleetWorkers; w++ {
		cl, err := hub.Dial(ctx, url, fmt.Sprintf("worker-%d", w), ft.target, hub.WithHTTPClient(hc))
		if err != nil {
			return nil, err
		}
		rec := &syncRecorder{client: cl, tr: tr}
		cfg := fuzz.DefaultConfig(fleetExecs, fuzz.RepSeed(seed, w))
		cfg.Hub = rec
		var c0 int64
		if tr != nil {
			c0 = tr.now()
		}
		st, err := f.RunContext(ctx, cfg)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			tr.lt.add(tr.campaign, tr.seq, c0, tr.now())
		}
		out.execs += st.Execs
		out.syncMs = append(out.syncMs, rec.ms...)
		out.syncFails += rec.failed
		out.workers = append(out.workers, st.CoverCount())
		covers = append(covers, st)
	}
	out.wall = time.Since(start)

	union := h.UnionCover()
	out.union = union.Count()
	for i, st := range covers {
		if n := st.Cover.Diff(union); n != 0 {
			checks.failf("hub-fleet.union_covers_workers", "worker %d has %d blocks outside the hub union", i, n)
		}
	}
	// The hub keys its crash table by normalized repro, so one title
	// can hold several entries (workers minimize to different repros).
	// A crash is counted twice if a repro is listed twice or a title's
	// hits at the hub exceed what the workers reported.
	repros := map[string]bool{}
	hubHits, workerHits := map[string]int{}, map[string]int{}
	for _, c := range h.Crashes() {
		if repros[c.Repro] {
			checks.failf("hub-fleet.crashes_counted_once", "repro of %q listed twice", c.Title)
		}
		repros[c.Repro] = true
		if hubHits[c.Title] == 0 {
			out.titles = append(out.titles, c.Title)
		}
		hubHits[c.Title] += c.Count
	}
	out.crashEntries = len(repros)
	for _, st := range covers {
		for t, c := range st.Crashes {
			workerHits[t] += c.Count
		}
	}
	if !reflect.DeepEqual(hubHits, workerHits) {
		checks.failf("hub-fleet.crashes_counted_once", "hub hits per title %v, workers reported %v", hubHits, workerHits)
	}
	sort.Strings(out.titles)
	if s := h.Stats(); s.ActiveLeases != 0 || s.ReleasedLeases != fleetWorkers {
		checks.failf("hub-fleet.leases_released", "%d active, %d released of %d", s.ActiveLeases, s.ReleasedLeases, fleetWorkers)
	}
	return out, nil
}

// runHubFleet runs hub fleets of one seed back to back for the
// window. A traced run alternates untraced and traced fleets.
func runHubFleet(ctx context.Context, env *runEnv) (*result, error) {
	r := newResult()
	ft, err := timedSetup(env, r, buildFleetTarget)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(storeParent, 0o755); err != nil {
		return nil, err
	}
	checks := newChecks("hub-fleet.union_covers_workers", "hub-fleet.crashes_counted_once",
		"hub-fleet.leases_released", "hub-fleet.determinism")
	var (
		ref                *fleetOutcome
		rates, tracedRates []float64
		syncMs, fleetMs    []float64
		syncs, fails       int
		untracedExecs      int
		tracedWall         time.Duration
		rt                 runtimeAcc
		tr                 *fleetTracer
	)
	if env.traced {
		tr = newFleetTracer()
	}
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || env.more(start, last); i++ {
		t0 := time.Now()
		var out, tout *fleetOutcome
		untraced := func() error {
			before := readRuntime()
			var err error
			if out, err = runFleet(ctx, ft, env.seed, nil, r, checks); err != nil {
				return err
			}
			rt.addSince(before)
			untracedExecs += out.execs
			rates = append(rates, float64(out.execs)/out.wall.Seconds())
			fleetMs = append(fleetMs, float64(out.wall)/1e6)
			syncMs = append(syncMs, out.syncMs...)
			return nil
		}
		var traced func() error
		if env.traced {
			traced = func() error {
				var err error
				if tout, err = runFleet(ctx, ft, env.seed, tr, r, checks); err != nil {
					return err
				}
				tracedWall += tout.wall
				tracedRates = append(tracedRates, float64(tout.execs)/tout.wall.Seconds())
				return nil
			}
		}
		if err := alternate(i, untraced, traced); err != nil {
			return nil, err
		}
		for _, o := range []*fleetOutcome{out, tout} {
			if o == nil {
				continue
			}
			syncs += len(o.syncMs)
			fails += o.syncFails
			if ref == nil {
				ref = o
			} else if err := sameFleet(ref, o); err != nil {
				checks.failf("hub-fleet.determinism", "%v", err)
			}
		}
		last = time.Since(t0)
	}
	checks.record(r)
	r.attempted, r.failed = syncs, fails

	r.timing("sync_ms", syncMs)
	r.timing("fleet_ms", fleetMs)
	// Syncs are bimodal (most likely as the handler rewrites the store
	// or not), and the median falls on the edge between the modes;
	// the mean is steadier.
	r.value("sync_mean_ms", "ms", mean(syncMs), len(syncMs))
	r.e2e["throughput_per_s"] = median(rates)
	r.e2e["latency_ms"] = mean(syncMs)
	r.e2e["yield_count"] = float64(ref.union)
	r.value("execs_per_s", "1/s", median(rates), len(rates))
	r.value("cover_blocks", "count", float64(ref.union), 1)
	r.value("crashes_unique", "count", float64(len(ref.titles)), 1)
	r.value("hub_crash_entries", "count", float64(ref.crashEntries), 1)
	r.value("sync_fail_ratio", "ratio", float64(fails)/float64(max(syncs, 1)), syncs)
	if env.traced {
		tr.layers(r, int64(tracedWall))
		r.layer("trace.overhead", 1-median(tracedRates)/median(rates))
		rt.layers(r, untracedExecs)
		if err := tr.lt.t.writeRaw(env.spansPath); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// sameFleet compares the fleet outcomes that must repeat for one
// seed: the hub's union cover, its crash titles and every worker's
// cover.
func sameFleet(a, b *fleetOutcome) error {
	if a.union != b.union || !reflect.DeepEqual(a.titles, b.titles) || !reflect.DeepEqual(a.workers, b.workers) {
		return fmt.Errorf("union %d vs %d, %d vs %d crash titles, worker covers %v vs %v",
			a.union, b.union, len(a.titles), len(b.titles), a.workers, b.workers)
	}
	return nil
}
