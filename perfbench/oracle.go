package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/fuzz"
	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
	"kernelgpt/internal/vkernel"
)

// oracleExecs is one fuzz-oracle campaign's exec budget.
const oracleExecs = 100_000

// fuzzTarget is the campaign side of set-up: the full-scale corpus,
// its kernel, and the compiled oracle+plumbing suite.
type fuzzTarget struct {
	corpus *corpus.Corpus
	kernel *vkernel.Kernel
	target *prog.Target
}

// buildFuzzTarget builds the suite the way `syzfuzz -suite oracle
// -plumbing` does: every loaded top-level handler's oracle spec with
// its child handlers' specs, then the fd-plumbing surface.
func buildFuzzTarget() (*fuzzTarget, error) {
	c := corpus.Build(corpus.Config{Scale: 1})
	k := vkernel.New(c)
	var files []*syzlang.File
	for _, h := range c.Handlers {
		if h.Loaded && h.Parent == "" {
			files = append(files, familyOracle(c, h))
		}
	}
	spec := syzlang.MergeDedup(syzlang.MergeDedup(files...), c.PlumbingSuite())
	if errs := syzlang.Validate(spec, c.Env()); len(errs) > 0 {
		return nil, fmt.Errorf("oracle suite invalid: %v", errs[0])
	}
	t, err := prog.Compile(spec, c.Env())
	if err != nil {
		return nil, err
	}
	return &fuzzTarget{corpus: c, kernel: k, target: t}, nil
}

func familyOracle(c *corpus.Corpus, h *corpus.Handler) *syzlang.File {
	files := []*syzlang.File{corpus.OracleSpec(h)}
	for _, cand := range c.Handlers {
		if cand.Parent == h.Name {
			files = append(files, familyOracle(c, cand))
		}
	}
	return syzlang.MergeDedup(files...)
}

// progressLatency returns a fuzz.Config.Progress hook that appends
// the wall time, in ms, of every full progress window (the interval
// between two progress updates) to *ms.
func progressLatency(ms *[]float64) func(fuzz.Progress) {
	var lastNs int64
	lastExecs, step := 0, 0
	return func(p fuzz.Progress) {
		d := p.Execs - lastExecs
		if step == 0 {
			step = d
		}
		if d == step {
			*ms = append(*ms, float64(p.ElapsedNs-lastNs)/1e6)
		}
		lastNs, lastExecs = p.ElapsedNs, p.Execs
	}
}

// sameCampaign compares the campaign outcomes that must repeat for
// one seed and budget: coverage, crashes (title, first exec, hits,
// minimized repro), corpus size and per-operator stats.
func sameCampaign(a, b *fuzz.Stats) error {
	switch {
	case a.Execs != b.Execs:
		return fmt.Errorf("execs %d vs %d", a.Execs, b.Execs)
	case !a.Cover.Equal(b.Cover):
		return fmt.Errorf("cover %d vs %d blocks", a.CoverCount(), b.CoverCount())
	case a.CorpusSize != b.CorpusSize:
		return fmt.Errorf("corpus %d vs %d", a.CorpusSize, b.CorpusSize)
	case !reflect.DeepEqual(a.Ops, b.Ops):
		return fmt.Errorf("operator stats differ: %v vs %v", a.Ops, b.Ops)
	case !reflect.DeepEqual(a.CrashTitles(), b.CrashTitles()):
		return fmt.Errorf("crash titles differ (%d vs %d)", a.UniqueCrashes(), b.UniqueCrashes())
	}
	for t, ca := range a.Crashes {
		if cb := b.Crashes[t]; *ca != *cb {
			return fmt.Errorf("crash %q differs", t)
		}
	}
	return nil
}

// runFuzzOracle runs cold serial campaigns of one seed back to back
// for the window. A traced run alternates each untraced campaign with
// a traced replica of the same campaign.
func runFuzzOracle(ctx context.Context, env *runEnv) (*result, error) {
	r := newResult()
	ft, err := timedSetup(env, r, buildFuzzTarget)
	if err != nil {
		return nil, err
	}
	r.meta["syscalls"] = len(ft.target.Syscalls)
	r.meta["blocks"] = ft.kernel.NumBlocks()
	f := fuzz.New(ft.target, ft.kernel)

	checks := newChecks("fuzz-oracle.determinism")
	if env.traced {
		checks.names = append(checks.names, "fuzz-oracle.replica_equivalence", "fuzz-oracle.spans_cover_wall")
	}
	var (
		ref                         *fuzz.Stats
		rates, campaignMs, windowMs []float64
		tracedRates                 []float64
		rt                          runtimeAcc
		tr                          = newReplicaTracer()
		tracedWall                  int64
	)
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || env.more(start, last); i++ {
		t0 := time.Now()
		var st, rep *fuzz.Stats
		untraced := func() error {
			cfg := fuzz.DefaultConfig(oracleExecs, env.seed)
			cfg.Progress = progressLatency(&windowMs)
			before := readRuntime()
			var err error
			if st, err = f.RunContext(ctx, cfg); err != nil {
				return err
			}
			rt.addSince(before)
			rates = append(rates, float64(st.Execs)/st.Elapsed.Seconds())
			campaignMs = append(campaignMs, float64(st.Elapsed)/1e6)
			return nil
		}
		var traced func() error
		if env.traced {
			traced = func() error {
				w0 := tr.now()
				rep = replica(ft, env.seed, oracleExecs, tr, int64(i)*oracleExecs)
				w := tr.now() - w0
				tracedWall += w
				tracedRates = append(tracedRates, float64(rep.Execs)/(float64(w)/1e9))
				return nil
			}
		}
		if err := alternate(i, untraced, traced); err != nil {
			return nil, err
		}
		r.attempted++
		if ref == nil {
			ref = st
		} else if err := sameCampaign(ref, st); err != nil {
			checks.failf("fuzz-oracle.determinism", "%v", err)
		}
		if rep != nil {
			if err := sameCampaign(st, rep); err != nil {
				checks.failf("fuzz-oracle.replica_equivalence", "%v", err)
			}
		}
		last = time.Since(t0)
	}
	p50 := r.timing("progress_window_ms", windowMs)
	r.timing("campaign_ms", campaignMs)
	r.e2e["throughput_per_s"] = median(rates)
	r.e2e["latency_ms"] = p50
	r.e2e["yield_count"] = float64(ref.CoverCount())
	r.value("execs_per_s", "1/s", median(rates), len(rates))
	r.value("cover_blocks", "count", float64(ref.CoverCount()), 1)
	r.value("crashes_unique", "count", float64(ref.UniqueCrashes()), 1)
	r.value("corpus_size", "count", float64(ref.CorpusSize), 1)
	if env.traced {
		if sum := tr.layers(r, tracedWall); math.Abs(1-sum) > 0.05 {
			checks.failf("fuzz-oracle.spans_cover_wall", "span self times add up to %.3f of wall time", sum)
		}
		r.layer("trace.overhead", 1-median(tracedRates)/median(rates))
		rt.layers(r, oracleExecs*len(rates))
		if err := tr.writeRaw(env.spansPath); err != nil {
			return nil, err
		}
	}
	checks.record(r)
	return r, nil
}

// replicaTracer is the tracer with the campaign loop's spans and
// outcome counters.
type replicaTracer struct {
	*tracer
	pick, sched, mutate, generate, compile, exec, coverMerge, minimize, addSeed spanID
	// mutations/generations count candidates of each kind and
	// *Yield those that found new coverage; adds/admitted count
	// seedpool.Add calls and admissions.
	mutations, mutateYield, generations, generateYield, adds, admitted int64
}

func newReplicaTracer() *replicaTracer {
	t := &replicaTracer{tracer: newTracer(10_000, 4096)}
	t.pick = t.span("seedpool.pick", "")
	t.sched = t.span("prog.sched", "")
	t.mutate = t.span("prog.mutate", "")
	t.generate = t.span("prog.generate", "")
	t.compile = t.span("prog.compile_exec", "")
	t.exec = t.span("vkernel.exec", "")
	t.coverMerge = t.span("vkernel.cover_merge", "")
	t.minimize = t.span("seedpool.minimize", "vkernel.exec")
	t.addSeed = t.span("seedpool.add", "")
	return t
}

// layers reports every loop span (all are leaves, so self time is
// the span's duration) and the yield ratios, and returns the share of
// the traced wall time the spans account for.
func (t *replicaTracer) layers(r *result, wallNs int64) float64 {
	var sum int64
	for id := range t.names {
		calls, ns := t.total(spanID(id))
		r.spanLayers(t.names[id], calls, ns, wallNs)
		sum += ns
	}
	share := float64(sum) / float64(wallNs)
	r.layer("trace.self_share_sum", share)
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.layer("prog.mutate.yield", ratio(t.mutateYield, t.mutations))
	r.layer("prog.generate.yield", ratio(t.generateYield, t.generations))
	r.layer("seedpool.admit_ratio", ratio(t.admitted, t.adds))
	return share
}

// replica re-issues fuzz.Fuzzer.RunContext's calls for a cold,
// detached, serial campaign with fuzz.DefaultConfig — the same calls
// in the same order on the same RNG stream — and records a span
// around each call into a layer. Its outcome must equal RunContext's
// for the same seed and budget (sameCampaign), which is what makes
// its spans a faithful breakdown of the campaign. iter0 numbers the
// campaign's iterations in the trace.
func replica(ft *fuzzTarget, seed int64, execs int, t *replicaTracer, iter0 int64) *fuzz.Stats {
	cfg := fuzz.DefaultConfig(execs, seed)
	g := prog.NewGen(ft.target, cfg.Seed)
	vm := ft.kernel.NewVM()
	var ep prog.ExecProg
	var cov []vkernel.BlockID
	stats := &fuzz.Stats{Cover: vkernel.NewCoverSet(ft.kernel.NumBlocks()), Crashes: map[string]*fuzz.CrashReport{}}
	pool := seedpool.New(cfg.CorpusCap)
	sched := prog.NewScheduler()
	ops := sched.Ops()
	stats.Ops = make([]fuzz.OpStat, len(ops))
	opIndex := map[string]int{}
	for i, op := range ops {
		stats.Ops[i].Name = op.Name()
		opIndex[op.Name()] = i
	}
	mctx := &prog.MutateCtx{MaxCalls: cfg.MaxCalls, Donor: func() *prog.Prog { return pool.Pick(g.R) }}
	for i := 0; i < cfg.Execs; i++ {
		it := iter0 + int64(i)
		t0 := t.now()
		var seedProg *prog.Prog
		var ref uint64
		if pool.Len() > 0 && g.R.Float64() < cfg.MutateBias {
			seedProg, ref = pool.PickRef(g.R)
		}
		t1 := t.now()
		t.add(t.pick, it, t0, t1)
		var p *prog.Prog
		opIdx := -1
		if seedProg != nil {
			op := ops[sched.Pick(g.R)]
			t2 := t.now()
			t.add(t.sched, it, t1, t2)
			var applied prog.Operator
			p, applied = g.MutateOp(seedProg, op, mctx)
			if applied != nil {
				if j, ok := opIndex[applied.Name()]; ok {
					opIdx = j
				}
			}
			t1 = t.now()
			t.add(t.mutate, it, t2, t1)
			t.mutations++
		} else {
			p = g.Generate(cfg.MaxCalls)
			t2 := t.now()
			t.add(t.generate, it, t1, t2)
			t1 = t2
			t.generations++
		}
		prog.CompileExecInto(p, &ep)
		t2 := t.now()
		t.add(t.compile, it, t1, t2)
		crash, _ := vm.RunCompiled(&ep)
		cov = vm.AppendCover(cov[:0])
		t3 := t.now()
		t.add(t.exec, it, t2, t3)
		stats.Execs++
		newBlocks := 0
		for _, b := range cov {
			if stats.Cover.Add(b) {
				newBlocks++
			}
		}
		t4 := t.now()
		t.add(t.coverMerge, it, t3, t4)
		if crash != nil {
			cr := stats.Crashes[crash.Title]
			if cr == nil {
				cr = &fuzz.CrashReport{Title: crash.Title, FirstExec: i, Repro: seedpool.Minimize(vm, p, crash.Title).Serialize()}
				stats.Crashes[crash.Title] = cr
				t5 := t.now()
				t.add(t.minimize, it, t4, t5)
				t4 = t5
			}
			cr.Count++
		}
		if newBlocks > 0 {
			if seedProg != nil {
				t.mutateYield++
			} else {
				t.generateYield++
			}
		}
		opName := ""
		if opIdx >= 0 {
			sched.Reward(opIdx, newBlocks)
			t5 := t.now()
			t.add(t.sched, it, t4, t5)
			t4 = t5
			pool.Reward(ref, newBlocks)
			stats.Ops[opIdx].Picks++
			stats.Ops[opIdx].NewBlocks += newBlocks
			opName = stats.Ops[opIdx].Name
		}
		t.adds++
		if pool.Add(p, newBlocks, opName) {
			t.admitted++
		}
		t.add(t.addSeed, it, t4, t.now())
	}
	stats.CorpusSize = pool.Len()
	return stats
}
