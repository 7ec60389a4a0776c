package main

import (
	"context"
	"fmt"
	"time"

	"kernelgpt/internal/core"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/engine"
	"kernelgpt/internal/llm"
	"kernelgpt/internal/prog"
	"kernelgpt/internal/syzlang"
)

// specPasses is the number of distinct fallibility seeds one specgen
// cycle runs; the window repeats the cycle.
const specPasses = 12

// specModel is the analysis model the kernelgpt CLI defaults to.
const specModel = "gpt-4"

// passSeed derives pass p's fallibility seed from the input seed.
func passSeed(seed int64, p int) uint64 { return uint64(seed)*1_000_003 + uint64(p) }

// specSetup is the specgen input: the full-scale corpus and its
// incomplete drivers and socket handlers.
type specSetup struct {
	corpus   *corpus.Corpus
	worklist []*corpus.Handler
}

func buildSpecSetup() (*specSetup, error) {
	c := corpus.Build(corpus.Config{Scale: 1})
	wl := append(c.Incomplete(corpus.KindDriver), c.Incomplete(corpus.KindSocket)...)
	if len(wl) == 0 {
		return nil, fmt.Errorf("empty specgen worklist")
	}
	return &specSetup{corpus: c, worklist: wl}, nil
}

// timedClient is the llm.complete span: it sits innermost in the
// engine's client chain, so it times the model calls the completion
// cache did not serve.
type timedClient struct {
	llm.Client
	t    *tracer
	id   spanID
	iter *int64
}

func (c *timedClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	t0 := c.t.now()
	resp, err := c.Client.Complete(ctx, req)
	c.t.add(c.id, *c.iter, t0, c.t.now())
	return resp, err
}

// specTracer holds the specgen spans and counters.
type specTracer struct {
	*tracer
	complete, generate, merge, validate, compile spanID
	// iter numbers handler calls across passes (the trace id).
	iter                                      int64
	handlers, repaired, iterations            int64
	tokensIn, tokensOut, cacheHits, cacheMiss int64
}

func newSpecTracer() *specTracer {
	t := &specTracer{tracer: newTracer(50, 4096)}
	t.generate = t.span("core.generate", "")
	t.complete = t.span("llm.complete", "core.generate")
	t.merge = t.span("core.merge", "")
	t.validate = t.span("syzlang.validate", "")
	t.compile = t.span("prog.compile", "")
	return t
}

func (t *specTracer) layers(r *result, wallNs int64) {
	cc, cn := t.total(t.complete)
	gc, gn := t.total(t.generate)
	r.spanLayers("llm.complete", cc, cn, wallNs)
	r.spanLayers("core.generate_self", gc, gn-cn, wallNs)
	sum := gn
	for _, id := range []spanID{t.merge, t.validate, t.compile} {
		calls, ns := t.total(id)
		r.spanLayers(t.names[id], calls, ns, wallNs)
		sum += ns
	}
	r.layer("trace.self_share_sum", float64(sum)/float64(wallNs))
	h := float64(t.handlers)
	r.layer("llm.tokens_in", float64(t.tokensIn)/h)
	r.layer("llm.tokens_out", float64(t.tokensOut)/h)
	r.layer("core.repaired_ratio", float64(t.repaired)/h)
	r.layer("core.iterations_per_handler", float64(t.iterations)/h)
	if n := t.cacheHits + t.cacheMiss; n > 0 {
		r.layer("llm.cache_hit_ratio", float64(t.cacheHits)/float64(n))
	}
}

// passOutcome is one pass's result.
type passOutcome struct {
	dur        time.Duration
	handlerMs  []float64
	results    []*core.Result
	valid      int
	tokens     int
	mergedErrs int
	compileErr error
}

// runPass generates specs for the worklist with a fresh engine, as the
// kernelgpt CLI builds it, then merges, validates and compiles the
// suite. t is nil in an untraced pass.
func runPass(ctx context.Context, s *specSetup, ps uint64, t *specTracer) *passOutcome {
	out := &passOutcome{}
	start := time.Now()
	var client llm.Client = llm.NewSim(specModel, ps)
	if t != nil {
		client = &timedClient{Client: client, t: t.tracer, id: t.complete, iter: &t.iter}
	}
	eng := engine.New(s.corpus, engine.WithClient(client), engine.WithCache(4096))
	for _, h := range s.worklist {
		h0 := time.Now()
		var g0 int64
		if t != nil {
			t.iter++
			g0 = t.now()
		}
		res := eng.GenerateFor(ctx, h)
		if t != nil {
			t.add(t.generate, t.iter, g0, t.now())
		}
		out.handlerMs = append(out.handlerMs, float64(time.Since(h0))/1e6)
		out.results = append(out.results, res)
		if res.Valid {
			out.valid++
		}
	}
	env := s.corpus.Env()
	var t0 int64
	if t != nil {
		t0 = t.now()
	}
	merged := core.MergeSpecs(out.results)
	if t != nil {
		t1 := t.now()
		t.add(t.merge, t.iter, t0, t1)
		t0 = t1
	}
	out.mergedErrs = len(syzlang.Validate(merged, env))
	if t != nil {
		t1 := t.now()
		t.add(t.validate, t.iter, t0, t1)
		t0 = t1
	}
	_, out.compileErr = prog.Compile(merged, env)
	if t != nil {
		t.add(t.compile, t.iter, t0, t.now())
	}
	out.dur = time.Since(start)
	u := eng.Usage()
	out.tokens = u.PromptTokens + u.CompletionTokens
	if t != nil {
		t.handlers += int64(len(s.worklist))
		t.tokensIn += int64(u.PromptTokens)
		t.tokensOut += int64(u.CompletionTokens)
		if cs, ok := eng.CacheStats(); ok {
			t.cacheHits += int64(cs.Hits)
			t.cacheMiss += int64(cs.Misses)
		}
		for _, res := range out.results {
			if res.Repaired {
				t.repaired++
			}
			t.iterations += int64(res.Iterations)
		}
	}
	return out
}

// checkPass runs the first cycle's output checks on one pass: every
// valid spec re-validates, the merged suite compiles, and a pooled
// Engine.Generate over the same worklist finds as many valid specs.
func checkPass(ctx context.Context, s *specSetup, ps uint64, out *passOutcome, checks *checkSet) {
	env := s.corpus.Env()
	for _, res := range out.results {
		if res.Valid {
			if errs := syzlang.Validate(res.Spec, env); len(errs) > 0 {
				checks.failf("specgen.valid_specs_revalidate", "%s: %v", res.Handler.Name, errs[0])
			}
		}
	}
	if out.mergedErrs > 0 || out.compileErr != nil {
		checks.failf("specgen.merged_suite_compiles", "seed %d: %d validation errors, compile: %v", ps, out.mergedErrs, out.compileErr)
	}
	eng := engine.New(s.corpus, engine.WithClient(llm.NewSim(specModel, ps)), engine.WithCache(4096), engine.WithWorkers(2))
	results, err := eng.Generate(ctx, s.worklist)
	if err != nil {
		checks.failf("specgen.pooled_generate_agrees", "seed %d: %v", ps, err)
		return
	}
	if n := core.Summarize(results).Valid; n != out.valid {
		checks.failf("specgen.pooled_generate_agrees", "seed %d: %d valid serially, %d pooled", ps, out.valid, n)
	}
}

// runSpecgen cycles through specPasses fallibility seeds for the
// window. The first cycle defines valid_specs and runs the output
// checks; later cycles must reproduce each pass's valid count. A
// traced run alternates untraced and traced passes.
func runSpecgen(ctx context.Context, env *runEnv) (*result, error) {
	r := newResult()
	s, err := timedSetup(env, r, buildSpecSetup)
	if err != nil {
		return nil, err
	}
	r.meta["handlers"] = len(s.worklist)
	checks := newChecks("specgen.valid_specs_revalidate", "specgen.merged_suite_compiles",
		"specgen.pooled_generate_agrees", "specgen.determinism")
	var (
		firstValid         [specPasses]int
		validSpecs, tokens int
		rates, tracedRates []float64
		handlerMs, passMs  []float64
		rt                 runtimeAcc
		tracedWall         time.Duration
		untracedHandlers   int
		t                  *specTracer
	)
	if env.traced {
		t = newSpecTracer()
	}
	start := time.Now()
	var last time.Duration
	for i := 0; env.more(start, last) || i < specPasses; i++ {
		p := i % specPasses
		ps := passSeed(env.seed, p)
		t0 := time.Now()
		var out, tout *passOutcome
		untraced := func() error {
			before := readRuntime()
			out = runPass(ctx, s, ps, nil)
			rt.addSince(before)
			untracedHandlers += len(s.worklist)
			rates = append(rates, float64(len(s.worklist))/out.dur.Seconds())
			passMs = append(passMs, float64(out.dur)/1e6)
			handlerMs = append(handlerMs, out.handlerMs...)
			return nil
		}
		var traced func() error
		if t != nil {
			traced = func() error {
				tout = runPass(ctx, s, ps, t)
				tracedWall += tout.dur
				tracedRates = append(tracedRates, float64(len(s.worklist))/tout.dur.Seconds())
				return nil
			}
		}
		_ = alternate(i, untraced, traced) // a pass cannot fail
		r.attempted += len(s.worklist)
		if i < specPasses {
			firstValid[p] = out.valid
			validSpecs += out.valid
			tokens += out.tokens
		} else if out.valid != firstValid[p] {
			checks.failf("specgen.determinism", "seed %d: %d valid, first cycle %d", ps, out.valid, firstValid[p])
		}
		if tout != nil && tout.valid != out.valid {
			checks.failf("specgen.determinism", "traced seed %d: %d valid, untraced %d", ps, tout.valid, out.valid)
		}
		last = time.Since(t0)
		if i < specPasses {
			checkPass(ctx, s, ps, out, checks)
		}
	}
	checks.record(r)

	p50 := r.timing("handler_ms", handlerMs)
	r.timing("pass_ms", passMs)
	r.e2e["throughput_per_s"] = median(rates)
	r.e2e["latency_ms"] = p50
	r.e2e["yield_count"] = float64(validSpecs)
	r.value("specs_per_s", "1/s", median(rates), len(rates))
	r.value("valid_specs", "count", float64(validSpecs), specPasses)
	r.value("tokens_per_valid_spec", "count", float64(tokens)/float64(max(validSpecs, 1)), specPasses)
	if t != nil {
		t.layers(r, int64(tracedWall))
		r.layer("trace.overhead", 1-median(tracedRates)/median(rates))
		rt.layers(r, untracedHandlers)
		if err := t.writeRaw(env.spansPath); err != nil {
			return nil, err
		}
	}
	return r, nil
}
