package prog

import (
	"math/rand"
	"sync"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/syzlang"
)

var (
	oracleOnce sync.Once
	oracleTgt  *Target
	oracleErr  error
)

// oracleTarget compiles the oracle specs of every loaded handler of
// the unit-test corpus plus its fd-plumbing surface: the shapes
// campaigns actually mutate (nested structs, len fields, unions,
// resource chains).
func oracleTarget(tb testing.TB) *Target {
	tb.Helper()
	oracleOnce.Do(func() {
		c := corpus.Build(corpus.TestConfig())
		var files []*syzlang.File
		for _, h := range c.Handlers {
			if h.Loaded {
				files = append(files, corpus.OracleSpec(h))
			}
		}
		spec := syzlang.MergeDedup(syzlang.MergeDedup(files...), c.PlumbingSuite())
		if errs := syzlang.Validate(spec, c.Env()); len(errs) > 0 {
			oracleErr = errs[0]
			return
		}
		oracleTgt, oracleErr = Compile(spec, c.Env())
	})
	if oracleErr != nil {
		tb.Fatal(oracleErr)
	}
	return oracleTgt
}

// seedSet returns n programs to mutate: half generated, half mutants
// of those (so some seeds share calls with others, as pooled
// programs do).
func seedSet(tgt *Target, seed int64, n int) []*Prog {
	g := NewGen(tgt, seed)
	var out []*Prog
	for len(out) < n/2 {
		out = append(out, g.Generate(8))
	}
	for len(out) < n {
		out = append(out, g.Mutate(out[g.R.Intn(len(out))], 8))
	}
	return out
}

// refMutateOp is MutateOp without copy-on-write: clone everything,
// apply in place, fix up every call.
func refMutateOp(g *Gen, p *Prog, op Operator, ctx *MutateCtx) (*Prog, Operator) {
	m := p.Clone()
	if len(m.Calls) == 0 {
		return g.Generate(ctx.maxCalls()), nil
	}
	applied := op
	if !op.Apply(g, m, ctx) {
		applied = g.fallbackMutate(m, ctx)
	}
	return g.finishMutation(m, ctx.maxCalls()), applied
}

// refMutate is Mutate without copy-on-write.
func refMutate(g *Gen, p *Prog, maxCalls int) *Prog {
	m := p.Clone()
	if len(m.Calls) == 0 {
		return g.Generate(maxCalls)
	}
	ctx := &MutateCtx{MaxCalls: maxCalls}
	nops := 1 + g.R.Intn(3)
	for i := 0; i < nops; i++ {
		if !defaultOps[g.R.Intn(len(defaultOps))].Apply(g, m, ctx) {
			g.fallbackMutate(m, ctx)
		}
	}
	return g.finishMutation(m, maxCalls)
}

// nodeSet collects every value node and Data backing array of p.
func nodeSet(p *Prog) (map[*Value]bool, map[*byte]bool) {
	nodes, data := map[*Value]bool{}, map[*byte]bool{}
	for _, c := range p.Calls {
		c.ForEachValue(func(v *Value) {
			nodes[v] = true
			if cap(v.Data) > 0 {
				data[&v.Data[:1][0]] = true
			}
		})
	}
	return nodes, data
}

// checkSharing verifies the copy-on-write contract for mutant m of
// seed p: the seed's text is unchanged, every call m shares with p is
// one of p's calls, and no call m owns reaches a value node or Data
// array of p.
func checkSharing(t *testing.T, what string, p, m *Prog, before string) {
	t.Helper()
	if got := p.Serialize(); got != before {
		t.Fatalf("%s modified its seed:\nbefore:\n%s\nafter:\n%s", what, before, got)
	}
	seedCalls := map[*Call]bool{}
	for _, c := range p.Calls {
		seedCalls[c] = true
	}
	nodes, data := nodeSet(p)
	for i, c := range m.Calls {
		if seedCalls[c] {
			continue // borrowed: pointer-equal, and unmodified since the text is
		}
		c.ForEachValue(func(v *Value) {
			if nodes[v] {
				t.Fatalf("%s: owned call %d aliases a seed value node", what, i)
			}
			if cap(v.Data) > 0 && data[&v.Data[:1][0]] {
				t.Fatalf("%s: owned call %d aliases a seed Data array", what, i)
			}
		})
	}
}

func opName(op Operator) string {
	if op == nil {
		return "<nil>"
	}
	return op.Name()
}

// TestCopyOnWriteMatchesClone is the equivalence proof for
// copy-on-write mutation: for every operator, over hundreds of seeds
// and several RNG seeds, MutateOp must produce exactly what cloning
// the whole seed and mutating the clone produces (same text, same
// credited operator, same RNG position), leave the seed untouched,
// and share only calls it did not change.
func TestCopyOnWriteMatchesClone(t *testing.T) {
	targets := map[string]*Target{
		"oracle": oracleTarget(t),
		"layout": testTarget(t),
		"res":    resTarget(t),
	}
	const nseeds = 320
	for name, tgt := range targets {
		for _, rs := range []int64{1, 2, 3} {
			seeds := seedSet(tgt, rs, nseeds)
			donors := seedSet(tgt, rs+100, 16)
			donorText := make([]string, len(donors))
			for i, d := range donors {
				donorText[i] = d.Serialize()
			}
			for _, op := range DefaultOperators() {
				cow, ref := NewGen(tgt, rs*31), NewGen(tgt, rs*31)
				cowCtx := &MutateCtx{MaxCalls: 8, Donor: func() *Prog { return donors[cow.R.Intn(len(donors))] }}
				refCtx := &MutateCtx{MaxCalls: 8, Donor: func() *Prog { return donors[ref.R.Intn(len(donors))] }}
				for i, p := range seeds {
					what := name + "/" + op.Name()
					before := p.Serialize()
					m, applied := cow.MutateOp(p, op, cowCtx)
					want, wantApplied := refMutateOp(ref, p, op, refCtx)
					if got, exp := m.Serialize(), want.Serialize(); got != exp {
						t.Fatalf("%s seed %d/%d: copy-on-write mutant differs from clone mutant:\ngot:\n%s\nwant:\n%s", what, rs, i, got, exp)
					}
					if opName(applied) != opName(wantApplied) {
						t.Fatalf("%s seed %d/%d: applied %s, clone path applied %s", what, rs, i, opName(applied), opName(wantApplied))
					}
					if a, b := cow.R.Int63(), ref.R.Int63(); a != b {
						t.Fatalf("%s seed %d/%d: RNG streams diverged", what, rs, i)
					}
					checkSharing(t, what, p, m, before)
				}
			}
			// Mutate chains 1–3 operators over one shared mutant.
			cow, ref := NewGen(tgt, rs*37), NewGen(tgt, rs*37)
			for i, p := range seeds {
				before := p.Serialize()
				m, want := cow.Mutate(p, 8), refMutate(ref, p, 8)
				if got, exp := m.Serialize(), want.Serialize(); got != exp {
					t.Fatalf("%s Mutate seed %d/%d: copy-on-write differs from clone:\ngot:\n%s\nwant:\n%s", name, rs, i, got, exp)
				}
				if a, b := cow.R.Int63(), ref.R.Int63(); a != b {
					t.Fatalf("%s Mutate seed %d/%d: RNG streams diverged", name, rs, i)
				}
				checkSharing(t, name+"/Mutate", p, m, before)
			}
			for i, d := range donors {
				if d.Serialize() != donorText[i] {
					t.Fatalf("%s: splice modified donor %d", name, i)
				}
			}
		}
	}
}

// TestMutateStaleLens: a deserialized seed may carry len fields that
// disagree with their targets. Its mutant must come out with the same
// fixed-up lens the clone-everything path gave, without the seed (or
// any call it lends) being written.
func TestMutateStaleLens(t *testing.T) {
	tgt := testTarget(t)
	g := NewGen(tgt, 11)
	stale := 0
	for i := 0; i < 200; i++ {
		p := g.Generate(6)
		// Corrupt every len field through the text form, the way a
		// hand-edited repro or an old corpus entry would carry it.
		for _, c := range p.Calls {
			c.ForEachValue(func(v *Value) {
				if v.Type.Kind == KindLen {
					v.Scalar += 3
				}
			})
		}
		seed, err := Deserialize(tgt, p.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		hasStale := false
		for _, c := range seed.Calls {
			hasStale = hasStale || c.lensStale()
		}
		if !hasStale {
			continue
		}
		stale++
		before := seed.Serialize()
		for _, op := range DefaultOperators() {
			cow, ref := NewGen(tgt, int64(i)), NewGen(tgt, int64(i))
			m, _ := cow.MutateOp(seed, op, &MutateCtx{MaxCalls: 6})
			want, _ := refMutateOp(ref, seed, op, &MutateCtx{MaxCalls: 6})
			if got, exp := m.Serialize(), want.Serialize(); got != exp {
				t.Fatalf("seed %d %s: lens differ from the clone path:\ngot:\n%s\nwant:\n%s", i, op.Name(), got, exp)
			}
			for j, c := range m.Calls {
				if c.lensStale() {
					t.Fatalf("seed %d %s: call %d of the mutant kept stale lens", i, op.Name(), j)
				}
			}
			checkSharing(t, op.Name(), seed, m, before)
		}
	}
	if stale < 20 {
		t.Fatalf("only %d seeds carried stale lens; the test lost its subject", stale)
	}
}

// TestConcurrentMutateSharedSeeds runs several generators mutating
// one shared seed set at once, as parallel shards do with warm-start
// seeds. Run under -race it proves mutation never writes a shared
// call; without it, it still checks the seeds come out unchanged.
func TestConcurrentMutateSharedSeeds(t *testing.T) {
	tgt := oracleTarget(t)
	seeds := seedSet(tgt, 5, 64)
	before := make([]string, len(seeds))
	for i, p := range seeds {
		before[i] = p.Serialize()
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := NewGen(tgt, int64(w))
			r := rand.New(rand.NewSource(int64(w)))
			ctx := &MutateCtx{MaxCalls: 8, Donor: func() *Prog { return seeds[r.Intn(len(seeds))] }}
			ops := DefaultOperators()
			for i := 0; i < 600; i++ {
				p := seeds[r.Intn(len(seeds))]
				m, _ := g.MutateOp(p, ops[i%len(ops)], ctx)
				m.Serialize()
				CompileExec(m)
				if i%3 == 0 {
					g.Mutate(p, 8)
				}
			}
		}(w)
	}
	wg.Wait()
	for i, p := range seeds {
		if p.Serialize() != before[i] {
			t.Fatalf("seed %d changed under concurrent mutation", i)
		}
	}
}

// TestEncodedSizeMatchesEncode: the allocation-free size walk behind
// len fixup must agree with the encoder on every value of generated
// and mutated programs.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	for name, tgt := range map[string]*Target{"oracle": oracleTarget(t), "layout": testTarget(t), "res": resTarget(t)} {
		for _, p := range seedSet(tgt, 9, 400) {
			for _, c := range p.Calls {
				c.ForEachValue(func(v *Value) {
					if got, want := v.encodedSize(), len(v.Encode()); got != want {
						t.Fatalf("%s: %s encodedSize = %d, len(Encode()) = %d", name, v.Type, got, want)
					}
				})
			}
		}
	}
}
