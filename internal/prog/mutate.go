package prog

// Mutation entry points. The individual transformations live in
// operator.go as named Operator implementations; this file holds the
// generic drivers (Mutate for uniform selection, MutateOp for
// scheduler-driven selection) and the shared call-level helpers.
//
// Mutation is copy-on-write. Most mutants are executed once and
// dropped, so a mutant starts as a fresh Calls slice that borrows the
// seed's *Call values, and an operator copies a call (Gen.own) only
// just before it writes into it. The mutant therefore shares every
// call it did not change with its seed.

// Mutate returns a mutated version of p, applying 1–3 uniformly
// chosen operators. It is the feedback-agnostic path; scheduler-driven
// campaigns use MutateOp. p itself is never modified, but the result
// may share unmodified calls with it, so treat both as read-only:
// Clone a program before editing it in place.
func (g *Gen) Mutate(p *Prog, maxCalls int) *Prog {
	if len(p.Calls) == 0 {
		return g.Generate(maxCalls)
	}
	m := g.borrow(p)
	ops := defaultOps
	ctx := &MutateCtx{MaxCalls: maxCalls}
	nops := 1 + g.R.Intn(3)
	for i := 0; i < nops; i++ {
		if !ops[g.R.Intn(len(ops))].Apply(g, m, ctx) {
			g.fallbackMutate(m, ctx)
		}
	}
	return g.finishMutation(m, maxCalls)
}

// defaultOps backs Mutate; operator values are stateless, so sharing
// the slice across goroutines is safe.
var defaultOps = DefaultOperators()

// MutateOp returns a version of p mutated by one specific operator —
// the scheduler-driven path, where each mutation is credited to
// exactly one operator. If op is inapplicable to p (for example
// splice without a donor), a fallback mutation runs instead so the
// returned program still differs from the seed. The second result is
// the operator that actually mutated the program — the requested op,
// the fallback, or nil when nothing applied (coverage credit must
// follow the operator that did the work, not the one that was asked).
//
// p is never modified, but the mutant may share unmodified calls
// with it. Programs kept in a pool are therefore read-only: Clone one
// before editing it in place. Many goroutines may mutate the same
// seed at once, each with its own Gen.
func (g *Gen) MutateOp(p *Prog, op Operator, ctx *MutateCtx) (*Prog, Operator) {
	if len(p.Calls) == 0 {
		return g.Generate(ctx.maxCalls()), nil
	}
	m := g.borrow(p)
	applied := op
	if !op.Apply(g, m, ctx) {
		applied = g.fallbackMutate(m, ctx)
	}
	return g.finishMutation(m, ctx.maxCalls()), applied
}

// borrow starts a copy-on-write mutant of p: a fresh Calls slice
// holding p's calls, which stay shared until own copies them.
func (g *Gen) borrow(p *Prog) *Prog {
	g.borrowed = p.Calls
	calls := make([]*Call, len(p.Calls), len(p.Calls)+2)
	copy(calls, p.Calls)
	return &Prog{Calls: calls}
}

// isBorrowed reports whether c is one of the seed's calls, shared
// with the mutant under construction.
func (g *Gen) isBorrowed(c *Call) bool {
	for _, b := range g.borrowed {
		if b == c {
			return true
		}
	}
	return false
}

// own makes p.Calls[i] writable: a call borrowed from the seed is
// replaced by a private deep copy. It reports whether it copied.
// Operators call it before writing into an existing call; outside
// Mutate and MutateOp nothing is borrowed and it is a no-op.
func (g *Gen) own(p *Prog, i int) bool {
	if !g.isBorrowed(p.Calls[i]) {
		return false
	}
	p.Calls[i] = p.Calls[i].clone()
	return true
}

// ownValue owns the call holding ref and returns ref's value in the
// owned call.
func (g *Gen) ownValue(p *Prog, ref valueRef) *Value {
	if g.own(p, ref.call) {
		return p.Calls[ref.call].valueAt(ref.pos)
	}
	return ref.v
}

// fallbackMutate guarantees an inapplicable operator draw still
// mutates, reporting what ran: tweak an argument if the program has
// any mutable value, else grow it (a lone parameterless open call
// offers nothing to mutate in place), else re-append a call copy.
func (g *Gen) fallbackMutate(m *Prog, ctx *MutateCtx) Operator {
	if (OpMutateArg{}).Apply(g, m, ctx) {
		return OpMutateArg{}
	}
	if (OpInsert{}).Apply(g, m, ctx) {
		return OpInsert{}
	}
	if (OpDuplicate{}).Apply(g, m, ctx) {
		return OpDuplicate{}
	}
	return nil
}

// finishMutation recomputes length fields and regenerates when a
// mutation emptied the program. A borrowed call keeps its lengths
// unless they are stale (a seed deserialized from text need not have
// them right); then it is owned and fixed like any written call.
func (g *Gen) finishMutation(m *Prog, maxCalls int) *Prog {
	for i, c := range m.Calls {
		if g.isBorrowed(c) {
			if !c.lensStale() {
				continue
			}
			g.own(m, i)
			c = m.Calls[i]
		}
		c.FixupLens()
	}
	g.borrowed = nil
	if len(m.Calls) == 0 {
		return g.Generate(maxCalls)
	}
	return m
}

// mutateArg tweaks one randomly chosen value inside one call.
func (g *Gen) mutateArg(p *Prog) bool {
	idx := g.R.Intn(len(p.Calls))
	mutable := g.refs[:0]
	pos := 0
	p.Calls[idx].ForEachValue(func(v *Value) {
		ok := false
		switch v.Type.Kind {
		case KindInt, KindArray:
			ok = true
		case KindFlags:
			ok = len(v.Type.Vals) > 0
		case KindString, KindBuffer:
			// Fixed string literals and empty buffers have nothing to
			// corrupt; listing them would make mutateArg a no-op.
			ok = len(v.Data) > 0 && v.Type.Str == ""
		case KindUnion:
			ok = len(v.Type.Fields) > 1
		case KindConst:
			// Corrupting consts is allowed but rare: it probes the
			// kernel's invalid-command handling without destroying
			// most of the program's validity.
			ok = g.R.Intn(20) == 0
		}
		if ok {
			mutable = append(mutable, valueRef{call: idx, pos: pos, v: v})
		}
		pos++
	})
	g.refs = mutable
	if len(mutable) == 0 {
		return false
	}
	v := g.ownValue(p, mutable[g.R.Intn(len(mutable))])
	switch v.Type.Kind {
	case KindInt, KindConst:
		switch g.R.Intn(4) {
		case 0:
			v.Scalar = g.genInt(v.Type)
		case 1:
			v.Scalar++
		case 2:
			v.Scalar ^= 1 << uint(g.R.Intn(64))
		case 3:
			v.Scalar = ^v.Scalar
		}
	case KindFlags:
		if len(v.Type.Vals) > 0 {
			v.Scalar = v.Type.Vals[g.R.Intn(len(v.Type.Vals))]
		}
	case KindString, KindBuffer:
		v.Data[g.R.Intn(len(v.Data))] = byte(g.R.Intn(256))
	case KindArray:
		g.mutateArray(p, idx, v)
	case KindUnion:
		v.UnionIdx = g.R.Intn(len(v.Type.Fields))
		v.Fields = []*Value{g.genValueAt(p, v.Type.Fields[v.UnionIdx].Type, idx)}
	}
	return true
}

// mutateArray grows, shrinks, or regenerates an element of the array
// value v, which lives inside call callIdx (element regeneration must
// bind resources strictly before that call). The caller owns the call.
func (g *Gen) mutateArray(p *Prog, callIdx int, v *Value) {
	if v.Type.FixedLen >= 0 {
		// Fixed arrays only mutate elements.
		if len(v.Fields) > 0 {
			idx := g.R.Intn(len(v.Fields))
			v.Fields[idx] = g.genValueAt(p, v.Type.Elem, callIdx)
		}
		return
	}
	if len(v.Fields) == 0 {
		// Shrinking or re-rolling an empty array is a no-op; grow it.
		v.Fields = append(v.Fields, g.genValueAt(p, v.Type.Elem, callIdx))
		return
	}
	switch g.R.Intn(3) {
	case 0: // grow
		v.Fields = append(v.Fields, g.genValueAt(p, v.Type.Elem, callIdx))
	case 1: // shrink
		v.Fields = v.Fields[:len(v.Fields)-1]
	case 2: // mutate element
		idx := g.R.Intn(len(v.Fields))
		v.Fields[idx] = g.genValueAt(p, v.Type.Elem, callIdx)
	}
}

// removeCall drops one random call — including calls whose results
// later calls consume. Each dependent reference is rewired to another
// earlier compatible producer when one exists; dependents with no
// alternative producer are dropped too (cascading), so the surviving
// program never holds a dangling or forward result index.
func (g *Gen) removeCall(p *Prog) bool {
	n := len(p.Calls)
	if n <= 1 {
		return false
	}
	victim := g.R.Intn(n)
	// Only a call referring to the victim or a later call is rewired
	// or renumbered; every other call is left as it is.
	for ci := victim + 1; ci < n; ci++ {
		if refersIn(p.Calls[ci], victim, n) {
			g.own(p, ci)
		}
	}
	// remap doubles as the dropped set (-1) until compaction.
	remap := g.intsN(n)
	clear(remap)
	dropped := func(i int) bool { return remap[i] < 0 }
	remap[victim] = -1
	ndropped := 1
	queue := append(g.queue[:0], victim)
	for qi := 0; qi < len(queue); qi++ {
		d := queue[qi]
		for ci := d + 1; ci < n; ci++ {
			if dropped(ci) {
				continue
			}
			keep := true
			p.Calls[ci].ForEachValue(func(v *Value) {
				if v.Type.Kind != KindResource || v.ResultOf != d {
					return
				}
				if alt := g.findCompatible(p, ci, v.Type.Res, dropped); alt >= 0 {
					v.ResultOf = alt
				} else {
					keep = false
				}
			})
			if !keep {
				remap[ci] = -1
				ndropped++
				queue = append(queue, ci)
			}
		}
	}
	g.queue = queue
	if ndropped >= n {
		return false // would empty the program; let another operator act
	}
	// Compact and remap the surviving references. Calls before the
	// victim keep their index and refer only to earlier calls.
	k := 0
	for i, c := range p.Calls {
		if dropped(i) {
			continue
		}
		remap[i] = k
		p.Calls[k] = c
		k++
	}
	p.Calls = p.Calls[:k]
	for _, c := range p.Calls[victim:] {
		c.ForEachValue(func(v *Value) {
			if v.Type.Kind == KindResource && v.ResultOf >= 0 && remap[v.ResultOf] != v.ResultOf {
				v.ResultOf = remap[v.ResultOf]
			}
		})
	}
	return true
}

// refersIn reports whether any resource argument of c refers to a
// call index in [lo, hi).
func refersIn(c *Call, lo, hi int) bool {
	found := false
	c.ForEachValue(func(v *Value) {
		if v.Type.Kind == KindResource && v.ResultOf >= lo && v.ResultOf < hi {
			found = true
		}
	})
	return found
}

// intsN returns the reusable int buffer resized to n.
func (g *Gen) intsN(n int) []int {
	if cap(g.ints) < n {
		g.ints = make([]int, n)
	}
	g.ints = g.ints[:n]
	return g.ints
}

// Validate checks internal consistency of a program: every ResultOf
// points at an earlier call with a compatible resource. Used by tests
// and as a fuzzer-side assertion.
func (p *Prog) Validate(t *Target) error {
	for i, c := range p.Calls {
		var err error
		c.ForEachValue(func(v *Value) {
			if err != nil || v.Type.Kind != KindResource || v.ResultOf < 0 {
				return
			}
			if v.ResultOf >= i {
				err = errIndex{call: i, ref: v.ResultOf}
				return
			}
			ret := p.Calls[v.ResultOf].Sc.Ret
			if ret == "" || !t.compatible(ret, v.Type.Res) {
				err = errCompat{call: i, ref: v.ResultOf, want: v.Type.Res, have: ret}
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

type errIndex struct{ call, ref int }

func (e errIndex) Error() string {
	return "call " + itoa(e.call) + " references non-earlier result r" + itoa(e.ref)
}

type errCompat struct {
	call, ref  int
	want, have string
}

func (e errCompat) Error() string {
	return "call " + itoa(e.call) + " wants resource " + e.want + " but r" + itoa(e.ref) + " makes " + e.have
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
