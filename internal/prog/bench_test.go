package prog

import "testing"

// benchBatch is the number of programs one benchmark op builds: the
// CI gate runs each benchmark for a single op, and one program takes
// only microseconds, too little to time alone.
const benchBatch = 256

// benchSeeds is a fixed corpus of generated and mutated programs on
// the oracle target, the shapes a campaign mutates.
func benchSeeds(b *testing.B) (*Target, []*Prog) {
	tgt := oracleTarget(b)
	return tgt, seedSet(tgt, 1, benchBatch)
}

// BenchmarkMutateOp times one operator through MutateOp, copy-on-write
// against the seed, over benchBatch seeds per op.
func BenchmarkMutateOp(b *testing.B) {
	tgt, seeds := benchSeeds(b)
	for _, op := range DefaultOperators() {
		b.Run(op.Name(), func(b *testing.B) {
			g := NewGen(tgt, 2)
			ctx := &MutateCtx{MaxCalls: 8, Donor: func() *Prog { return seeds[g.R.Intn(len(seeds))] }}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range seeds {
					g.MutateOp(p, op, ctx)
				}
			}
		})
	}
}

// BenchmarkGenerate times benchBatch fresh programs per op.
func BenchmarkGenerate(b *testing.B) {
	tgt := oracleTarget(b)
	g := NewGen(tgt, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchBatch; j++ {
			g.Generate(8)
		}
	}
}

// BenchmarkClone times deep copies of benchBatch programs per op.
func BenchmarkClone(b *testing.B) {
	_, seeds := benchSeeds(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range seeds {
			p.Clone()
		}
	}
}
