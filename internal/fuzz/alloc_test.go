package fuzz

import (
	"runtime"
	"testing"
)

// TestCampaignStepAllocs is the loop-level alloc-regression guard:
// the amortized allocation count and bytes of one campaign step (seed
// pick, mutation, compile, compiled exec, observe, pool bookkeeping)
// must stay within budget so alloc creep in the hot loop fails go
// test, not just the bench gate. The exec itself is allocation-free;
// mutation is copy-on-write, so a step allocates the calls it
// changes and the calls it generates, not a copy of its seed.
func TestCampaignStepAllocs(t *testing.T) {
	const (
		execs = 4000
		runs  = 2
		// Measured 22 allocs and 22.7 KB per exec with copy-on-write
		// mutation and slab-allocated generation; cloning every seed
		// and allocating each generated value apart cost 198 allocs
		// and 77 KB. Most of the bytes left are generated fixed-size
		// arrays, one Value per element.
		allocBudget = 26
		byteBudget  = 27 << 10
	)
	f := New(plumbedTarget(t, "dm", "cec"), testKernel)
	cfg := DefaultConfig(execs, 1)
	cfg.NoTriage = true
	f.Run(cfg) // warm process-level lazy state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { f.Run(cfg) })
	runtime.ReadMemStats(&after)
	per := allocs / execs
	// AllocsPerRun makes one warm-up call of its own before the runs
	// it averages over.
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / float64((runs+1)*execs)
	t.Logf("campaign step: %.1f allocs/exec (%.0f total), %.0f B/exec", per, allocs, bytesPer)
	if per > allocBudget {
		t.Errorf("campaign step allocates %.1f/exec, budget is %d", per, allocBudget)
	}
	if bytesPer > byteBudget {
		t.Errorf("campaign step allocates %.0f B/exec, budget is %d", bytesPer, byteBudget)
	}
}
