package core

import (
	"math"
	"runtime"
	"testing"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/raceflag"
	"psrahgadmm/internal/watchdog"
)

// runAllocs executes one full training run and returns the heap objects
// and bytes it allocated, counted across all goroutines (crew members,
// compute pool) via runtime.MemStats.
func runAllocs(t *testing.T, cfg Config, train *dataset.Dataset) (objects, bytes int64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg, train, RunOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != cfg.MaxIter {
		t.Fatalf("history length %d, want %d", len(res.History), cfg.MaxIter)
	}
	return int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
}

// marginalRates measures the per-iteration allocation rates of a config,
// in objects and in bytes, as the slope between two runs differing only
// in MaxIter, so every one-time cost — fabric, crew, workspaces,
// first-rounds buffer growth — cancels. The minimum over trials filters
// runtime background noise (timers, scheduler growth).
func marginalRates(t *testing.T, base Config, train *dataset.Dataset, n1, n2 int) (objects, bytes float64) {
	t.Helper()
	objects, bytes = math.Inf(1), math.Inf(1)
	for trial := 0; trial < 3; trial++ {
		c1, c2 := base, base
		c1.MaxIter, c2.MaxIter = n1, n2
		o1, b1 := runAllocs(t, c1, train)
		o2, b2 := runAllocs(t, c2, train)
		objects = math.Min(objects, float64(o2-o1)/float64(n2-n1))
		bytes = math.Min(bytes, float64(b2-b1)/float64(n2-n1))
	}
	return objects, bytes
}

// marginalAllocs is marginalRates' object rate.
func marginalAllocs(t *testing.T, base Config, train *dataset.Dataset, n1, n2 int) float64 {
	t.Helper()
	objects, _ := marginalRates(t, base, train, n1, n2)
	return objects
}

// TestSteadyStateAllocBudget pins the tentpole guarantee: a warmed
// steady-state iteration of the flat-PSR / BSP / sparse engine — the
// repo's allocation benchmark composition — stays within a small fixed
// heap budget. Guards the reuse discipline of DESIGN.md "Memory model &
// buffer ownership"; a regression here means some per-round buffer went
// back on the heap.
func TestSteadyStateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAADMM, 3, 2)
	cfg.EvalEvery = 1 << 20 // objective eval is off the steady-state path

	const budget = 8.0
	got := marginalAllocs(t, cfg, train, 30, 130)
	t.Logf("steady-state allocations: %.2f objects/iter (budget %g)", got, budget)
	if got > budget {
		t.Fatalf("steady-state allocations: %.2f objects/iter exceeds budget %g", got, budget)
	}
}

// TestRobustSteadyStateAllocBudget pins the robust path's perf gate: with
// the contribution screen scoring every encoded contribution and the
// trimmed-mean combine replacing the running sum, a warmed steady-state
// iteration must allocate nothing beyond the baseline budget — the screen
// updates EWMAs in place and the robust scratch is owned by the reducer
// and recycled across rounds.
func TestRobustSteadyStateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	train, _ := testData(t, 160)
	cfg := baseConfig(PSRAADMM, 3, 2)
	cfg.EvalEvery = 1 << 20
	cfg.Aggregator = collective.AggTrimmedMeanName
	cfg.Screen = watchdog.ScreenConfig{Enabled: true}

	const budget = 8.0
	got := marginalAllocs(t, cfg, train, 30, 130)
	t.Logf("robust steady-state allocations: %.2f objects/iter (budget %g)", got, budget)
	if got > budget {
		t.Fatalf("robust steady-state allocations: %.2f objects/iter exceeds budget %g", got, budget)
	}
}

// TestHierarchicalSteadyStateAllocBudget pins the hierarchical rounds'
// buffer reuse: a warmed psra-hgadmm (tree) iteration on a wide model
// allocates less than one dense model-width vector. Worker contributions,
// node partial sums, merge results and the densified z all live in
// strategy-owned buffers (nodeBatches, roundVecs); what a round still
// allocates is small bookkeeping plus the sparse z the workers retain.
func TestHierarchicalSteadyStateAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	train, _, err := dataset.Generate(dataset.SynthConfig{
		Name: "wide", Dim: 50000, TrainRows: 320, TestRows: 10, RowNNZ: 10,
		ZipfS: 1.3, SignalNNZ: 30, NoiseFlip: 0.02, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(PSRAHGADMM, 4, 4)
	cfg.EvalEvery = 1 << 20 // objective eval is off the steady-state path

	budget := 8 * float64(train.Dim())
	objects, bytes := marginalRates(t, cfg, train, 10, 40)
	t.Logf("steady-state allocations: %.0f B/iter in %.1f objects (budget %.0f B, one dense z)", bytes, objects, budget)
	if bytes > budget {
		t.Fatalf("steady-state allocations: %.0f B/iter exceeds budget %.0f B", bytes, budget)
	}
}
