package core

import (
	"reflect"
	"runtime"
	"testing"

	"psrahgadmm/internal/simnet"
)

// TestHistoriesSchedulingIndependent pins the claim that the numerics do
// not depend on how the Go scheduler interleaves the compute pool and the
// collective crew: the hierarchical strategies' one-batch launch, the
// staged tree, the group-local rounds, the ring and the SSP barrier must
// produce bit-identical histories and final iterates at GOMAXPROCS 1, 2
// and 4. Stragglers and jitter make the SSP barrier admit partial
// quorums, so stale batches are exercised too.
func TestHistoriesSchedulingIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	train, test := testData(t, 160)
	for _, alg := range []Algorithm{PSRAHGADMM, PSRAHGADMMGroup, GRADMM, PSRAHGADMMSSPQ8} {
		t.Run(string(alg), func(t *testing.T) {
			cfg := Config{
				Algorithm:      alg,
				Topo:           simnet.Topology{Nodes: 4, WorkersPerNode: 3},
				Rho:            1.0,
				Lambda:         0.5,
				MaxIter:        8,
				GroupThreshold: 2,
				EvalEvery:      2,
				Stragglers:     simnet.Default(5),
				Jitter:         simnet.Jitter{Seed: 7, Amp: 0.6},
			}
			var want goldenRun
			for i, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				res, err := Run(cfg, train, RunOptions{Test: test})
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				got := goldenFromResult(res)
				if i == 0 {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("GOMAXPROCS=%d history differs from GOMAXPROCS=1:\n got %+v\nwant %+v", procs, got, want)
				}
			}
		})
	}
}
