package main

import (
	"psrahgadmm/internal/core"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/simnet"
)

// workload is one set of inputs the benchmark runs. A run generates
// several datasets from its seed and trains on them in turn, one job at a
// time from a fresh start (a closed loop with one client). Metrics that
// depend on the data are averaged over the datasets, so that one seed's
// easy or hard data does not move the run's figures much.
type workload struct {
	name, why string
	mesh      bool // wlg runtime over loopback TCP instead of core.Run
	algorithm core.Algorithm
	topo      simnet.Topology
	data      func(seed int64) dataset.SynthConfig
	rho       float64
	lambda    float64
	guarded   bool // contribution screen and divergence watchdog on
	test      bool // evaluate test accuracy every iteration
	iters     int  // ADMM iterations per job
	// datasets is how many datasets a run generates; each is one set-up,
	// and setup_s is their median. A run makes at least one timed job on
	// each.
	datasets int
	// tailJobs is the window of consecutive jobs iter_ms_tail is taken
	// over: the tail percentile is the highest with ten iterations of a
	// window beyond it, and the metric is its median over the run's
	// windows, so one burst of machine noise moves it little.
	tailJobs int
	// tolFrac is the residual target of time_to_tol_s. It is loose enough
	// that the slowest of a dozen seeds still reaches it well inside a job.
	tolFrac float64
}

// dataSeed is the generator seed of dataset k of a run with seed seed.
func dataSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

func (w *workload) tailPct() float64 {
	p, _ := tailPercentile(w.tailJobs * w.iters)
	return p
}

var workloads = []*workload{
	{
		name: "engine-solve",
		why: "the paper's configuration (psra-hgadmm, 16 ranks, news20-like 1600x135519): the TRON x-update holds " +
			"most of the CPU, so solver and kernel changes show here",
		algorithm: core.PSRAHGADMM,
		topo:      simnet.Topology{Nodes: 4, WorkersPerNode: 4},
		data:      func(seed int64) dataset.SynthConfig { return dataset.News20Like(0.1, seed) },
		rho:       1, lambda: 1, test: true,
		iters: 40, datasets: 4, tailJobs: 4, tolFrac: 0.15,
	},
	{
		name: "engine-guarded",
		why: "psra-admm-robust with screen and watchdog on 64 ranks of 512x16000 data: time goes to the robust " +
			"gather-and-combine, the z-apply and the round guard, not the solver",
		algorithm: core.PSRAADMMRobust,
		topo:      simnet.Topology{Nodes: 16, WorkersPerNode: 4},
		data: func(seed int64) dataset.SynthConfig {
			return dataset.SynthConfig{Name: "shard-scale", Dim: 16000, TrainRows: 512, TestRows: 8,
				RowNNZ: 6, ZipfS: 1.4, SignalNNZ: 60, NoiseFlip: 0.02, Seed: seed}
		},
		rho: 1, lambda: 0.5, guarded: true,
		// One job a window: 64 ranks on few cores leave a third of the CPU
		// idle at barriers, so a higher percentile tracks the machine's CPU
		// steal more than the program.
		iters: 100, datasets: 16, tailJobs: 1, tolFrac: 0.04,
	},
	{
		name: "mesh-tcp",
		why: "the wlg runtime over loopback TCP (2 nodes x 2 workers + GG): the only workload that encodes frames, " +
			"checks CRC32C and runs the GG protocol and dense collectives",
		mesh: true,
		topo: simnet.Topology{Nodes: 2, WorkersPerNode: 2},
		data: func(seed int64) dataset.SynthConfig { return dataset.News20Like(0.002, seed) },
		rho:  1, lambda: 1,
		iters: 30, datasets: 32, tailJobs: 10, tolFrac: 0.05,
	},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tiny returns the workload at a smoke-test size: same code path, a few
// iterations on a small dataset.
func (w *workload) tiny() *workload {
	t := *w
	t.datasets, t.tailJobs = 2, 2
	switch w.name {
	case "engine-solve":
		t.topo = simnet.Topology{Nodes: 2, WorkersPerNode: 2}
		t.data = func(seed int64) dataset.SynthConfig { return dataset.News20Like(0.003, seed) }
		t.iters, t.tolFrac = 10, 0.5
	case "engine-guarded":
		t.topo = simnet.Topology{Nodes: 4, WorkersPerNode: 2}
		t.data = func(seed int64) dataset.SynthConfig {
			return dataset.SynthConfig{Name: "tiny", Dim: 800, TrainRows: 64, TestRows: 8,
				RowNNZ: 6, ZipfS: 1.4, SignalNNZ: 20, NoiseFlip: 0.02, Seed: seed}
		}
		t.iters, t.tolFrac = 20, 0.5
	case "mesh-tcp":
		t.iters, t.tolFrac = 30, 0.5
	}
	return &t
}
