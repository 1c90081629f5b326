package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"psrahgadmm/internal/core"
	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/watchdog"
)

// engineEnv runs a workload through core.Run, the in-process engine, on
// each of the run's datasets in turn.
type engineEnv struct {
	w    *workload
	cfg  core.Config
	sets []engineData
}

// engineData is one dataset of a run. Every job on it must repeat its
// reference bit for bit: the warm-up job's history at first, then the
// first whole job that passed.
type engineData struct {
	train, test *dataset.Dataset
	shards      []*dataset.Dataset
	ref         []core.IterStat
	refFull     bool // ref is a whole job, with refFinal and refBytes
	refFinal    float64
	refBytes    int64
}

func newEngineEnv(w *workload, seed int64) (*engineEnv, []setupTimes, error) {
	cfg := core.Config{
		Algorithm: w.algorithm,
		Topo:      w.topo,
		Rho:       w.rho,
		Lambda:    w.lambda,
		MaxIter:   w.iters,
		EvalEvery: 1,
	}
	if w.guarded {
		cfg.Screen = watchdog.ScreenConfig{Enabled: true}
		cfg.Watchdog = watchdog.Config{Enabled: true}
	}
	e := &engineEnv{w: w, cfg: cfg}
	var sts []setupTimes
	for k := 0; k < w.datasets; k++ {
		var st setupTimes
		runtime.GC() // each set-up starts from a collected heap
		t := time.Now()
		train, test, err := dataset.Generate(w.data(dataSeed(seed, k)))
		if err != nil {
			return nil, nil, err
		}
		st.gen = time.Since(t).Seconds()
		t = time.Now()
		shards := train.Shard(w.topo.Size())
		st.shard = time.Since(t).Seconds()
		if !w.test {
			test = nil
		}
		e.sets = append(e.sets, engineData{train: train, test: test, shards: shards})
		sts = append(sts, st)
	}
	return e, sts, nil
}

func (e *engineEnv) close() {}

// warmup runs a whole job on the first dataset and a short one on every
// other. Its history is the reference the timed jobs on that dataset must
// repeat, so every run compares at least one timed job in full.
func (e *engineEnv) warmup() error {
	for k := range e.sets {
		cfg := e.cfg
		if k > 0 {
			cfg.MaxIter = min(3, cfg.MaxIter)
		}
		d := &e.sets[k]
		d.ref = d.ref[:0]
		res, err := core.Run(cfg, d.train, core.RunOptions{Test: d.test, OnIteration: func(s core.IterStat) {
			d.ref = append(d.ref, s)
		}})
		if err != nil {
			return err
		}
		if k == 0 {
			d.refFull, d.refFinal, d.refBytes = true, res.FinalObjective(), res.TotalBytes
		}
	}
	return nil
}

// job runs one core.Run. Iteration wall times are the gaps between
// OnIteration callbacks, the first measured from the call into Run.
func (e *engineEnv) job(set, run int, tr *tracer, parent int64) jobRecord {
	d := &e.sets[set]
	rec := jobRecord{set: set, tolS: math.NaN()}
	var rr *recorder
	if tr != nil {
		rr = tr.recorder(-1, run, parent)
	}
	hist := make([]core.IterStat, 0, e.cfg.MaxIter)
	heap := newHeapProbe()
	var allocFirst uint64
	start := time.Now()
	last := start
	var lastNs int64
	if rr != nil {
		lastNs = tr.now()
	}
	opts := core.RunOptions{Test: d.test, OnIteration: func(s core.IterStat) {
		now := time.Now()
		rec.iterMs = append(rec.iterMs, float64(now.Sub(last))/1e6)
		last = now
		if rr != nil {
			n := tr.now()
			rr.leaf("core.iteration", lastNs, n)
			lastNs = n
		}
		hist = append(hist, s)
		live, allocs := heap.read()
		rec.heapPeak = max(rec.heapPeak, float64(live))
		switch {
		case s.Iter == 1:
			allocFirst = allocs
		case s.Iter == e.cfg.MaxIter-1 && s.Iter > 1:
			rec.allocSteady = float64(allocs-allocFirst) / float64(s.Iter-1)
		}
		if math.IsNaN(rec.tolS) && s.PrimalRes <= e.w.tolFrac*hist[0].PrimalRes && s.DualRes <= e.w.tolFrac*hist[0].PrimalRes {
			rec.tolS = now.Sub(start).Seconds()
		}
	}}
	res, err := core.Run(e.cfg, d.train, opts)
	rec.wall = time.Since(start).Seconds()
	rec.iters = e.cfg.MaxIter
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	rec.finalObj = res.FinalObjective()
	if len(hist) > 0 {
		rec.obj0 = hist[0].Objective
	}
	rec.simSystem, rec.simCal, rec.simComm = res.SystemTime, res.TotalCalTime, res.TotalCommTime
	rec.wireBytes = float64(res.TotalBytes) / float64(len(hist))
	for _, s := range hist {
		rec.resident = max(rec.resident, float64(s.ResidentBytes))
	}
	rec.err = e.check(d, res, hist)
	if rec.err == "" && math.IsNaN(rec.tolS) {
		rec.err = fmt.Sprintf("residuals never reached %g x the iteration-0 primal residual", e.w.tolFrac)
	}
	if rec.err == "" && !d.refFull {
		d.ref, d.refFull, d.refFinal, d.refBytes = hist, true, res.FinalObjective(), res.TotalBytes
	}
	return rec
}

// check returns why a job's output is wrong, or "" when it is right: the
// history is complete and finite, the objective fell, nothing was
// quarantined or rolled back (no faults are injected), and the job repeats
// its dataset's reference bit for bit.
func (e *engineEnv) check(d *engineData, res *core.Result, hist []core.IterStat) string {
	if len(hist) != e.cfg.MaxIter {
		return fmt.Sprintf("history has %d iterations, want %d", len(hist), e.cfg.MaxIter)
	}
	for _, s := range hist {
		if !finite(s.Objective, s.PrimalRes, s.DualRes, s.CalTime, s.CommTime) || (d.test != nil && !finite(s.Accuracy)) {
			return fmt.Sprintf("iteration %d is not finite", s.Iter)
		}
	}
	if f0, f := hist[0].Objective, res.FinalObjective(); !(f < f0) {
		return fmt.Sprintf("final objective %v is not below the iteration-0 objective %v", f, f0)
	}
	if len(res.Quarantines) > 0 || len(res.Rollbacks) > 0 {
		return fmt.Sprintf("%d quarantines and %d rollbacks without injected faults", len(res.Quarantines), len(res.Rollbacks))
	}
	for i := range d.ref {
		if !sameStat(hist[i], d.ref[i]) {
			return fmt.Sprintf("iteration %d differs from an earlier job on the same data", i)
		}
	}
	if !d.refFull {
		return ""
	}
	if f := res.FinalObjective(); math.Float64bits(f) != math.Float64bits(d.refFinal) {
		return fmt.Sprintf("final objective %v differs from %v of an earlier job on the same data", f, d.refFinal)
	}
	if res.TotalBytes != d.refBytes {
		return fmt.Sprintf("%d bytes sent, %d in an earlier job on the same data", res.TotalBytes, d.refBytes)
	}
	return ""
}

func sameStat(a, b core.IterStat) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Iter == b.Iter && eq(a.Objective, b.Objective) && eq(a.Accuracy, b.Accuracy) &&
		eq(a.CalTime, b.CalTime) && eq(a.CommTime, b.CommTime) && a.Bytes == b.Bytes &&
		eq(a.PrimalRes, b.PrimalRes) && eq(a.DualRes, b.DualRes) && eq(a.Rho, b.Rho) &&
		a.LiveWorkers == b.LiveWorkers && a.ResidentBytes == b.ResidentBytes
}

// probe solves every rank's iteration-0 subproblem on the first dataset:
// x = y = z = 0 over the shard's active columns with the engine's TRON
// options.
func (e *engineEnv) probe(rec *recorder) (probeResult, error) {
	shards := e.sets[0].shards
	probs := make([]subproblem, len(shards))
	for i, s := range shards {
		probs[i] = activeSubproblem(s)
	}
	return probeSolves(probs, e.w.rho, e.cfg.Tron, 3, rec)
}
