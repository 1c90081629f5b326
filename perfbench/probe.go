package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/wire"
)

// countingObjective wraps a solver.Objective and counts and times the
// calls TRON makes into it.
type countingObjective struct {
	inner        solver.Objective
	evals, hvs   int
	evalNs, hvNs int64
}

func (c *countingObjective) Dim() int { return c.inner.Dim() }

func (c *countingObjective) Eval(x, g []float64) float64 {
	t := time.Now()
	f := c.inner.Eval(x, g)
	c.evalNs += int64(time.Since(t))
	c.evals++
	return f
}

func (c *countingObjective) HessVec(v, hv []float64) {
	t := time.Now()
	c.inner.HessVec(v, hv)
	c.hvNs += int64(time.Since(t))
	c.hvs++
}

// subproblem is one rank's first x-update: minimize the logistic loss of
// its shard plus (ρ/2)‖x‖² from x = y = z = 0.
type subproblem struct {
	a      *sparse.CSR
	labels []float64
}

// activeSubproblem restricts a shard to the columns it touches, the
// compacted problem the engine's workers solve.
func activeSubproblem(shard *dataset.Dataset) subproblem {
	src := shard.X
	seen := make(map[int32]struct{})
	for _, c := range src.ColIdx {
		seen[c] = struct{}{}
	}
	active := make([]int32, 0, len(seen))
	for c := range seen {
		active = append(active, c)
	}
	sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })
	remap := make(map[int32]int32, len(active))
	for i, c := range active {
		remap[c] = int32(i)
	}
	a := &sparse.CSR{NRows: src.NRows, NCols: len(active), RowPtr: src.RowPtr,
		ColIdx: make([]int32, len(src.ColIdx)), Val: src.Val}
	for k, c := range src.ColIdx {
		a.ColIdx[k] = remap[c]
	}
	return subproblem{a: a, labels: shard.Labels}
}

// hessVecBytes is the memory a LogisticProx.HessVec reads and writes,
// computed from the CSR sizes: two passes over RowPtr, ColIdx and Val, a
// gather and a read-modify-write scatter per nonzero, four row-length
// vector passes and four column-length ones.
func hessVecBytes(a *sparse.CSR) float64 {
	nnz, rows, cols := float64(a.NNZ()), float64(a.NRows), float64(a.NCols)
	return 2*(8*(rows+1)+12*nnz) + 24*nnz + 32*rows + 32*cols
}

// probeResult is the solver and kernel probe's report.
type probeResult struct {
	solveMs                     []float64
	hessvecs, newtons, funevals float64 // per solve
	hvUs, evalUs                float64
	hvBytes                     float64
}

// probeSolves solves every subproblem reps times through
// solver.TRONWorkspace and a countingObjective. Work counts are per solve;
// solve times are the per-subproblem medians over the reps.
func probeSolves(probs []subproblem, rho float64, opts solver.TronOptions, reps int, rec *recorder) (probeResult, error) {
	var out probeResult
	var ws solver.Workspace
	var evals, hvs, newtons int
	var evalNs, hvNs int64
	var hvBytes float64
	for _, p := range probs {
		var times []float64
		hvBytes += hessVecBytes(p.a)
		for r := 0; r < reps; r++ {
			n := p.a.NCols
			y, z, x := make([]float64, n), make([]float64, n), make([]float64, n)
			obj := &countingObjective{inner: solver.NewLogisticProx(p.a, p.labels, rho, y, z)}
			var h scopeHandle
			if rec != nil {
				h = rec.begin("solver.TRON")
			}
			t := time.Now()
			res := solver.TRONWorkspace(obj, x, opts, &ws)
			times = append(times, float64(time.Since(t))/1e6)
			if rec != nil {
				rec.end(h)
			}
			if !finite(res.F) || obj.hvs != res.CGIters {
				return out, fmt.Errorf("probe: solve gave f=%v with %d HessVecs counted, %d reported", res.F, obj.hvs, res.CGIters)
			}
			evals, hvs, newtons = evals+obj.evals, hvs+obj.hvs, newtons+res.Iters
			evalNs, hvNs = evalNs+obj.evalNs, hvNs+obj.hvNs
		}
		out.solveMs = append(out.solveMs, median(times))
	}
	solves := float64(len(probs) * reps)
	out.hessvecs, out.newtons, out.funevals = float64(hvs)/solves, float64(newtons)/solves, float64(evals)/solves
	out.hvUs = float64(hvNs) / 1e3 / float64(max(hvs, 1))
	out.evalUs = float64(evalNs) / 1e3 / float64(max(evals, 1))
	out.hvBytes = hvBytes / float64(len(probs))
	return out, nil
}

// frameRoundtripUs times wire.AppendMessage + wire.DecodeFrom on one dense
// frame of dim values: the median over batches of the mean per frame.
func frameRoundtripUs(dim int) (float64, error) {
	x := make([]float64, dim)
	for i := range x {
		x[i] = float64(i%97) * 0.25
	}
	m := wire.DenseMsg(7, x)
	var buf, payload []byte
	var rd bytes.Reader
	const batches, per = 41, 50
	var means []float64
	for b := 0; b < batches; b++ {
		t := time.Now()
		for i := 0; i < per; i++ {
			var err error
			if buf, err = wire.AppendMessage(buf[:0], m); err != nil {
				return 0, err
			}
			rd.Reset(buf)
			var got wire.Message
			if got, payload, err = wire.DecodeFrom(&rd, payload); err != nil {
				return 0, err
			}
			if len(got.Dense) != dim || got.Dense[dim-1] != x[dim-1] {
				return 0, fmt.Errorf("probe: dense frame did not round-trip")
			}
		}
		means = append(means, float64(time.Since(t))/1e3/per)
	}
	return median(means), nil
}
