// Package solver provides the smooth-subproblem machinery of consensus
// ADMM: twice-differentiable objectives (L2-prox-regularized logistic loss
// and least squares), a trust-region Newton solver (TRON, the same
// algorithm LIBLINEAR uses and the paper's subproblem solver, ref. [14]),
// and the proximal operators used by the z-update.
package solver

import (
	"math"

	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/vec"
)

// Objective is a twice-differentiable function with Hessian-vector
// products, the contract TRON needs. Implementations cache curvature state
// from the most recent Eval; HessVec applies the Hessian at that point.
type Objective interface {
	// Dim returns the number of variables.
	Dim() int
	// Eval returns f(x) and writes the gradient into g (length Dim).
	Eval(x, g []float64) float64
	// HessVec writes H·v into hv, where H is the Hessian at the point of
	// the last Eval call.
	HessVec(v, hv []float64)
}

// LogLoss returns log(1 + e^{-m}) computed without overflow for any m.
func LogLoss(margin float64) float64 {
	if margin >= 0 {
		return math.Log1p(math.Exp(-margin))
	}
	return -margin + math.Log1p(math.Exp(margin))
}

// Sigmoid returns 1/(1+e^{-t}) without overflow.
func Sigmoid(t float64) float64 {
	if t >= 0 {
		return 1 / (1 + math.Exp(-t))
	}
	e := math.Exp(t)
	return e / (1 + e)
}

// LogisticProx is the ADMM x-subproblem objective of worker i for
// L1-regularized logistic regression (paper eq. 4):
//
//	f(x) = Σ_j log(1 + exp(-b_j·a_jᵀx)) + yᵀx + (ρ/2)·‖x − z‖²
//
// where (a_j, b_j) are the worker's data shard and (y, z) the current dual
// and consensus iterates. The loss term is the local f_i; the linear and
// quadratic terms come from the augmented Lagrangian.
type LogisticProx struct {
	Data   *sparse.CSR
	Labels []float64 // entries in {-1, +1}
	Rho    float64
	Y, Z   []float64

	margins []float64 // Ax cache from last Eval
	d       []float64 // σ(1−σ) curvature cache
	av      []float64 // gradient-coefficient scratch for Eval
}

// NewLogisticProx constructs the subproblem objective. Labels must match
// Data.NRows; Y and Z must match Data.NCols and may be updated in place by
// the caller between TRON solves.
func NewLogisticProx(data *sparse.CSR, labels []float64, rho float64, y, z []float64) *LogisticProx {
	if len(labels) != data.NRows {
		panic("solver: labels length != rows")
	}
	if len(y) != data.NCols || len(z) != data.NCols {
		panic("solver: y/z length != cols")
	}
	return &LogisticProx{
		Data:    data,
		Labels:  labels,
		Rho:     rho,
		Y:       y,
		Z:       z,
		margins: make([]float64, data.NRows),
		d:       make([]float64, data.NRows),
		av:      make([]float64, data.NRows),
	}
}

// Dim implements Objective.
func (o *LogisticProx) Dim() int { return o.Data.NCols }

// Eval implements Objective.
func (o *LogisticProx) Eval(x, g []float64) float64 {
	m := o.Data
	m.MulVec(o.margins, x)
	var loss float64
	// grad = Aᵀc + y + ρ(x−z), with c_j = −b_j·σ(−b_j·m_j).
	for j := 0; j < m.NRows; j++ {
		bm := o.Labels[j] * o.margins[j]
		loss += LogLoss(bm)
		s := Sigmoid(-bm)
		o.d[j] = s * (1 - s)
		o.av[j] = -o.Labels[j] * s
	}
	m.MulTransVec(g, o.av)
	for i := range g {
		diff := x[i] - o.Z[i]
		g[i] += o.Y[i] + o.Rho*diff
		loss += o.Y[i]*x[i] + 0.5*o.Rho*diff*diff
	}
	return loss
}

// HessVec implements Objective: hv = Aᵀ·D·A·v + ρ·v with D from last Eval.
func (o *LogisticProx) HessVec(v, hv []float64) {
	o.Data.MulATDAVec(hv, v, o.d)
	vec.Axpy(o.Rho, v, hv)
}

// LocalLoss returns only the data-fit part Σ log(1+exp(−b·aᵀx)) at x,
// without the augmented-Lagrangian terms. The engine sums this across
// workers to report the paper's global objective (eq. 17).
func (o *LogisticProx) LocalLoss(x []float64) float64 {
	m := o.Data
	var loss float64
	for j := 0; j < m.NRows; j++ {
		loss += LogLoss(o.Labels[j] * m.RowDot(j, x))
	}
	return loss
}

// LeastSquaresProx is the ADMM x-subproblem for consensus lasso:
//
//	f(x) = ½‖Ax − b‖² + yᵀx + (ρ/2)‖x − z‖²
//
// Used by the lasso example to show the engine is objective-generic.
type LeastSquaresProx struct {
	Data *sparse.CSR
	B    []float64
	Rho  float64
	Y, Z []float64

	resid []float64
}

// NewLeastSquaresProx constructs the lasso subproblem objective.
func NewLeastSquaresProx(data *sparse.CSR, b []float64, rho float64, y, z []float64) *LeastSquaresProx {
	if len(b) != data.NRows {
		panic("solver: b length != rows")
	}
	if len(y) != data.NCols || len(z) != data.NCols {
		panic("solver: y/z length != cols")
	}
	return &LeastSquaresProx{
		Data:  data,
		B:     b,
		Rho:   rho,
		Y:     y,
		Z:     z,
		resid: make([]float64, data.NRows),
	}
}

// Dim implements Objective.
func (o *LeastSquaresProx) Dim() int { return o.Data.NCols }

// Eval implements Objective.
func (o *LeastSquaresProx) Eval(x, g []float64) float64 {
	m := o.Data
	m.MulVec(o.resid, x)
	var loss float64
	for j := range o.resid {
		o.resid[j] -= o.B[j]
		loss += 0.5 * o.resid[j] * o.resid[j]
	}
	m.MulTransVec(g, o.resid)
	for i := range g {
		diff := x[i] - o.Z[i]
		g[i] += o.Y[i] + o.Rho*diff
		loss += o.Y[i]*x[i] + 0.5*o.Rho*diff*diff
	}
	return loss
}

// HessVec implements Objective: hv = AᵀAv + ρv.
func (o *LeastSquaresProx) HessVec(v, hv []float64) {
	o.Data.MulATDAVec(hv, v, nil)
	vec.Axpy(o.Rho, v, hv)
}

// LocalLoss returns ½‖Ax−b‖² at x.
func (o *LeastSquaresProx) LocalLoss(x []float64) float64 {
	m := o.Data
	var loss float64
	for j := 0; j < m.NRows; j++ {
		r := m.RowDot(j, x) - o.B[j]
		loss += 0.5 * r * r
	}
	return loss
}
