package core

import (
	"psrahgadmm/internal/sparse"
)

// ringStrategy is the hierarchical Ring-Allreduce: workers reduce their w
// over the node bus to their Leader, all Leaders run one Ring-Allreduce,
// and the (much sparser) z fans back out. The codec decides the wire
// format — GR-ADMM is this ring with the exact sparse exchange under BSP;
// ADMMLib is the same ring with the dense single-precision exchange under
// node-granular SSP (the full parameter vector circulates regardless of
// sparsity, which is why its communication volume is flat in cluster size
// and why PSRA's sparse exchange undercuts it).
type ringStrategy struct {
	env     *strategyEnv
	clocks  []sspClock // per node
	batches *nodeBatches
	// lastRingEnd serializes consecutive rings through the Leaders' NICs.
	lastRingEnd float64
	// Reusable round scratch: barrier bookkeeping, the ring's result sinks
	// (aggS for the sparse exchange, bigWBuf for the dense one) and the
	// dense z the workers copy from.
	finishes []float64
	fresh    []int
	aggS     *sparse.Vector
	bigWBuf  []float64
	zDense   []float64
}

func newRingStrategy(env *strategyEnv, cfg Config) *ringStrategy {
	st := &ringStrategy{
		env:     env,
		clocks:  make([]sspClock, cfg.Topo.Nodes),
		batches: newNodeBatches(env, cfg.Topo.Nodes),
	}
	if env.codec.DenseExchange() {
		st.bigWBuf = make([]float64, env.dim)
	} else {
		st.aggS = new(sparse.Vector)
	}
	return st
}

func (st *ringStrategy) Round(cfg Config, iter int) (iterTiming, error) {
	env := st.env
	topo := cfg.Topo
	wpn := topo.WorkersPerNode
	dense := env.codec.DenseExchange()
	var timing iterTiming

	if env.reconciles() {
		st.batches.reconcile(env, st.clocks)
	}
	liveNodes, ranksOf := env.liveNodes(topo)
	st.batches.launch(env, cfg, iter, liveNodes, ranksOf, st.clocks)
	chargeLaunchBytes(st.clocks, iter, &timing)

	cutoff := sspCutoff(st.clocks, env.sync.Quorum(len(liveNodes), wpn), env.sync.Delay(), &st.finishes)
	st.fresh = admitted(st.clocks, cutoff, st.fresh)
	freshNodes := st.fresh
	for _, n := range freshNodes {
		st.batches.admit(n)
	}

	// The ring runs among every live node's Leader (the node's first
	// surviving rank) — stale Leaders serve their cached contribution.
	leaders := make([]int, 0, len(liveNodes))
	inputsD := make([][]float64, 0, len(liveNodes))
	inputsS := make([]*sparse.Vector, 0, len(liveNodes))
	for _, n := range liveNodes {
		leaders = append(leaders, ranksOf[n][0])
		if dense {
			inputsD = append(inputsD, st.batches.curD[n])
		} else {
			inputsS = append(inputsS, st.batches.cur[n])
		}
	}
	ringStart := maxf(cutoff, st.lastRingEnd)
	var commT float64
	var bigW []float64
	var agg *sparse.Vector
	if len(liveNodes) == 1 {
		if dense {
			// Copy: EncodeDense below mutates bigW, and the cached
			// contribution must stay intact for later stale rounds.
			bigW = st.bigWBuf
			copy(bigW, inputsD[0])
		} else {
			agg = inputsS[0]
		}
	} else if dense {
		tr, err := groupAllreduceDense(env, leaders, inputsD, st.bigWBuf)
		if err != nil {
			return timing, err
		}
		bigW = st.bigWBuf
		scaled := env.codec.WireTrace(tr)
		commT = cfg.Cost.TraceTime(topo, scaled)
		timing.bytes += traceBytes(scaled)
	} else {
		tr, err := groupAllreduce(env, leaders, commRingSparse, inputsS, st.aggS)
		if err != nil {
			return timing, err
		}
		agg = st.aggS
		tr = env.codec.WireTrace(tr)
		commT = cfg.Cost.TraceTime(topo, tr)
		timing.bytes += traceBytes(tr)
	}
	ringEnd := ringStart + commT
	st.lastRingEnd = ringEnd

	// Leaders hold W after the ring; they apply the z-update — averaging
	// over the surviving workers — and fan the thresholded z to their
	// fresh workers.
	contributors := env.members.LiveCount()
	var zDense []float64
	var zSparse *sparse.Vector
	if dense {
		env.codec.EncodeDense(bigW)
		if st.zDense == nil {
			st.zDense = make([]float64, env.dim)
		}
		zDense = st.zDense
		solverZUpdate(zDense, bigW, cfg.Lambda, cfg.Rho, contributors)
		env.codec.EncodeDense(zDense)
	} else {
		zSparse = zFromW(agg, cfg.Lambda, cfg.Rho, contributors)
		st.zDense = zSparse.ToDenseInto(st.zDense)
		zDense = st.zDense
	}

	calSum, commSum := 0.0, 0.0
	applied := 0
	for _, n := range freshNodes {
		p := st.clocks[n].pending
		var bc traceAlias
		if dense {
			bc = denseFanTrace(p.ranks, p.ranks[0], env.codec.ZMsgBytes(countNonzero(zDense)), false)
		} else {
			bc = intraBcastTrace(p.ranks, p.ranks[0], zSparse.NNZ())
		}
		timing.bytes += traceBytes(bc)
		end := ringEnd + cfg.Cost.TraceTime(topo, bc)
		for _, c := range p.cals {
			calSum += c
		}
		applyNodeZ(env, cfg, p, zDense, zSparse, end, &commSum, &applied)
		st.clocks[n].pending = nil
		st.clocks[n].staleness = 0
	}
	bumpStale(st.clocks)
	if applied > 0 {
		timing.cal = calSum / float64(applied)
		timing.comm = commSum / float64(applied)
	}
	return timing, nil
}
