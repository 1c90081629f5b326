package core

import (
	"fmt"
	"math/rand"

	"psrahgadmm/internal/collective"
	"psrahgadmm/internal/exchange"
	"psrahgadmm/internal/membership"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/sparse"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/watchdog"
)

// The ConsensusStrategy axis: HOW the aggregated W = Σ(yᵢ + ρxᵢ) is formed
// and the thresholded z redistributed. Each strategy is one file
// implementing one round of its topology's protocol against the shared
// substrate — the virtual clock, the real collective implementations over
// the scratch fabric, the SyncModel barrier, and the ExchangeCodec wire
// format. The engine's Run loop is strategy-agnostic; adding a topology
// means adding one strategy file and a registry entry, not a seventh copy
// of the iteration loop.

// ConsensusKind names a consensus strategy in the algorithm registry.
type ConsensusKind string

// The implemented consensus strategies.
const (
	// ConsensusStar gathers every worker's contribution at a master
	// (rank 0) whose links serialize all traffic — GC-ADMM under BSP,
	// AD-ADMM under SSP.
	ConsensusStar ConsensusKind = "star"
	// ConsensusRing reduces within nodes, then runs a Ring-Allreduce among
	// all node Leaders — GR-ADMM (sparse, BSP) and ADMMLib (dense fp32,
	// SSP).
	ConsensusRing ConsensusKind = "ring"
	// ConsensusFlat runs one cluster-wide PSR-Allreduce with every worker
	// as a peer — PSRA-ADMM, the §4.2 algorithm before WLG grouping.
	ConsensusFlat ConsensusKind = "flat-psr"
	// ConsensusTree is PSRA-HGADMM's staged aggregation tree: arrival-
	// ordered Leader groups merge partials through the GG until W is exact
	// global consensus.
	ConsensusTree ConsensusKind = "tree"
	// ConsensusGroupLocal is the group-local reading of Algorithms 1–3:
	// one grouping round per iteration, each group computing z from its
	// own members only.
	ConsensusGroupLocal ConsensusKind = "group-local"
)

// ConsensusKinds lists every implemented consensus strategy.
func ConsensusKinds() []ConsensusKind {
	return []ConsensusKind{ConsensusStar, ConsensusRing, ConsensusFlat, ConsensusTree, ConsensusGroupLocal}
}

// ConsensusStrategy executes one aggregation round. Implementations keep
// their own cross-round state (clocks, cached contributions); cfg is
// passed per round because AdaptiveRho mutates it mid-run.
type ConsensusStrategy interface {
	Round(cfg Config, iter int) (iterTiming, error)
}

// iterTiming aggregates one iteration's virtual-time accounting.
type iterTiming struct {
	cal   float64 // mean per-worker compute time
	comm  float64 // mean per-worker wait+transfer time
	bytes int64
}

// strategyEnv bundles the per-run substrate every strategy round uses.
type strategyEnv struct {
	ws    []*worker
	fab   transport.Fabric
	codec exchange.Codec
	// states, non-nil only under the top-k codecs, holds each world rank's
	// error-feedback residual and adaptive selection budget. Encoding then
	// routes through encodeSparse so the residual is merged before
	// selection; every other codec takes the stateless path untouched
	// (bit-identical to the pre-topk engine).
	states []*exchange.State
	sync   SyncModel
	dim    int
	// members is the run's monotonic membership view. It is always
	// present; in a non-elastic run nothing is ever marked down, so every
	// live filter is an identity and the happy path is bit-identical to
	// the pre-elastic engine.
	members *membership.Tracker
	// elastic enables degraded-mode continuation: collectives run under
	// the abort latch instead of closing the fabric, and strategies prune
	// dead ranks instead of failing.
	elastic bool
	// corruptible marks a run whose fault plan can corrupt frames. Such
	// runs also latch their collectives (even fail-stop ones): a
	// checksum-dropped frame is retried over the SAME fabric, which must
	// therefore survive the failed attempt. Clean fail-stop runs keep the
	// raw endpoints — the latch's poll loop costs allocations the
	// steady-state budget does not pay for a fault-free run.
	corruptible bool
	// seq numbers collective invocations so every attempt — including
	// retries of a failed round — gets a fresh, globally unique tag
	// window. Stale messages from an aborted attempt can then never be
	// matched by a later one.
	seq int32
	// crew and pool are the run's persistent goroutine sets: collective
	// members and x-update executors. Both exist so the steady-state
	// round touches no heap — see DESIGN.md "Memory model & buffer
	// ownership".
	crew *crew
	pool *computePool
	// ts is the cost model's per-run scratch for trace timing.
	ts simnet.TimeScratch
	// store owns the consensus state's placement — replicated dense z or
	// block-sharded z. Everything placement-specific the strategies touch
	// (the W collective, the z-update's contributor scaling, delivery,
	// wire encoding) routes through it; see statestore.go.
	store stateStore
	// agg is the run's consensus reduce statistic. The zero value (mean)
	// stamps every collective job with the bit-identical sum kernels; the
	// robust kinds swap in the owner-side trimmed-mean/median combine.
	agg collective.AggSpec
	// screen, non-nil when Config.Screen is enabled, scores every encoded
	// contribution at the encodeSparse chokepoint. The engine reads the
	// strike counts at iteration boundaries and turns them into
	// membership quarantines.
	screen *watchdog.Screen
	// byz, non-nil when the fault plan schedules Byzantine ranks, holds
	// each world rank's poison state. The poison is applied AFTER codec
	// encoding — exactly where a compromised worker would inject it — and
	// BEFORE the screen observes, so the screen judges what the wire
	// carries.
	byz     []byzRank
	byzSeed int64
	// curIter is the iteration the current round belongs to, set by the
	// engine before each Round call. Poison schedules and the seeded
	// 'random' mode key on it, so corrupt-frame retries of the same round
	// replay identically.
	curIter int
}

// byzRank is one rank's scheduled Byzantine behavior (see
// transport.ByzantineFault). stale retains the last clean encoded
// contribution from before activation for the stale-replay mode.
type byzRank struct {
	mode  string
	from  int
	until int // 0 = forever
	stale *sparse.Vector
}

// active reports whether the poison applies at iteration iter.
func (b *byzRank) active(iter int) bool {
	return b.mode != "" && iter >= b.from && (b.until == 0 || iter < b.until)
}

// reconciles reports whether strategies must prune !Alive ranks from their
// pending state each round: elastic runs (deaths shrink the world) and
// screened runs (quarantines do the same, without a transport death).
func (env *strategyEnv) reconciles() bool {
	return env.elastic || env.screen != nil
}

// poisonSparse applies rank's scheduled Byzantine poison to its encoded
// contribution in place. Before activation it snapshots the clean vector
// for stale-replay; after (or outside a bounded window) it is a no-op.
func (env *strategyEnv) poisonSparse(rank int, v *sparse.Vector) {
	b := &env.byz[rank]
	if b.mode == "" {
		return
	}
	if !b.active(env.curIter) {
		if b.mode == transport.ByzantineStaleReplay && env.curIter < b.from {
			b.stale = v.Clone()
		}
		return
	}
	switch b.mode {
	case transport.ByzantineSignFlip:
		v.Scale(-1)
	case transport.ByzantineScale:
		v.Scale(10)
	case transport.ByzantineRandom:
		rng := rand.New(rand.NewSource(env.byzSeed ^
			(int64(rank)+1)*0x5851f42d4c957f2d ^
			(int64(env.curIter)+1)*0x2545f4914f6cdd1d))
		for k := range v.Value {
			v.Value[k] = 2*rng.Float64() - 1
		}
	case transport.ByzantineStaleReplay:
		if b.stale != nil {
			v.Reset(v.Dim)
			v.Index = append(v.Index, b.stale.Index...)
			v.Value = append(v.Value, b.stale.Value...)
		}
	}
}

func equalRanks(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tagWindowBase starts the collective tag space well above the small
// hand-assigned tags, and every window is 8 tags wide (the widest any
// collective uses).
const tagWindowBase = int32(1) << 16

// nextTagBase allocates the next collective invocation's tag window.
// Called from the single strategy goroutine only.
func (env *strategyEnv) nextTagBase() int32 {
	b := tagWindowBase + env.seq*8
	env.seq++
	return b
}

// encodeSparse routes one rank's contribution through the codec: stateful
// top-k error feedback when the run carries per-rank exchange state, the
// store's stateless path otherwise. rank is a world rank. This is the
// single chokepoint every strategy's contributions pass through on their
// way into a reduce, so the Byzantine poison (after the codec — what a
// compromised worker ships) and the contribution screen (after the
// poison — the screen judges the wire bytes) both live here.
func (env *strategyEnv) encodeSparse(rank int, v *sparse.Vector) {
	if env.states != nil {
		env.states[rank].Encode(v)
	} else {
		env.store.encodeSparse(v)
	}
	if env.byz != nil {
		env.poisonSparse(rank, v)
	}
	env.screen.ObserveSparse(rank, v)
}

// newStrategy instantiates the consensus strategy for one run.
func newStrategy(kind ConsensusKind, env *strategyEnv, cfg Config) (ConsensusStrategy, error) {
	if env.store.Sharded() {
		switch kind {
		case ConsensusFlat, ConsensusStar, ConsensusTree:
		default:
			return nil, fmt.Errorf("core: sharded state supports flat-psr, star, and tree consensus, not %s", kind)
		}
	}
	switch kind {
	case ConsensusStar:
		return newStarStrategy(env), nil
	case ConsensusFlat:
		if env.codec.DenseExchange() {
			return nil, fmt.Errorf("core: %s consensus requires a sparse codec, got %s", kind, env.codec.Kind())
		}
		return newFlatStrategy(env), nil
	case ConsensusRing:
		return newRingStrategy(env, cfg), nil
	case ConsensusTree, ConsensusGroupLocal:
		if env.codec.DenseExchange() {
			return nil, fmt.Errorf("core: %s consensus requires a sparse codec, got %s", kind, env.codec.Kind())
		}
		if kind == ConsensusTree {
			return newTreeStrategy(env, cfg), nil
		}
		return newGroupStrategy(env, cfg), nil
	}
	return nil, fmt.Errorf("core: unknown consensus strategy %q", kind)
}

// nodeBatches is the launch side of the hierarchical strategies (tree,
// group-local and ring). Every idle live node's workers solve in ONE
// compute-pool batch — the paper's Algorithm 1, where all workers compute
// before any Leader aggregates — and then, node by node in node order,
// each worker's w is built and encoded and the node's Leader-held partial
// sum is reduced. An x-update touches only its own worker's state, so
// batching the solves across nodes leaves every encode, every sum and
// every history bit-identical to launching one node at a time.
//
// It also owns the per-node partial sums and every buffer a launch
// writes, so a steady-state round reuses them instead of allocating:
//   - w[r] holds rank r's encoded contribution. It is rewritten only when
//     r's node launches again, which happens only once the node's previous
//     batch (whose pendingCompute.vs holds w[r]) was admitted or dropped.
//   - pend[n] is node n's in-flight partial sum and cur[n] the last
//     admitted one, which a stale node keeps serving under SSP. Each node
//     has two sum buffers; a launch writes the one cur[n] does not hold.
//   - slots[n] backs node n's pendingCompute.
//
// The dense exchange (the ring under the ADMMLib codec) keeps its sums in
// pendD/curD, with the same two-buffer discipline.
type nodeBatches struct {
	dense       bool
	pend, cur   []*sparse.Vector
	pendD, curD [][]float64
	bufs        [][2]*sparse.Vector
	bufsD       [][2][]float64
	w           []*sparse.Vector
	slots       []pendingCompute
	acc         *sparse.Accumulator
	// Per-launch scratch.
	sub  []*worker
	nnzs []int
}

func newNodeBatches(env *strategyEnv, nodes int) *nodeBatches {
	b := &nodeBatches{
		dense: env.codec.DenseExchange(),
		w:     make([]*sparse.Vector, len(env.ws)),
		slots: make([]pendingCompute, nodes),
	}
	for r := range b.w {
		b.w[r] = new(sparse.Vector)
	}
	if b.dense {
		b.pendD = make([][]float64, nodes)
		b.curD = make([][]float64, nodes)
		b.bufsD = make([][2][]float64, nodes)
		for n := range b.bufsD {
			b.bufsD[n] = [2][]float64{make([]float64, env.dim), make([]float64, env.dim)}
			b.curD[n] = b.bufsD[n][1]
		}
		return b
	}
	b.pend = make([]*sparse.Vector, nodes)
	b.cur = make([]*sparse.Vector, nodes)
	b.bufs = make([][2]*sparse.Vector, nodes)
	for n := range b.bufs {
		b.bufs[n] = [2]*sparse.Vector{sparse.NewVector(env.dim, 0), sparse.NewVector(env.dim, 0)}
		b.cur[n] = b.bufs[n][1]
	}
	b.acc = sparse.NewAccumulator(env.dim)
	return b
}

// launch starts a batch on every idle live node (ranksOf[n] lists node
// n's live ranks) and records it in clocks[n].pending. Workers' clocks are
// NOT advanced here — they move to the round's end when the consensus is
// applied — so the launch is identical under BSP and SSP. The fan-in's
// wire bytes ride on the batch (see pendingCompute) and are charged by
// chargeLaunchBytes in the consuming round.
func (b *nodeBatches) launch(env *strategyEnv, cfg Config, iter int, liveNodes []int, ranksOf [][]int, clocks []sspClock) {
	sub := b.sub[:0]
	for _, n := range liveNodes {
		if clocks[n].pending == nil {
			for _, r := range ranksOf[n] {
				sub = append(sub, env.ws[r])
			}
		}
	}
	b.sub = sub
	cals := env.pool.run(cfg, sub, iter)
	for _, n := range liveNodes {
		if clocks[n].pending != nil {
			continue
		}
		ranks := ranksOf[n]
		// The pool's times are per-run scratch; the batch outlives the
		// round, so it keeps its own copy.
		p := &b.slots[n]
		*p = pendingCompute{
			ranks:      append(p.ranks[:0], ranks...),
			starts:     p.starts[:0],
			cals:       append(p.cals[:0], cals[:len(ranks)]...),
			vs:         p.vs[:0],
			launchIter: iter,
		}
		cals = cals[len(ranks):]
		nnzs := b.nnzs[:0]
		ready := 0.0
		for i, r := range ranks {
			w := env.ws[r]
			v := w.wSparseInto(b.w[r], cfg.Rho)
			if !b.dense {
				env.encodeSparse(r, v)
			}
			p.starts = append(p.starts, w.clock)
			p.vs = append(p.vs, v)
			nnzs = append(nnzs, v.NNZ())
			ready = maxf(ready, w.clock+p.cals[i])
		}
		b.nnzs = nnzs
		b.reduce(env, n, p.vs)
		var tr collective.Trace
		if b.dense {
			tr = denseFanTrace(ranks, ranks[0], env.codec.DenseMsgBytes(env.dim), true)
		} else {
			tr = env.codec.WireTrace(intraReduceTrace(ranks, ranks[0], nnzs))
		}
		p.finish = ready + cfg.Cost.TraceTime(cfg.Topo, tr)
		p.launchBytes = traceBytes(tr)
		clocks[n].pending = p
	}
}

// reduce sums node n's encoded contributions, in member order, into the
// node's in-flight partial: sparse, or densely summed and rounded by the
// codec for the dense exchange.
func (b *nodeBatches) reduce(env *strategyEnv, n int, vs []*sparse.Vector) {
	if b.dense {
		dst := b.bufsD[n][0]
		if &dst[0] == &b.curD[n][0] {
			dst = b.bufsD[n][1]
		}
		vec.Zero(dst)
		for _, v := range vs {
			v.AddIntoDense(dst, 1)
		}
		env.codec.EncodeDense(dst)
		b.pendD[n] = dst
		return
	}
	dst := b.bufs[n][0]
	if dst == b.cur[n] {
		dst = b.bufs[n][1]
	}
	for _, v := range vs {
		b.acc.Add(v)
	}
	b.pend[n] = b.acc.SumInto(dst)
}

// admit makes node n's in-flight partial its cached one, the sum the node
// serves while stale in later rounds.
func (b *nodeBatches) admit(n int) {
	if b.dense {
		b.curD[n] = b.pendD[n]
	} else {
		b.cur[n] = b.pend[n]
	}
}

// reconcile absorbs membership changes since the last attempt: dead
// members leave every in-flight batch and the node partial sums are
// rebuilt from the survivors' retained contributions. A node with no
// survivors drops out entirely. Cached partials (cur) are left as-is —
// under SSP a dead worker's w can linger in a live node's cached partial
// for at most MaxDelay rounds (bounded staleness); under BSP every round
// is fresh and degraded consensus is exact.
func (b *nodeBatches) reconcile(env *strategyEnv, clocks []sspClock) {
	for n := range clocks {
		p := clocks[n].pending
		if p == nil || !env.prunePending(p) {
			continue
		}
		if len(p.ranks) == 0 {
			clocks[n] = sspClock{}
			continue
		}
		b.reduce(env, n, p.vs)
	}
}

// roundVecs hands out strategy-owned sparse vectors that live for one
// round (merge results, group aggregates), recycled from the next.
type roundVecs struct {
	vs   []*sparse.Vector
	used int
}

func (r *roundVecs) reset() { r.used = 0 }

func (r *roundVecs) next() *sparse.Vector {
	if r.used == len(r.vs) {
		r.vs = append(r.vs, new(sparse.Vector))
	}
	v := r.vs[r.used]
	r.used++
	return v
}

// chargeLaunchBytes charges the launch fan-in of every batch launched
// this iteration into the attempt's timing. Keying on the launch
// iteration (rather than the launch call, which an elastic retry skips
// because the batch survives attempts) keeps Bytes identical whether or
// not the round needed retries, and leaves SSP attribution unchanged: a
// stale batch was charged in its own launch round.
func chargeLaunchBytes(clocks []sspClock, iter int, timing *iterTiming) {
	for i := range clocks {
		if p := clocks[i].pending; p != nil && p.launchIter == iter {
			timing.bytes += p.launchBytes
		}
	}
}

// applyNodeZ delivers the consensus iterate to a pending batch's members
// at virtual time end and folds their wait+transfer time into commSum.
// Compute time is summed separately by the caller: the strategies
// accumulate cal in rank order but comm in delivery order, and float
// summation order is part of the determinism contract. The batch's own
// rank list is authoritative — in a degraded run it holds only the
// members that were live at launch (minus any pruned since).
func applyNodeZ(env *strategyEnv, cfg Config, p *pendingCompute,
	zDense []float64, zSparse *sparse.Vector, end float64,
	commSum *float64, applied *int) {
	for i, r := range p.ranks {
		env.store.applyZ(cfg, env.ws[r], zDense, zSparse)
		*commSum += end - p.starts[i] - p.cals[i]
		env.ws[r].clock = end
		*applied++
	}
}
