package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"time"

	"psrahgadmm/internal/dataset"
	"psrahgadmm/internal/simnet"
	"psrahgadmm/internal/solver"
	"psrahgadmm/internal/transport"
	"psrahgadmm/internal/vec"
	"psrahgadmm/internal/watchdog"
	"psrahgadmm/internal/wire"
	"psrahgadmm/internal/wlg"
)

// meshTron is psra-worker's x-update setting.
var meshTron = solver.TronOptions{MaxIter: 10, MaxCG: 20}

// meshEnv runs a workload on the wlg fail-stop runtime over an in-process
// loopback TCP mesh: one endpoint per worker plus the Group Generator, all
// in this process. Each dataset's set-up establishes a mesh; the last one
// stays open and every job reuses it. A job starts only after every rank
// of the previous one returned, so no message of one job is left for the
// next.
type meshEnv struct {
	w    *workload
	cfg  wlg.Config
	sets []meshData
	eps  []transport.Endpoint
}

// meshData is one dataset of a run, split across the workers.
type meshData struct {
	shards []*dataset.Dataset
	dim    int
}

func newMeshEnv(w *workload, seed int64) (*meshEnv, []setupTimes, error) {
	m := &meshEnv{w: w, cfg: wlg.Config{Topo: w.topo, MaxIter: w.iters, Watchdog: watchdog.Config{Enabled: true}}}
	var sts []setupTimes
	for k := 0; k < w.datasets; k++ {
		var st setupTimes
		runtime.GC() // each set-up starts from a collected heap
		t := time.Now()
		train, _, err := dataset.Generate(w.data(dataSeed(seed, k)))
		if err != nil {
			m.close()
			return nil, nil, err
		}
		st.gen = time.Since(t).Seconds()
		t = time.Now()
		shards := train.Shard(w.topo.Size())
		st.shard = time.Since(t).Seconds()
		t = time.Now()
		eps, err := dialMesh(wlg.WorldSize(w.topo))
		if err != nil {
			m.close()
			return nil, nil, err
		}
		st.mesh = time.Since(t).Seconds()
		m.close()
		m.eps = eps
		m.sets = append(m.sets, meshData{shards: shards, dim: train.Dim()})
		sts = append(sts, st)
	}
	return m, sts, nil
}

// dialMesh establishes a loopback TCP mesh of n endpoints. Each rank is
// started once the previous one has had a moment to listen, so dials
// rarely wait out a retry.
func dialMesh(n int) ([]transport.Endpoint, error) {
	addrs, err := meshAddrs(n)
	if err != nil {
		return nil, err
	}
	eps := make([]transport.Endpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eps[i], errs[i] = transport.NewTCPEndpoint(i, addrs, transport.TCPOptions{
				DialTimeout:   10 * time.Second,
				RetryInterval: time.Millisecond,
			})
		}(i)
		time.Sleep(200 * time.Microsecond)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// A rank that failed leaves its peers waiting in Accept, which has
		// no deadline; the run fails and the process exits.
		return nil, fmt.Errorf("mesh set-up did not finish in 30s")
	}
	if err := errors.Join(errs...); err != nil {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
		return nil, fmt.Errorf("mesh set-up: %w", err)
	}
	return eps, nil
}

// meshAddrs picks n free loopback ports below 32768, where Linux does not
// hand out the local ports of outgoing connections: a port taken from the
// ephemeral range could be taken again by one of the mesh's own dials
// before its rank listens on it.
func meshAddrs(n int) ([]string, error) {
	const lo, hi = 20000, 32768
	for attempt := 0; attempt < 100; attempt++ {
		base := lo + rand.IntN(hi-lo-n)
		addrs := make([]string, n)
		var lns []net.Listener
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", base+i)
			ln, err := net.Listen("tcp", addrs[i])
			if err != nil {
				break
			}
			lns = append(lns, ln)
		}
		for _, ln := range lns {
			ln.Close()
		}
		if len(lns) == n {
			return addrs, nil
		}
	}
	return nil, fmt.Errorf("no %d free loopback ports in [%d, %d)", n, lo, hi)
}

func (m *meshEnv) close() {
	for _, ep := range m.eps {
		ep.Close()
	}
	m.eps = nil
}

// warmup runs a short job on every dataset.
func (m *meshEnv) warmup() error {
	cfg := m.cfg
	cfg.MaxIter = min(20, cfg.MaxIter)
	for k := range m.sets {
		if rec := m.runWorld(k, cfg, nil, 0, -1, false); rec.err != "" {
			return errors.New(rec.err)
		}
	}
	return nil
}

func (m *meshEnv) job(set, run int, tr *tracer, parent int64) jobRecord {
	return m.runWorld(set, m.cfg, tr, parent, run, true)
}

// meshRank is one worker's state; ComputeW and ApplyW are psra-worker's,
// plus the bookkeeping the benchmark needs to compute residuals.
type meshRank struct {
	x, y, z, w, zPrev []float64
	z0                []float64 // z after iteration 0, kept by rank 0 only
	obj               *solver.LogisticProx
	primalSq, dzSq    []float64 // per iteration: ‖x−z‖², ‖z−z_prev‖²
	cal               []float64 // per iteration: simnet compute time of the solve
	nnz               int
}

// tracedEndpoint is the transport.Endpoint the benchmark hands the
// runtime: it times Send and Recv into spans when the job is traced, and
// times the Leader's Group Generator round trip.
type tracedEndpoint struct {
	transport.Endpoint
	rec      *recorder
	gg       int
	ggSentAt int64
	recvWait int64
	rtts     []float64 // µs
}

func (e *tracedEndpoint) Send(to int, msg wire.Message) error {
	if e.rec == nil {
		return e.Endpoint.Send(to, msg)
	}
	t0 := e.rec.t.now()
	err := e.Endpoint.Send(to, msg)
	t1 := e.rec.t.now()
	e.rec.leaf("transport.Send", t0, t1)
	if to == e.gg {
		e.rec.mu.Lock()
		e.ggSentAt = t0
		e.rec.mu.Unlock()
	}
	return err
}

func (e *tracedEndpoint) Recv(from int, tag int32) (wire.Message, error) {
	return e.RecvTimeout(from, tag, 0)
}

func (e *tracedEndpoint) RecvTimeout(from int, tag int32, d time.Duration) (wire.Message, error) {
	if e.rec == nil {
		return e.Endpoint.RecvTimeout(from, tag, d)
	}
	t0 := e.rec.t.now()
	msg, err := e.Endpoint.RecvTimeout(from, tag, d)
	t1 := e.rec.t.now()
	e.rec.leaf("transport.Recv", t0, t1)
	e.rec.mu.Lock()
	e.recvWait += t1 - t0
	if from == e.gg && e.Rank() != e.gg {
		e.rtts = append(e.rtts, float64(t1-e.ggSentAt)/1e3)
	}
	e.rec.mu.Unlock()
	return msg, err
}

// runWorld runs one job on every rank of the mesh and, when check is set,
// checks its output.
func (m *meshEnv) runWorld(set int, cfg wlg.Config, tr *tracer, parent int64, run int, check bool) jobRecord {
	d := m.sets[set]
	rec := jobRecord{set: set, tolS: math.NaN(), iters: cfg.MaxIter}
	world, workers := len(m.eps), m.w.topo.Size()
	gg := wlg.GGRank(m.w.topo)
	cost := simnet.Tianhe2Like()
	wrapped := make([]*tracedEndpoint, world)
	recs := make([]*recorder, world)
	before := make([]transport.Stats, world)
	for r, ep := range m.eps {
		wrapped[r] = &tracedEndpoint{Endpoint: ep, gg: gg}
		if tr != nil {
			recs[r] = tr.recorder(r, run, parent)
			wrapped[r].rec = recs[r]
		}
		before[r] = ep.Stats()
	}
	ranks := make([]*meshRank, workers)
	for r := range ranks {
		sh := d.shards[r]
		mr := &meshRank{
			x: make([]float64, d.dim), y: make([]float64, d.dim), z: make([]float64, d.dim),
			w: make([]float64, d.dim), zPrev: make([]float64, d.dim),
			primalSq: make([]float64, cfg.MaxIter), dzSq: make([]float64, cfg.MaxIter),
			cal: make([]float64, cfg.MaxIter), nnz: sh.NNZ(),
		}
		mr.obj = solver.NewLogisticProx(sh.X, sh.Labels, m.w.rho, mr.y, mr.z)
		if r == 0 {
			mr.z0 = make([]float64, d.dim)
		}
		ranks[r] = mr
	}
	ends := make([]time.Time, cfg.MaxIter) // rank 0's ApplyW exits
	heap := newHeapProbe()
	var allocFirst uint64
	rho, lambda := m.w.rho, m.w.lambda

	funcs := func(r int) wlg.WorkerFuncs {
		mr, rr := ranks[r], recs[r]
		var iterSpan scopeHandle
		return wlg.WorkerFuncs{
			ComputeW: func(iter int) []float64 {
				var cw, ts scopeHandle
				if rr != nil {
					iterSpan = rr.begin("wlg.iteration")
					cw = rr.begin("wlg.ComputeW")
					ts = rr.begin("solver.TRON")
				}
				res := solver.TRON(mr.obj, mr.x, meshTron)
				if rr != nil {
					rr.end(ts)
				}
				solver.WLocal(mr.w, mr.y, mr.x, rho)
				if rr != nil {
					rr.end(cw)
				}
				mr.cal[iter] = cost.ComputeTime(simnet.WorkUnits(res.CGIters, res.FunEvals, mr.nnz, d.dim))
				return mr.w
			},
			ApplyW: func(iter int, bigW []float64, contributors int) {
				copy(mr.zPrev, mr.z)
				var as scopeHandle
				if rr != nil {
					as = rr.begin("solver.ApplyW")
				}
				solver.ZUpdateL1(mr.z, bigW, lambda, rho, contributors)
				solver.DualUpdate(mr.y, mr.x, mr.z, rho)
				if rr != nil {
					rr.end(as)
				}
				if iter == 0 && mr.z0 != nil {
					copy(mr.z0, mr.z)
				}
				mr.primalSq[iter] = sqDist(mr.x, mr.z)
				mr.dzSq[iter] = sqDist(mr.z, mr.zPrev)
				if r == 0 {
					ends[iter] = time.Now()
					live, allocs := heap.read()
					rec.heapPeak = max(rec.heapPeak, float64(live))
					switch {
					case iter == 1:
						allocFirst = allocs
					case iter == cfg.MaxIter-1 && iter > 1:
						rec.allocSteady = float64(allocs-allocFirst) / float64(iter-1)
					}
				}
				if rr != nil {
					rr.end(iterSpan)
				}
			},
		}
	}

	errs := make([]error, world)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if r == gg {
				errs[r] = wlg.RunGG(wrapped[r], cfg)
			} else {
				errs[r] = wlg.RunWorker(wrapped[r], cfg, funcs(r))
			}
		}(r)
	}
	wg.Wait()
	rec.wall = time.Since(start).Seconds()
	if err := errors.Join(errs...); err != nil {
		rec.err = err.Error()
		return rec
	}

	prev := start
	primal, dual := make([]float64, cfg.MaxIter), make([]float64, cfg.MaxIter)
	for it := 0; it < cfg.MaxIter; it++ {
		rec.iterMs = append(rec.iterMs, float64(ends[it].Sub(prev))/1e6)
		prev = ends[it]
		var p, worst float64
		for _, mr := range ranks {
			p += mr.primalSq[it]
			worst = max(worst, mr.cal[it])
		}
		primal[it] = math.Sqrt(p)
		dual[it] = rho * math.Sqrt(float64(workers)) * math.Sqrt(ranks[0].dzSq[it])
		rec.simCal += worst
	}
	rec.simSystem = rec.simCal
	if i := tolIndex(primal, dual, m.w.tolFrac); i >= 0 {
		rec.tolS = ends[i].Sub(start).Seconds()
	}

	var sent, msgs int64
	for r, ep := range m.eps {
		s := ep.Stats()
		sent += s.BytesSent - before[r].BytesSent
		msgs += s.MsgsSent - before[r].MsgsSent
		rec.recvErrors += s.RecvErrors - before[r].RecvErrors
		rec.framesCorrupt += s.FramesCorrupt - before[r].FramesCorrupt
	}
	rec.wireBytes = float64(sent) / float64(cfg.MaxIter)
	rec.msgs = float64(msgs) / float64(cfg.MaxIter)
	rec.resident = float64(8 * (3 * d.dim))
	objective := func(z []float64) float64 {
		f := lambda * vec.Nrm1(z)
		for _, mr := range ranks {
			f += mr.obj.LocalLoss(z)
		}
		return f
	}
	rec.finalObj, rec.obj0 = objective(ranks[0].z), objective(ranks[0].z0)
	if tr != nil {
		var wait int64
		for r := 0; r < workers; r++ {
			wait += wrapped[r].recvWait
			rec.rttUs = append(rec.rttUs, wrapped[r].rtts...)
		}
		rec.recvWaitMs = float64(wait) / 1e6 / float64(workers*cfg.MaxIter)
	}
	if check {
		rec.err = m.check(ranks, primal, dual, rec)
	}
	return rec
}

// check returns why a mesh job's output is wrong, or "" when it is right:
// every rank holds rank 0's final z to within 1e-9, no frame failed to
// decode or its checksum, the iterates are finite, and the residuals
// reached the workload's target.
func (m *meshEnv) check(ranks []*meshRank, primal, dual []float64, rec jobRecord) string {
	for r, mr := range ranks[1:] {
		for i := range mr.z {
			if math.Abs(mr.z[i]-ranks[0].z[i]) > 1e-9 {
				return fmt.Sprintf("rank %d's z[%d] = %v differs from rank 0's %v", r+1, i, mr.z[i], ranks[0].z[i])
			}
		}
	}
	if rec.recvErrors != 0 || rec.framesCorrupt != 0 {
		return fmt.Sprintf("%d receive errors and %d corrupt frames", rec.recvErrors, rec.framesCorrupt)
	}
	if !finite(rec.finalObj) || !finite(primal...) || !finite(dual...) {
		return "non-finite objective or residuals"
	}
	if math.IsNaN(rec.tolS) {
		return fmt.Sprintf("residuals never reached %g x the iteration-0 primal residual", m.w.tolFrac)
	}
	return ""
}

// probe solves every worker's first x-update on the first dataset:
// x = y = z = 0 over the full dimension with psra-worker's TRON options.
func (m *meshEnv) probe(rec *recorder) (probeResult, error) {
	shards := m.sets[0].shards
	probs := make([]subproblem, len(shards))
	for i, s := range shards {
		probs[i] = subproblem{a: s.X, labels: s.Labels}
	}
	return probeSolves(probs, m.w.rho, meshTron, 3, rec)
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
