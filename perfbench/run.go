package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

var nan = math.NaN()

// env is a workload set up and ready to run jobs.
type env interface {
	warmup() error
	// job runs one training job on dataset set and checks its output; tr
	// is nil when the job is not traced.
	job(set, run int, tr *tracer, parent int64) jobRecord
	probe(rec *recorder) (probeResult, error)
	close()
}

// setupTimes is one set-up's cost, in seconds.
type setupTimes struct{ gen, shard, mesh float64 }

func (s setupTimes) total() float64 { return s.gen + s.shard + s.mesh }

// jobRecord is what one training job measured. Per-iteration figures are
// averages over the job's iterations.
type jobRecord struct {
	set                        int // dataset index
	iters                      int
	wall, cpu                  float64 // s; cpu is the process's user+sys time
	iterMs                     []float64
	tolS                       float64 // NaN when the target was not reached
	err                        string  // why the job failed, "" when it passed
	finalObj, obj0             float64 // objective at the final and the iteration-0 consensus iterate
	simSystem, simCal, simComm float64
	wireBytes, msgs            float64 // per iteration
	resident                   float64
	heapPeak                   float64 // bytes
	allocSteady                float64 // bytes per steady-state iteration
	recvErrors, framesCorrupt  int64
	recvWaitMs                 float64 // per iteration per worker, traced jobs only
	rttUs                      []float64
}

// phaseResult is a sequence of jobs run back to back.
type phaseResult struct {
	jobs []jobRecord
	ph   phase
}

func (p phaseResult) iters() (n int, wall float64) {
	for _, j := range p.jobs {
		n += j.iters
		wall += j.wall
	}
	return n, wall
}

func (p phaseResult) itersPerS() float64 {
	n, wall := p.iters()
	return float64(n) / wall
}

func (p phaseResult) iterMs() []float64 {
	var all []float64
	for _, j := range p.jobs {
		all = append(all, j.iterMs...)
	}
	return all
}

// windowTail is the median over consecutive windows of jobs jobs of each
// window's p-th percentile iteration time. A last, partial window counts
// only when it is the only one.
func (p phaseResult) windowTail(jobs int, pct float64) float64 {
	var tails []float64
	for lo := 0; lo < len(p.jobs); lo += jobs {
		hi := lo + jobs
		if hi > len(p.jobs) {
			if lo > 0 {
				break
			}
			hi = len(p.jobs)
		}
		tails = append(tails, percentile(phaseResult{jobs: p.jobs[lo:hi]}.iterMs(), pct))
	}
	return median(tails)
}

func (p phaseResult) each(f func(j jobRecord) float64) []float64 {
	out := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		out[i] = f(j)
	}
	return out
}

// measure runs jobs back to back, one at a time and cycling through the
// datasets, until another job would overrun seconds, and at least minJobs
// of them.
func measure(e env, sets int, seconds float64, minJobs, runBase int, tr *tracer, parent int64) phaseResult {
	var out phaseResult
	a := snapshot()
	start := time.Now()
	for {
		if n := len(out.jobs); n >= minJobs {
			el := time.Since(start).Seconds()
			if el+el/float64(n) > seconds {
				break
			}
		}
		// Every job starts from a collected heap, so a collection the
		// previous job left due does not land in this one.
		runtime.GC()
		cpu := processCPU()
		j := e.job(len(out.jobs)%sets, runBase+len(out.jobs), tr, parent)
		j.cpu = processCPU() - cpu
		out.jobs = append(out.jobs, j)
	}
	out.ph = between(a, snapshot())
	return out
}

// firstIterMs is the median wall time of the first iteration over the
// jobs that passed; a failed job may have stopped before its first.
func (p phaseResult) firstIterMs() float64 {
	var xs []float64
	for _, j := range p.jobs {
		if j.err == "" && len(j.iterMs) > 0 {
			xs = append(xs, j.iterMs[0])
		}
	}
	return orZero(median(xs))
}

// report is one run's outcome.
type report struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
}

// perSet is the median over the datasets the phase trained on of f's
// median over each dataset's jobs. Every dataset weighs the same however
// many jobs it got, and one slow job moves the figure little.
func (p phaseResult) perSet(f func(j jobRecord) float64) float64 {
	bySet := map[int][]float64{}
	for _, j := range p.jobs {
		bySet[j.set] = append(bySet[j.set], f(j))
	}
	meds := make([]float64, 0, len(bySet))
	for _, xs := range bySet {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// runWorkload sets the workload's datasets up, warms up, and runs the
// timed jobs. With traced set it then runs the same jobs again under spans
// and a CPU profile, probes the solver, kernel and wire layers, and
// reports the per-layer metrics instead of the end-to-end ones. Human
// readable lines go to out.
func runWorkload(w *workload, seed int64, seconds float64, traced bool, spanPath string, out io.Writer) (report, error) {
	var e env
	var setups []setupTimes
	var err error
	if w.mesh {
		e, setups, err = newMeshEnv(w, seed)
	} else {
		e, setups, err = newEngineEnv(w, seed)
	}
	if err != nil {
		return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer e.close()
	if err := e.warmup(); err != nil {
		return report{}, fmt.Errorf("%s warm-up: %w", w.name, err)
	}

	// A traced run splits its time between an untraced and a traced pass
	// over the same jobs; each pass covers every dataset, so the counters
	// read from it repeat exactly.
	budget := seconds
	if traced {
		budget = seconds / 2
	}
	timed := measure(e, w.datasets, budget, w.datasets, 0, nil, 0)
	rep := report{correct: true, metrics: map[string]float64{}}
	count := func(p phaseResult) {
		for i, j := range p.jobs {
			rep.attempted += int64(j.iters)
			if j.err != "" {
				rep.correct = false
				rep.failed += int64(j.iters)
				fmt.Fprintf(out, "%s job %d: FAILED: %s\n", w.name, i, j.err)
			}
		}
	}
	count(timed)
	setupMedian := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(setups))
		for i, s := range setups {
			xs[i] = f(s)
		}
		return median(xs)
	}

	if !traced {
		m := rep.metrics
		m["setup_s"] = setupMedian(setupTimes.total)
		m["iters_per_s"] = timed.perSet(func(j jobRecord) float64 { return float64(j.iters) / j.wall })
		m["iter_ms_p50"] = timed.perSet(func(j jobRecord) float64 { return median(j.iterMs) })
		m["iter_ms_tail"] = timed.windowTail(w.tailJobs, w.tailPct())
		m["time_to_tol_s"] = timed.perSet(func(j jobRecord) float64 { return j.tolS })
		m["final_objective_ratio"] = timed.perSet(func(j jobRecord) float64 { return j.finalObj / j.obj0 })
		m["sim_system_s"] = timed.perSet(func(j jobRecord) float64 { return j.simSystem })
		m["wire_bytes_per_iter"] = timed.perSet(func(j jobRecord) float64 { return j.wireBytes })
		m["cpu_s_per_iter"] = timed.perSet(func(j jobRecord) float64 { return j.cpu / float64(j.iters) })
		m["heap_peak_mb"] = maxOf(timed.each(func(j jobRecord) float64 { return j.heapPeak })) / (1 << 20)
		m["resident_state_bytes"] = maxOf(timed.each(func(j jobRecord) float64 { return j.resident }))
		fmt.Fprintf(out, "%s seed %d: %d jobs x %d iterations on %d datasets, tail = p%g, tol_frac = %g, check %s\n",
			w.name, seed, len(timed.jobs), w.iters, w.datasets, w.tailPct(), w.tolFrac, verdict(rep))
		printMetrics(out, endToEnd, m)
		return rep, nil
	}

	tr := newTracer()
	var prof bytes.Buffer
	runSpan := tr.recorder(-1, -1, 0)
	h := runSpan.begin("run")
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, err
	}
	tracedPh := measure(e, w.datasets, 0, len(timed.jobs), len(timed.jobs), tr, runSpan.scope)
	pprof.StopCPUProfile()
	runID := runSpan.end(h)
	count(tracedPh)
	shares, err := sharesFromProfile(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	probeRec := tr.recorder(-1, -1, runID)
	ph := probeRec.begin("probe")
	pr, err := e.probe(probeRec)
	if err != nil {
		return report{}, err
	}
	probeRec.end(ph)
	frameUs, err := frameRoundtripUs(meshFrameDim)
	if err != nil {
		return report{}, err
	}
	spans := tr.all()

	m := rep.metrics
	m["runtime.gc_cpu_frac"] = tracedPh.ph.gcFrac
	m["runtime.alloc_bytes_per_iter"] = median(timed.each(func(j jobRecord) float64 { return j.allocSteady }))
	m["runtime.sched_latency_p90_us"] = tracedPh.ph.schedP90 * 1e6
	m["runtime.idle_core_frac"] = timed.ph.idleFrac()
	m["dataset.generate_s"] = setupMedian(func(s setupTimes) float64 { return s.gen })
	m["dataset.shard_s"] = setupMedian(func(s setupTimes) float64 { return s.shard })
	m["transport.mesh_setup_s"] = setupMedian(func(s setupTimes) float64 { return s.mesh })
	m["solver.cpu_frac"] = shares.frac("solver")
	m["solver.solve_ms_p50"] = median(pr.solveMs)
	m["solver.hessvec_per_solve"] = pr.hessvecs
	m["solver.newton_per_solve"] = pr.newtons
	m["solver.funevals_per_solve"] = pr.funevals
	m["solver.sim_cal_s"] = timed.perSet(func(j jobRecord) float64 { return j.simCal })
	m["solver.apply_us_p50"] = orZero(median(durations(spans, "solver.ApplyW")))
	m["kernel.cpu_frac"] = shares.frac("kernel")
	m["kernel.hessvec_us"] = pr.hvUs
	m["kernel.eval_us"] = pr.evalUs
	m["kernel.hessvec_bytes_computed"] = pr.hvBytes
	m["collective.cpu_frac"] = shares.frac("collective")
	m["collective.recv_wait_ms_per_iter"] = median(tracedPh.each(func(j jobRecord) float64 { return j.recvWaitMs }))
	m["core.cpu_frac"] = shares.frac("core")
	m["core.iter_first_ms"] = timed.firstIterMs()
	m["core.sim_comm_s"] = timed.perSet(func(j jobRecord) float64 { return j.simComm })
	m["watchdog.cpu_frac"] = shares.frac("watchdog")
	m["transport.msgs_per_iter"] = timed.perSet(func(j jobRecord) float64 { return j.msgs })
	m["transport.send_us_p50"] = orZero(median(durations(spans, "transport.Send")))
	m["transport.cpu_frac"] = shares.frac("transport")
	var recvErrors, corrupt int64
	for _, j := range append(timed.jobs, tracedPh.jobs...) {
		recvErrors += j.recvErrors
		corrupt += j.framesCorrupt
	}
	m["transport.recv_errors"] = float64(recvErrors)
	m["transport.frames_corrupt"] = float64(corrupt)
	m["wire.cpu_frac"] = shares.frac("wire")
	m["wire.crc_cpu_frac"] = float64(shares.crcWire) / float64(max(shares.total, 1))
	m["wire.frame_roundtrip_us"] = frameUs
	var rtts []float64
	for _, j := range tracedPh.jobs {
		rtts = append(rtts, j.rttUs...)
	}
	m["wlg.gg_rtt_us_p50"] = orZero(median(rtts))
	m["wlg.cpu_frac"] = shares.frac("wlg")
	if w.mesh {
		m["trace.coverage_frac"] = coverage(spans, "wlg.iteration")
	} else {
		m["trace.coverage_frac"] = shares.named()
	}
	m["trace.overhead_frac"] = 1 - tracedPh.itersPerS()/timed.itersPerS()

	fmt.Fprintf(out, "%s seed %d (traced): %d untraced + %d traced jobs x %d iterations, check %s\n",
		w.name, seed, len(timed.jobs), len(tracedPh.jobs), w.iters, verdict(rep))
	printMetrics(out, perLayer, m)
	fmt.Fprintf(out, "where the time goes, %s (CPU profile, %d samples):\n", w.name, shares.total)
	tracedIters, _ := tracedPh.iters()
	cpuPerIter := tracedPh.ph.cpu / float64(tracedIters)
	shares.print(out, cpuPerIter)
	fmt.Fprintf(out, "where the time goes, %s (spans, self time):\n", w.name)
	printSpanTable(out, spans)
	if spanPath != "" {
		path := filepath.Join(spanPath, fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, seed))
		if err := writeSpans(path, spans); err != nil {
			return report{}, err
		}
		fmt.Fprintf(out, "%d spans written to %s\n", len(spans), path)
	}
	return rep, nil
}

// meshFrameDim is the dimension of mesh-tcp's dense frames, the frame the
// wire probe encodes and decodes on every workload.
var meshFrameDim = lookup("mesh-tcp").data(1).Dim

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

func verdict(r report) string {
	if r.correct {
		return "PASS"
	}
	return fmt.Sprintf("FAIL (%d of %d iterations failed)", r.failed, r.attempted)
}

func printMetrics(out io.Writer, defs []metricDef, m map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %16.6g %-6s  %s\n", d.name, m[d.name], d.unit, d.moves)
	}
}
