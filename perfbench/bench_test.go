package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 50, false}, {20, 50, true}, {39, 50, true}, {40, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {1000, 99, true}, {1999, 99, true}, {2000, 99.5, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, got, beyond(c.n, got))
		}
	}
	// The percentile the rule picks has at least ten samples above it.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p, _ := tailPercentile(len(xs))
	above := 0
	for _, x := range xs {
		if x > percentile(xs, p) {
			above++
		}
	}
	if above < 10 {
		t.Errorf("p%v of 200 samples has %d above it", p, above)
	}
	for _, w := range workloads {
		if _, ok := tailPercentile(w.tailJobs * w.iters); !ok || w.tailJobs > w.datasets {
			t.Errorf("%s: a tail window of %d jobs is too small or exceeds the %d jobs of a run", w.name, w.tailJobs, w.datasets)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 50); p != 3 {
		t.Errorf("p50 = %v", p)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestFirstIterSkipsFailedJobs(t *testing.T) {
	p := phaseResult{jobs: []jobRecord{
		{iterMs: []float64{5, 1}},
		{err: "mesh set-up failed"}, // stopped before its first iteration
		{iterMs: []float64{9, 1}, err: "history differs"},
		{iterMs: []float64{7, 1}},
	}}
	if got := p.firstIterMs(); got != 6 {
		t.Errorf("firstIterMs = %v, want 6", got)
	}
	if got := (phaseResult{jobs: []jobRecord{{err: "failed"}}}).firstIterMs(); got != 0 {
		t.Errorf("firstIterMs with no passing job = %v, want 0", got)
	}
}

// TestEngineRepeatCheck checks that a job is compared with its dataset's
// reference in full, final objective and bytes included.
func TestEngineRepeatCheck(t *testing.T) {
	e, _, err := newEngineEnv(lookup("engine-solve").tiny(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.warmup(); err != nil {
		t.Fatal(err)
	}
	if !e.sets[0].refFull || e.sets[1].refFull {
		t.Fatal("only the first dataset's warm-up job should be a whole reference")
	}
	for set := range e.sets {
		if j := e.job(set, 0, nil, 0); j.err != "" {
			t.Fatalf("dataset %d: %s", set, j.err)
		}
	}
	d := &e.sets[1]
	if !d.refFull || len(d.ref) != e.cfg.MaxIter {
		t.Fatalf("the first passing job did not become dataset 1's reference (%d iterations)", len(d.ref))
	}
	last := &d.ref[len(d.ref)-1]
	last.DualRes = math.Nextafter(last.DualRes, math.Inf(1))
	if j := e.job(1, 1, nil, 0); j.err == "" {
		t.Error("a change in the last iteration passed the check")
	}
	last.DualRes = math.Nextafter(last.DualRes, math.Inf(-1))
	d.refFinal = math.Nextafter(d.refFinal, 0)
	if j := e.job(1, 2, nil, 0); j.err == "" {
		t.Error("a different final objective passed the check")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "run", Start: 0, End: 200},
		{ID: 2, Parent: 1, Name: "wlg.iteration", Start: 0, End: 100},
		{ID: 3, Parent: 2, Name: "solver.TRON", Start: 10, End: 30},
		{ID: 4, Parent: 2, Name: "transport.Recv", Start: 20, End: 50}, // overlaps TRON
		{ID: 5, Parent: 2, Name: "transport.Send", Start: 60, End: 70},
		{ID: 6, Parent: 2, Name: "transport.Send", Start: 90, End: 120}, // runs past its parent
		{ID: 7, Parent: 3, Name: "kernel", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100, 2: 100 - (40 + 10 + 10), 3: 20 - 6, 4: 30, 5: 10, 6: 30, 7: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, self[id], w)
		}
	}
	if c := coverage(spans, "wlg.iteration"); c != 0.6 {
		t.Errorf("coverage = %v, want 0.6", c)
	}
	if c := covered(0, 10, nil); c != 0 {
		t.Errorf("covered with no children = %d", c)
	}
}

func TestTolIndex(t *testing.T) {
	primal := []float64{10, 5, 2, 0.9, 0.5}
	dual := []float64{1, 1, 1, 1.2, 0.8}
	// Target 1: iteration 3 has its primal below it but not its dual.
	if i := tolIndex(primal, dual, 0.1); i != 4 {
		t.Errorf("tolIndex = %d, want 4", i)
	}
	if i := tolIndex(primal, dual, 0.01); i != -1 {
		t.Errorf("unreachable target gave %d", i)
	}
	if i := tolIndex(primal, dual, 1); i != 0 {
		t.Errorf("target at the start gave %d", i)
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		frames []string
		layer  string
		crc    bool
	}{
		{[]string{"psrahgadmm/internal/sparse.(*CSR).MulVec", "psrahgadmm/internal/solver.TRONWorkspace"}, "kernel", false},
		{[]string{"runtime.memmove", "psrahgadmm/internal/collective.(*Workspace).PSRAllreduceDense"}, "collective", false},
		{[]string{"hash/crc32.ieeeCLMUL", "hash/crc32.Update", "psrahgadmm/internal/wire.AppendMessage", "psrahgadmm/internal/transport.(*tcpEndpoint).Send"}, "wire", true},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime", false},
		{[]string{"main.(*meshEnv).runWorld.func1", "runtime.goexit"}, "bench", false},
		{[]string{"syscall.Syscall"}, "other", false},
	}
	for _, c := range cases {
		layer, crc := attribute(c.frames)
		if layer != c.layer || crc != c.crc {
			t.Errorf("attribute(%v) = %s, %v; want %s, %v", c.frames[0], layer, crc, c.layer, c.crc)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	var setupBound, maxOther float64
	for i, d := range endToEnd {
		m := bj.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	for i, d := range perLayer {
		m := bj.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// through the code path of a real run.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		tw := w.tiny()
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, err := runWorkload(tw, 3, 0.01, traced, t.TempDir(), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				want := int64(tw.datasets * tw.iters)
				if traced { // an untraced and a traced job on every dataset
					want = int64(2 * tw.datasets * tw.iters)
				}
				if !rep.correct || rep.failed != 0 || rep.attempted < want {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, rep.correct, rep.attempted, rep.failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					v, ok := rep.metrics[d.name]
					if !ok || !finite(v) {
						t.Errorf("traced=%v: metric %s = %v (present %v)", traced, d.name, v, ok)
					}
					if !traced && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, v)
					}
				}
			}
		})
	}
}
