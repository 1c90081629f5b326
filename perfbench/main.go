// Command perfbench is the repository's benchmark. It runs one workload of
// the PSRA-HGADMM reproduction as a closed loop of training jobs for a
// fixed time, checks every job's output, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run), ending with
// one JSON line:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"iters_per_s": {"value": 6.1, "unit": "1/s"}, ...}}
//
// It drives the program only through its public functions: core.Run,
// wlg.RunWorker/RunGG over transport.NewTCPEndpoint, and the solver.
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload engine-solve --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(names(), " | ")+" | all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 20, "measured time of the run")
		trace   = flag.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
		spans   = flag.String("spans", ".bench_build/spans", "directory a traced run writes its spans to (empty: none)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	run := workloads
	if *name != "all" {
		w := lookup(*name)
		if w == nil {
			fail(fmt.Errorf("unknown workload %q (want %s or all)", *name, strings.Join(names(), ", ")))
		}
		run = []*workload{w}
	}
	fmt.Printf("perfbench: GOMAXPROCS=%d, %s\n", runtime.GOMAXPROCS(0), runtime.Version())
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range run {
		rep, err := runWorkload(w, *seed, *seconds, *trace == 1, *spans, os.Stdout)
		if err != nil {
			fail(err)
		}
		line.Correct = line.Correct && rep.correct
		line.Attempted += rep.attempted
		line.Failed += rep.failed
		for _, d := range defs {
			key := d.name
			if len(run) > 1 {
				key = w.name + "." + d.name
			}
			v := rep.metrics[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				line.Correct = false
				v = 0
			}
			line.Metrics[key] = metricValue{Value: v, Unit: d.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func names() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
