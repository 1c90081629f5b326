package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// phaseSnap is the process state at one end of a measured phase.
type phaseSnap struct {
	at      time.Time
	cpu     float64 // process user+sys CPU seconds
	gcCPU   float64 // runtime estimate of GC CPU seconds
	idleCPU float64
	allCPU  float64
	sched   []uint64 // /sched/latencies:seconds bucket counts
	buckets []float64
}

var phaseNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func snapshot() phaseSnap {
	s := make([]metrics.Sample, len(phaseNames))
	for i, n := range phaseNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[3].Value.Float64Histogram()
	return phaseSnap{
		at:      time.Now(),
		cpu:     processCPU(),
		gcCPU:   s[0].Value.Float64(),
		idleCPU: s[1].Value.Float64(),
		allCPU:  s[2].Value.Float64(),
		sched:   append([]uint64(nil), h.Counts...),
		buckets: append([]float64(nil), h.Buckets...),
	}
}

// phase is what happened between two snapshots.
type phase struct {
	wall, cpu float64
	gcFrac    float64 // GC share of the CPU the process used
	schedP90  float64 // seconds
}

func between(a, b phaseSnap) phase {
	p := phase{
		wall: b.at.Sub(a.at).Seconds(),
		cpu:  b.cpu - a.cpu,
	}
	if busy := (b.allCPU - a.allCPU) - (b.idleCPU - a.idleCPU); busy > 0 {
		p.gcFrac = (b.gcCPU - a.gcCPU) / busy
	}
	var total uint64
	d := make([]uint64, len(b.sched))
	for i := range d {
		d[i] = b.sched[i] - a.sched[i]
		total += d[i]
	}
	var cum uint64
	for i, c := range d {
		cum += c
		if total > 0 && float64(cum) >= 0.9*float64(total) {
			// The bucket's upper edge, or its lower edge for the open one.
			p.schedP90 = b.buckets[i+1]
			if math.IsInf(p.schedP90, 1) {
				p.schedP90 = b.buckets[i]
			}
			break
		}
	}
	return p
}

// idleFrac is the share of GOMAXPROCS×wall the process left unused.
func (p phase) idleFrac() float64 {
	return 1 - p.cpu/(p.wall*float64(runtime.GOMAXPROCS(0)))
}

// heapProbe reads the live heap and cumulative allocation counters; one
// is kept per job so sampling each iteration allocates nothing.
type heapProbe struct{ s [2]metrics.Sample }

func newHeapProbe() *heapProbe {
	h := &heapProbe{}
	h.s[0].Name = "/gc/heap/live:bytes"
	h.s[1].Name = "/gc/heap/allocs:bytes"
	return h
}

func (h *heapProbe) read() (live, allocs uint64) {
	metrics.Read(h.s[:])
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64()
}
