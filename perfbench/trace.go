package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval the traced run records around a call into a
// layer. Times are nanoseconds since the tracer started; Parent is 0 for
// the run span. Run numbers the training job the span belongs to (-1 for
// the run span and the probes).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    int    `json:"run"`
	Rank   int    `json:"rank"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory until the run ends.
// Each rank (or probe) records through its own recorder.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	recs  []*recorder
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// recorder records the spans of one rank of one job. The rank goroutine
// opens and closes scopes; the transport's send helpers may add leaf spans
// from other goroutines, hence the lock.
type recorder struct {
	t     *tracer
	rank  int
	run   int
	mu    sync.Mutex
	spans []span
	scope int64 // parent of new spans: the innermost open span
}

// recorder returns a new recorder whose top-level spans hang off parent.
func (t *tracer) recorder(rank, run int, parent int64) *recorder {
	r := &recorder{t: t, rank: rank, run: run, scope: parent}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// scopeHandle closes a span opened by begin.
type scopeHandle struct {
	idx    int
	parent int64
}

// begin opens a span under the current scope and makes it the scope.
func (r *recorder) begin(name string) scopeHandle {
	id := r.t.ids.Add(1)
	start := r.t.now()
	r.mu.Lock()
	h := scopeHandle{idx: len(r.spans), parent: r.scope}
	r.spans = append(r.spans, span{ID: id, Parent: r.scope, Run: r.run, Rank: r.rank, Name: name, Start: start})
	r.scope = id
	r.mu.Unlock()
	return h
}

// end closes the span h opened and returns its id.
func (r *recorder) end(h scopeHandle) int64 {
	end := r.t.now()
	r.mu.Lock()
	s := &r.spans[h.idx]
	s.End = end
	r.scope = h.parent
	r.mu.Unlock()
	return s.ID
}

// leaf records a finished span under the current scope.
func (r *recorder) leaf(name string, start, end int64) {
	id := r.t.ids.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: r.scope, Run: r.run, Rank: r.rank, Name: name, Start: start, End: end})
	r.mu.Unlock()
}

// all returns every recorded span, ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, r := range t.recs {
		r.mu.Lock()
		out = append(out, r.spans...)
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// covered returns the length of the union of the intervals ivs clipped to
// [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	s := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			s = append(s, [2]int64{a, b})
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range s {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// childCover maps each span id to the time its direct children cover
// inside it.
func childCover(spans []span) map[int64]int64 {
	byID := make(map[int64]span, len(spans))
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		byID[s.ID] = s
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
	}
	out := make(map[int64]int64, len(kids))
	for id, ivs := range kids {
		if p, ok := byID[id]; ok {
			out[id] = covered(p.Start, p.End, ivs)
		}
	}
	return out
}

// selfTimes maps each span id to its duration minus the part of its
// interval its direct children cover.
func selfTimes(spans []span) map[int64]int64 {
	cov := childCover(spans)
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - cov[s.ID]
	}
	return out
}

// coverage is the share of the named spans' total duration that their
// direct children cover (NaN when no such span exists).
func coverage(spans []span, name string) float64 {
	cov := childCover(spans)
	var tot, in int64
	for _, s := range spans {
		if s.Name == name {
			tot += s.End - s.Start
			in += cov[s.ID]
		}
	}
	if tot == 0 {
		return nan
	}
	return float64(in) / float64(tot)
}

// durations returns the durations in microseconds of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// printSpanTable writes the "where the time goes" table of a traced run:
// per span name, the count and the total and self time, with self time as
// a share of the self time of all spans below the run span.
func printSpanTable(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type row struct {
		name         string
		n            int
		total, selfT int64
	}
	rows := map[string]*row{}
	var all int64
	for _, s := range spans {
		if s.Parent == 0 {
			continue // the run span: its self time is the benchmark's own
		}
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.End - s.Start
		r.selfT += self[s.ID]
		all += self[s.ID]
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].selfT > list[j].selfT })
	fmt.Fprintf(w, "  %-22s %8s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range list {
		fmt.Fprintf(w, "  %-22s %8d %12.1f %12.1f %6.1f%%\n", r.name, r.n,
			float64(r.total)/1e6, float64(r.selfT)/1e6, 100*float64(r.selfT)/float64(max(all, 1)))
	}
}

// writeSpans writes spans as gzipped JSON lines to path, creating its
// directory. A traced mesh-tcp run records a few hundred thousand spans.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
