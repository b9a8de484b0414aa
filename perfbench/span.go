package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// A span is one timed call across a layer boundary, recorded by the
// benchmark around a call into the program's public functions. Spans of
// one input share a trace id (source and sequence number).
type span struct {
	name   string
	start  int64 // ns since the run's clock base
	end    int64
	parent int32 // index of the parent span in the same tracer, or -1
	source string
	seq    int64 // -1 when the span is not tied to one input
}

// maxSpans caps the spans a run keeps across its tracers, so a long
// traced run cannot exhaust memory; later spans are not recorded.
const maxSpans = 1 << 19

// tracer records spans for one goroutine. A nil tracer records nothing,
// which is how the untraced run turns tracing off at no cost.
type tracer struct {
	clock  *clock
	spans  []span
	budget *atomic.Int64 // spans the run may still record, shared by its tracers
}

func (t *tracer) begin(name, source string, seq int64, parent int32) int32 {
	if t == nil || t.budget.Add(-1) < 0 {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.clock.now(), parent: parent, source: source, seq: seq})
	return int32(len(t.spans) - 1)
}

func (t *tracer) finish(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = t.clock.now()
}

// clock reads monotonic time as ns since a fixed base.
type clock struct{ base time.Time }

func newClock() *clock { return &clock{base: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its child spans.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.end - s.start) - covered(s.start, s.end, children[int32(i)])
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerRow summarises the spans of one name for the ledger.
type layerRow struct {
	name        string
	count       int
	totalNs     int64
	selfNs      int64
	p50Ns       float64
	parentNames map[string]bool
}

// summarise folds every tracer's spans into one row per span name.
func summarise(tracers []*tracer) []layerRow {
	rows := map[string]*layerRow{}
	durs := map[string]samples{}
	for _, t := range tracers {
		self := selfTimes(t.spans)
		for i, s := range t.spans {
			r := rows[s.name]
			if r == nil {
				r = &layerRow{name: s.name, parentNames: map[string]bool{}}
				rows[s.name] = r
			}
			r.count++
			r.totalNs += s.end - s.start
			r.selfNs += self[i]
			if s.parent >= 0 {
				r.parentNames[t.spans[s.parent].name] = true
			}
			durs[s.name] = append(durs[s.name], float64(s.end-s.start))
		}
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.p50Ns = durs[name].median()
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeSpans writes every kept span as CSV: tracer, index, name, start,
// end, parent, source, seq.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer,span,name,start_ns,end_ns,parent,source,seq")
	for ti, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%s,%d\n", ti, i, s.name, s.start, s.end, s.parent, s.source, s.seq)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
