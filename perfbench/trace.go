package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the enclosing span, -1 for none
	op         int32 // id of the workload operation the span belongs to, -1 for none
}

// tracer records spans in memory. A disabled tracer (the untraced runs)
// records nothing and costs one branch per boundary.
//
// Parents are found per goroutine: every goroutine has a stack of its open
// spans, and a new span's parent is the top of that stack. Spans begun on
// the goroutines a workload registered as lanes with no span open start a
// new operation. Spans begun on any other goroutine with nothing open on
// it — commit workers the index fans out to, or the servlet's connection
// handlers — are adopted by the most recently begun open span of any lane
// when adopt is set (workers act on behalf of the lane that started them),
// and otherwise stay parentless: the servlet's store reads have no client
// parent and are reported as totals.
type tracer struct {
	on    atomic.Bool
	adopt bool
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	from   int // first span of the measured phase
	open   map[uintptr][]int32
	lanes  map[uintptr]bool
	nextOp int32
}

func newTracer(on, adopt bool) *tracer {
	t := &tracer{
		adopt: adopt,
		epoch: time.Now(),
		open:  make(map[uintptr][]int32),
		lanes: make(map[uintptr]bool),
	}
	t.on.Store(on)
	return t
}

// stop ends recording; spans begun afterwards are not kept.
func (t *tracer) stop() { t.on.Store(false) }

// lane registers the calling goroutine as a workload lane.
func (t *tracer) lane() {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.lanes[curg()] = true
	t.mu.Unlock()
}

// measure marks the start of the measured phase: spans begun before it
// belong to set-up.
func (t *tracer) measure() {
	t.mu.Lock()
	t.from = len(t.spans)
	t.mu.Unlock()
}

// begin opens a span named name on the calling goroutine and returns its
// handle for end; it returns -1 when tracing is off.
func (t *tracer) begin(name string) int32 {
	if !t.on.Load() {
		return -1
	}
	g := curg()
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	s := span{name: name, start: now, parent: -1, op: -1}
	if st := t.open[g]; len(st) > 0 {
		s.parent = st[len(st)-1]
		s.op = t.spans[s.parent].op
	} else if t.lanes[g] {
		s.op = t.nextOp
		t.nextOp++
	} else if t.adopt {
		if p := t.latestLaneSpanLocked(); p >= 0 {
			s.parent = p
			s.op = t.spans[p].op
		}
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.open[g] = append(t.open[g], i)
	t.mu.Unlock()
	return i
}

// latestLaneSpanLocked returns the most recently begun span still open on a
// lane, or -1.
func (t *tracer) latestLaneSpanLocked() int32 {
	best := int32(-1)
	for g := range t.lanes {
		st := t.open[g]
		if len(st) == 0 {
			continue
		}
		if top := st[len(st)-1]; best < 0 || t.spans[top].start > t.spans[best].start {
			best = top
		}
	}
	return best
}

// end closes the span begun as i on the calling goroutine.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	g := curg()
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].end = now
	st := t.open[g]
	for k := len(st) - 1; k >= 0; k-- {
		if st[k] == i {
			st = append(st[:k], st[k+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.open, g)
	} else {
		t.open[g] = st
	}
	t.mu.Unlock()
}

// analysis holds the derived per-span quantities of a finished trace.
type analysis struct {
	from  int // first span of the measured phase
	spans []span
	self  []int64 // span duration minus the union of its children
}

// analyze computes self times. Self time subtracts the union of
// the children's intervals, clipped to the parent, so children that ran
// concurrently on worker goroutines are not subtracted twice.
func (t *tracer) analyze() *analysis {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	from := t.from
	t.mu.Unlock()
	a := &analysis{from: from, spans: spans, self: make([]int64, len(spans))}
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	for i, s := range spans {
		covered := int64(0)
		ks := kids[i]
		sort.Slice(ks, func(x, y int) bool { return spans[ks[x]].start < spans[ks[y]].start })
		curLo, curHi := int64(-1), int64(-1)
		for _, k := range ks {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		a.self[i] = (s.end - s.start) - covered
	}
	return a
}

// dur returns span i's duration in nanoseconds.
func (a *analysis) dur(i int) int64 { return a.spans[i].end - a.spans[i].start }

// under reports whether span i has an ancestor (or is itself) named name.
func (a *analysis) under(i int, name string) bool {
	for j := int32(i); j >= 0; j = a.spans[j].parent {
		if a.spans[j].name == name {
			return true
		}
	}
	return false
}

// write dumps the trace as gzip-compressed tab-separated lines: index,
// name, start ns, end ns, parent index, operation id.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.start, s.end, s.parent, s.op)
	}
	t.mu.Unlock()
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
