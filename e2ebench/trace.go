package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// tracer keeps the benchmark's own spans in memory: one per call into a
// layer, named after the layer's module. A nil tracer records nothing, which
// is how the measured (untraced) runs call the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	parent     int // index into spans; -1 for a root
	start, end time.Time
}

// begin opens a span under parent and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// allocMB runs fn and returns the bytes it allocated, in MiB. Only
// meaningful when nothing else allocates meanwhile, so it is used around
// sequential calls in traced runs; untraced runs (nil tracer) skip the
// stop-the-world MemStats reads.
func (t *tracer) allocMB(fn func()) float64 {
	if t == nil {
		fn()
		return 0
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
}

// selfTimes attributes the wall time covered by the spans to span names. An
// instant belongs to the spans open at that instant that have no open child;
// when several such spans run at once (concurrent routing candidates) they
// share it evenly. So the attributed times add up to exactly the covered
// wall time, and a parent's self time is its duration minus the part of it
// that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	type edge struct {
		at   time.Time
		id   int
		open bool
	}
	var edges []edge
	for i, s := range t.spans {
		if s.end.IsZero() {
			continue
		}
		edges = append(edges, edge{s.start, i, true}, edge{s.end, i, false})
	}
	sort.SliceStable(edges, func(a, b int) bool { return edges[a].at.Before(edges[b].at) })

	open := map[int]bool{}
	openKids := make([]int, len(t.spans))
	out := map[string]time.Duration{}
	for k, e := range edges {
		if k > 0 {
			if dt := e.at.Sub(edges[k-1].at); dt > 0 {
				var leaves []int
				for id := range open {
					if openKids[id] == 0 {
						leaves = append(leaves, id)
					}
				}
				for _, id := range leaves {
					out[t.spans[id].name] += dt / time.Duration(len(leaves))
				}
			}
		}
		p := t.spans[e.id].parent
		if e.open {
			open[e.id] = true
			if p >= 0 {
				openKids[p]++
			}
		} else {
			delete(open, e.id)
			if p >= 0 {
				openKids[p]--
			}
		}
	}
	return out
}

// wall is the summed duration of the root spans.
func (t *tracer) wall() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.parent < 0 && !s.end.IsZero() {
			d += s.end.Sub(s.start)
		}
	}
	return d
}
