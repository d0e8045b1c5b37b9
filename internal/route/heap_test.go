package route

import (
	"container/heap"
	"errors"
	"math/rand"
	"testing"
	"unsafe"

	"analogfold/internal/fault"
	"analogfold/internal/grid"
	"analogfold/internal/netlist"
)

// refEntry and refHeap are the container/heap reference the open list must
// match: the same strict Less on f.
type refEntry struct {
	cell int32
	f    float64
}

type refHeap []refEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].f < h[j].f }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestPQHeapMatchesContainerHeap runs random push/pop sequences with heavy
// ties against container/heap and requires identical (cell, f) pop
// sequences. Keys are quantized to a few levels, and some runs push long
// plateaus of one key, so equal keys meet at every depth of the heap.
func TestPQHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h pqHeap
	for run := 0; run < 400; run++ {
		h.reset()
		ref := &refHeap{}
		levels := 1 + rng.Intn(8)
		plateau := run%4 == 0
		next := int32(0)
		var got, want []refEntry
		ops := 1 + rng.Intn(600)
		for op := 0; op < ops; op++ {
			if ref.Len() == 0 || rng.Intn(3) != 0 {
				f := float64(rng.Intn(levels)) * 0.25
				if plateau && rng.Intn(2) == 0 {
					f = 0.5
				}
				h.push(next, f)
				heap.Push(ref, refEntry{next, f})
				next++
				continue
			}
			c, f := h.pop()
			got = append(got, refEntry{c, f})
			want = append(want, heap.Pop(ref).(refEntry))
		}
		for ref.Len() > 0 {
			c, f := h.pop()
			got = append(got, refEntry{c, f})
			want = append(want, heap.Pop(ref).(refEntry))
		}
		if h.len() != 0 {
			t.Fatalf("run %d: %d entries left after draining", run, h.len())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: pop %d = %+v, container/heap gives %+v", run, i, got[i], want[i])
			}
		}
	}
}

// TestCellStateMatchesGrid checks the packed per-cell record against the
// grid on every cell of every OTA grid: the obstacle word encodes
// BlockedAt/OwnerAt, the coordinates invert CellIndex, and the neighbor bits
// are InBounds. The record stays 48 bytes.
func TestCellStateMatchesGrid(t *testing.T) {
	if size := unsafe.Sizeof(cellState{}); size != 48 {
		t.Errorf("cellState is %d bytes, want 48", size)
	}
	for _, c := range []*netlist.Circuit{netlist.OTA1(), netlist.OTA2(), netlist.OTA3(), netlist.OTA4()} {
		g := buildGrid(t, c, 1)
		r, err := NewRouter(g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for idx := range r.cells {
			cs := &r.cells[idx]
			want := int32(g.OwnerAt(idx))
			if g.BlockedAt(idx) {
				want = obstBlocked
			}
			if cs.obst != want {
				t.Fatalf("%s cell %d: obstacle word %d, want %d (blocked %v, owner %d)",
					c.Name, idx, cs.obst, want, g.BlockedAt(idx), g.OwnerAt(idx))
			}
			p := r.cellFromIndex(int32(idx))
			if g.CellIndex(p) != idx {
				t.Fatalf("%s cell %d: coordinates %v index back to %d", c.Name, idx, p, g.CellIndex(p))
			}
			for di, d := range neighborDirs {
				if in := cs.nbr&(1<<di) != 0; in != g.InBounds(p.Add(d)) {
					t.Fatalf("%s cell %v: neighbor %v in-bounds bit %v", c.Name, p, d, in)
				}
			}
		}
	}
}

// TestNewRouterRejectsOversizedGrid: a dimension beyond the record's
// coordinate fields is a typed fault, never a silent wrap.
func TestNewRouterRejectsOversizedGrid(t *testing.T) {
	for _, g := range []*grid.Grid{
		{NX: 1 << 16, NY: 2, NL: 1},
		{NX: 2, NY: 1 << 16, NL: 1},
		{NX: 2, NY: 2, NL: 256},
		{NX: 1 << 15, NY: 1 << 15, NL: 4},
	} {
		if _, err := NewRouter(g, Config{}); !errors.Is(err, fault.ErrInvalidInput) {
			t.Errorf("%d×%d×%d grid: err = %v, want fault.ErrInvalidInput", g.NX, g.NY, g.NL, err)
		}
	}
}
