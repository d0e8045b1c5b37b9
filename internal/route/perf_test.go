package route

import (
	"context"
	"testing"

	"analogfold/internal/geom"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
)

// astarFixture prepares a Router mid-net so astar can be invoked directly
// and repeatedly: per-net step costs are loaded, the tree holds the first
// pin group, and the second pin group is the target set. The full Run
// beforehand warms every growable buffer (open list, seed/path buffers,
// pin-group cache) the way a steady-state negotiation iteration would.
func astarFixture(tb testing.TB) (*Router, int, []geom.Point3) {
	tb.Helper()
	c := netlist.OTA1()
	g := buildGrid(tb, c, 1)
	gd := guidance.Uniform(len(c.Nets))
	r, err := NewRouter(g, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := r.Run(gd); err != nil {
		tb.Fatalf("warm-up run: %v", err)
	}
	ni := -1
	for i := range c.Nets {
		if len(r.pinGroups(i)) >= 2 {
			ni = i
			break
		}
	}
	if ni < 0 {
		tb.Fatal("no net with two pin groups")
	}
	r.ctx = context.Background()
	r.netEpoch++
	ne := r.netEpoch
	r.prepNetCosts(ni, gd.PerNet[ni])
	groups := r.pinGroups(ni)
	r.treeCells = r.treeCells[:0]
	for _, cell := range groups[0].cells {
		idx := g.CellIndex(cell)
		if r.treeStamp[idx] != ne {
			r.treeStamp[idx] = ne
			r.treeCells = append(r.treeCells, int32(idx))
		}
	}
	return r, ni, groups[1].cells
}

// TestAstarSteadyStateAllocs pins the per-search allocation count: after
// warm-up, one A* search may allocate only the returned path slice. This is
// the regression guard for the zero-allocation core — any map, boxed-heap or
// closure allocation creeping back into the search shows up here.
func TestAstarSteadyStateAllocs(t *testing.T) {
	r, ni, targets := astarFixture(t)
	if _, err := r.astar(ni, 0, targets, false); err != nil {
		t.Fatalf("warm search: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := r.astar(ni, 0, targets, false); err != nil {
			t.Fatalf("astar: %v", err)
		}
	})
	if allocs > 1 {
		t.Errorf("astar allocates %.1f objects per steady-state search, want ≤1 (the returned path)", allocs)
	}
}

// TestRouteNegotiationSteadyStateAllocs bounds a full reused-Router
// negotiation run on OTA1. The remaining allocations are the per-net result
// slices the caller keeps (netCells, paths, Result bookkeeping) — roughly a
// handful per net — not the per-expansion churn of the map-based router,
// which allocated hundreds of thousands of objects on this circuit.
func TestRouteNegotiationSteadyStateAllocs(t *testing.T) {
	c := netlist.OTA1()
	g := buildGrid(t, c, 1)
	gd := guidance.Uniform(len(c.Nets))
	r, err := NewRouter(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(gd); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := r.Run(gd); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	// ~25 nets × (cells + a few paths + segs) plus Result framing; the exact
	// number varies with topology, so assert a generous ceiling that the old
	// per-search maps (≈480k allocs) could never meet.
	if budget := 40.0 * float64(len(c.Nets)); allocs > budget {
		t.Errorf("negotiation run allocates %.0f objects, want ≤ %.0f", allocs, budget)
	}
}

// TestCellIndexRoundTrip exhausts the full grid bounds in both directions:
// every lattice cell maps to a unique flat index and back, and the router's
// dirDelta offsets agree with coordinate-space neighbor steps.
func TestCellIndexRoundTrip(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 1)
	r, err := NewRouter(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumCells()
	for idx := 0; idx < n; idx++ {
		p := r.cellFromIndex(int32(idx))
		if !g.InBounds(p) {
			t.Fatalf("cellFromIndex(%d) = %v out of bounds", idx, p)
		}
		if back := g.CellIndex(p); back != idx {
			t.Fatalf("CellIndex(cellFromIndex(%d)) = %d", idx, back)
		}
	}
	for z := 0; z < g.NL; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				p := geom.Point3{X: x, Y: y, Z: z}
				if got := r.cellFromIndex(int32(g.CellIndex(p))); got != p {
					t.Fatalf("round-trip %v -> %v", p, got)
				}
			}
		}
	}
	for di, d := range neighborDirs {
		p := geom.Point3{X: g.NX / 2, Y: g.NY / 2, Z: g.NL / 2}
		q := p.Add(d)
		if !g.InBounds(q) {
			continue
		}
		if got, want := g.CellIndex(p)+r.dirDelta[di], g.CellIndex(q); got != want {
			t.Errorf("dirDelta[%d]=%d: index %d, want %d", di, r.dirDelta[di], got, want)
		}
	}
}

// TestPinGroupsDeterministic guards against map-iteration-order creeping
// into pin grouping: rebuilding the groups many times must give the same
// group order and the same cell order within each group, and the cached
// accessor must agree with a fresh build.
func TestPinGroupsDeterministic(t *testing.T) {
	g := buildGrid(t, netlist.OTA3(), 1)
	r, err := NewRouter(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for ni := range g.NetAPs {
		ref := buildPinGroups(g, ni)
		for trial := 0; trial < 20; trial++ {
			got := buildPinGroups(g, ni)
			if len(got) != len(ref) {
				t.Fatalf("net %d trial %d: %d groups, want %d", ni, trial, len(got), len(ref))
			}
			for gi := range got {
				if len(got[gi].cells) != len(ref[gi].cells) {
					t.Fatalf("net %d group %d: cell count varies", ni, gi)
				}
				for ci := range got[gi].cells {
					if got[gi].cells[ci] != ref[gi].cells[ci] {
						t.Fatalf("net %d group %d cell %d: %v vs %v — ordering not deterministic",
							ni, gi, ci, got[gi].cells[ci], ref[gi].cells[ci])
					}
				}
			}
		}
		cached := r.pinGroups(ni)
		if len(cached) != len(ref) {
			t.Fatalf("net %d: cached groups disagree with fresh build", ni)
		}
	}
}

// TestSelectiveRerouteStillValid exercises the worklist-driven negotiation:
// the opt-in schedule must still produce connected, conflict-free,
// obstacle-respecting routing on every benchmark (topology may legitimately
// differ from the default schedule).
func TestSelectiveRerouteStillValid(t *testing.T) {
	for _, c := range netlist.Benchmarks() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			g := buildGrid(t, c, 1)
			gd := guidance.Uniform(len(c.Nets))
			res, err := Route(g, gd, Config{SelectiveReroute: true})
			if err != nil {
				t.Fatalf("selective reroute: %v", err)
			}
			occ := map[geom.Point3]int{}
			for ni, cells := range res.NetCells {
				if !connected(g, cells, ni) {
					t.Errorf("net %s not connected", c.Nets[ni].Name)
				}
				for _, cell := range cells {
					if g.Blocked(cell) {
						t.Errorf("net %d uses blocked cell %v", ni, cell)
					}
					if prev, ok := occ[cell]; ok && prev != ni {
						t.Errorf("cell %v used by nets %d and %d", cell, prev, ni)
					}
					occ[cell] = ni
				}
			}
		})
	}
}

// TestSelectiveRerouteQualityClose checks the worklist schedule does not
// blow up quality: it skips clean nets, so it can only do the same or less
// rerouting work per iteration, and on a benchmark that converges quickly it
// should land within a small band of the default result.
func TestSelectiveRerouteQualityClose(t *testing.T) {
	c := netlist.OTA1()
	g := buildGrid(t, c, 1)
	gd := guidance.Uniform(len(c.Nets))
	def := mustRoute(t, g, gd)
	sel, err := Route(g, gd, Config{SelectiveReroute: true})
	if err != nil {
		t.Fatal(err)
	}
	if sel.WirelengthNm > def.WirelengthNm*3/2 {
		t.Errorf("selective reroute wirelength %d far above default %d", sel.WirelengthNm, def.WirelengthNm)
	}
	if sel.Iterations > def.Iterations {
		t.Errorf("selective reroute took %d iterations, default %d", sel.Iterations, def.Iterations)
	}
}

// BenchmarkAstarCore measures one steady-state multi-source A* search — the
// innermost routing unit — with allocation reporting.
func BenchmarkAstarCore(b *testing.B) {
	r, ni, targets := astarFixture(b)
	if _, err := r.astar(ni, 0, targets, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.astar(ni, 0, targets, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteNegotiation measures a full rip-up-and-reroute run on a
// reused Router (scratch warm, pin groups cached) — the steady-state cost of
// one negotiation pass as seen by dataset generation and candidate
// evaluation.
func BenchmarkRouteNegotiation(b *testing.B) {
	c := netlist.OTA1()
	g := buildGrid(b, c, 1)
	gd := guidance.Uniform(len(c.Nets))
	r, err := NewRouter(g, Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Run(gd); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(gd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteNegotiationSelective is BenchmarkRouteNegotiation under the
// conflicted-net worklist schedule, for an apples-to-apples comparison.
func BenchmarkRouteNegotiationSelective(b *testing.B) {
	c := netlist.OTA1()
	g := buildGrid(b, c, 1)
	gd := guidance.Uniform(len(c.Nets))
	r, err := NewRouter(g, Config{SelectiveReroute: true})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Run(gd); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(gd); err != nil {
			b.Fatal(err)
		}
	}
}
