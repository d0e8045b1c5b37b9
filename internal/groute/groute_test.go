package groute

import (
	"testing"

	"analogfold/internal/grid"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/tech"
)

func buildGrid(t *testing.T, c *netlist.Circuit, seed int64) *grid.Grid {
	t.Helper()
	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: seed, Iterations: 1500})
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.Build(p, tech.Sim40())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// totalDemand sums demand over all edges.
func totalDemand(m *Map) float64 {
	t := 0.0
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			t += m.HDemand[y][x] + m.VDemand[y][x]
		}
	}
	return t
}

// overflow counts edges whose demand exceeds capacity.
func overflow(m *Map) int {
	n := 0
	for y := 0; y < m.NY; y++ {
		for x := 0; x < m.NX; x++ {
			if m.HDemand[y][x] > m.Capacity {
				n++
			}
			if m.VDemand[y][x] > m.Capacity {
				n++
			}
		}
	}
	return n
}

func TestEstimateBasic(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 1)
	m, err := Estimate(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NX <= 0 || m.NY <= 0 || m.Capacity <= 0 {
		t.Fatalf("degenerate map %+v", m)
	}
	if totalDemand(m) <= 0 {
		t.Errorf("no demand accumulated")
	}
}

func TestDemandMatchesHPWLScale(t *testing.T) {
	// Total demand (GCell edges) should be within a small factor of the sum
	// of net bounding-box half-perimeters measured in GCells: pattern routes
	// are monotone paths.
	g := buildGrid(t, netlist.OTA1(), 2)
	k := 8
	m, err := Estimate(g, Config{GCellSize: k})
	if err != nil {
		t.Fatal(err)
	}
	hpwl := 0.0
	for ni := range g.NetAPs {
		minX, maxX, minY, maxY := 1<<30, 0, 1<<30, 0
		for _, id := range g.NetAPs[ni] {
			cell := g.APs[id].Cell
			x, y := cell.X/k, cell.Y/k
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
		if maxX >= minX {
			hpwl += float64(maxX - minX + maxY - minY)
		}
	}
	d := totalDemand(m)
	if d < hpwl*0.8 || d > hpwl*3 {
		t.Errorf("demand %.0f implausible versus HPWL %.0f", d, hpwl)
	}
}

func TestNoOverflowOnBenchmarks(t *testing.T) {
	// These small analog designs fit their routing fabric comfortably.
	for _, c := range netlist.Benchmarks() {
		g := buildGrid(t, c, 3)
		m, err := Estimate(g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if ov := overflow(m); ov != 0 {
			t.Errorf("%s: %d overflowed gcell edges", c.Name, ov)
		}
	}
}

func TestCongestionAtBounds(t *testing.T) {
	g := buildGrid(t, netlist.OTA3(), 4)
	m, err := Estimate(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// In-range and clamped out-of-range queries are finite and non-negative.
	for _, pt := range [][2]int{{0, 0}, {g.NX - 1, g.NY - 1}, {-5, -5}, {g.NX + 100, g.NY + 100}} {
		v := m.CongestionAt(pt[0], pt[1])
		if v < 0 {
			t.Errorf("congestion at %v = %g", pt, v)
		}
	}
	// Somewhere the map must be nonzero.
	max := 0.0
	for y := 0; y < m.NY*m.K; y += m.K {
		for x := 0; x < m.NX*m.K; x += m.K {
			if v := m.CongestionAt(x, y); v > max {
				max = v
			}
		}
	}
	if max == 0 {
		t.Errorf("congestion map all zero")
	}
}

func TestDeterministic(t *testing.T) {
	g := buildGrid(t, netlist.OTA2(), 5)
	m1, err := Estimate(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Estimate(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if totalDemand(m1) != totalDemand(m2) {
		t.Errorf("estimator not deterministic")
	}
}

func TestLShapeAvoidsCongestion(t *testing.T) {
	// Synthetic map: force heavy demand on one corner path and confirm the
	// router picks the other corner.
	m := &Map{NX: 4, NY: 4, K: 1, Capacity: 2}
	m.HDemand = mk2d(4, 4)
	m.VDemand = mk2d(4, 4)
	// Load the horizontal-first corridor y=0 heavily.
	for x := 0; x < 3; x++ {
		m.HDemand[0][x] = 100
	}
	m.routeL([2]int{0, 0}, [2]int{3, 3})
	// The vertical-first corner path uses VDemand column 0 then HDemand row 3.
	usedRow0 := 0.0
	for x := 0; x < 3; x++ {
		usedRow0 += m.HDemand[0][x] - 100
	}
	if usedRow0 > 0 {
		t.Errorf("router used the congested corridor")
	}
	usedRow3 := 0.0
	for x := 0; x < 3; x++ {
		usedRow3 += m.HDemand[3][x]
	}
	if usedRow3 != 3 {
		t.Errorf("expected demand on the free corridor, got %g", usedRow3)
	}
}
