// Package groute is a coarse global router used as a congestion estimator:
// the detailed routing grid is tiled into GCells, every net is pattern-routed
// (best of the two L-shapes per pin connection) onto the GCell edges, and the
// accumulated demand against per-edge capacity yields the congestion map the
// paper's Section 4.1 describes as the natural graph formulation of routing
// cost. The heterogeneous graph consumes it as a pin-access-point feature:
// access points in crowded regions compete harder for resources.
package groute

import (
	"fmt"
	"sort"

	"analogfold/internal/grid"
)

// Map is a GCell congestion map.
type Map struct {
	NX, NY int // GCell grid dimensions
	K      int // detailed cells per GCell side

	// HDemand[y][x] is demand on the horizontal edge from (x,y) to (x+1,y);
	// VDemand[y][x] the vertical edge from (x,y) to (x,y+1).
	HDemand [][]float64
	VDemand [][]float64

	// Capacity is tracks per GCell edge (same for both directions here:
	// alternating preferred-direction layers contribute equally).
	Capacity float64
}

// Config controls the estimator.
type Config struct {
	// GCellSize is the GCell side in detailed cells (default 8).
	GCellSize int
}

// Estimate pattern-routes every net of the grid's circuit and returns the
// demand map.
func Estimate(g *grid.Grid, cfg Config) (*Map, error) {
	k := cfg.GCellSize
	if k <= 0 {
		k = 8
	}
	nx := (g.NX + k - 1) / k
	ny := (g.NY + k - 1) / k
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("groute: degenerate gcell grid %dx%d", nx, ny)
	}
	m := &Map{NX: nx, NY: ny, K: k}
	m.HDemand = mk2d(ny, nx)
	m.VDemand = mk2d(ny, nx)
	// Capacity: per metal layer, k tracks cross a GCell boundary; half the
	// layers run each direction. Reserve a utilization margin.
	m.Capacity = float64(k) * float64(g.NL) / 2 * 0.8

	for ni := range g.NetAPs {
		pins := m.netGCells(g, ni)
		if len(pins) < 2 {
			continue
		}
		// Star topology from the first pin (deterministic ordering), each
		// connection picks the cheaper L-shape given current demand.
		for i := 1; i < len(pins); i++ {
			m.routeL(pins[0], pins[i])
		}
	}
	return m, nil
}

// netGCells returns the distinct GCells covered by a net's access points in
// deterministic order.
func (m *Map) netGCells(g *grid.Grid, ni int) [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, id := range g.NetAPs[ni] {
		ap := g.APs[id]
		gc := [2]int{ap.Cell.X / m.K, ap.Cell.Y / m.K}
		if !seen[gc] {
			seen[gc] = true
			out = append(out, gc)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][1] != out[b][1] {
			return out[a][1] < out[b][1]
		}
		return out[a][0] < out[b][0]
	})
	return out
}

// routeL adds demand along the cheaper of the two L-shaped routes a→b.
func (m *Map) routeL(a, b [2]int) {
	costVia := func(corner [2]int) float64 {
		return m.pathCost(a, corner) + m.pathCost(corner, b)
	}
	c1 := [2]int{b[0], a[1]} // horizontal first
	c2 := [2]int{a[0], b[1]} // vertical first
	corner := c1
	if costVia(c2) < costVia(c1) {
		corner = c2
	}
	m.addPath(a, corner)
	m.addPath(corner, b)
}

// pathCost sums congestion-weighted edge costs along a straight GCell path.
func (m *Map) pathCost(a, b [2]int) float64 {
	cost := 0.0
	m.walk(a, b, func(hor bool, x, y int) {
		var d float64
		if hor {
			d = m.HDemand[y][x]
		} else {
			d = m.VDemand[y][x]
		}
		cost += 1 + d/m.Capacity // congestion-aware edge cost
	})
	return cost
}

// addPath accumulates one unit of demand along a straight GCell path.
func (m *Map) addPath(a, b [2]int) {
	m.walk(a, b, func(hor bool, x, y int) {
		if hor {
			m.HDemand[y][x]++
		} else {
			m.VDemand[y][x]++
		}
	})
}

// walk visits the edges of the straight path a→b (a and b share a row or
// column).
func (m *Map) walk(a, b [2]int, visit func(hor bool, x, y int)) {
	if a[1] == b[1] {
		x0, x1 := a[0], b[0]
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		for x := x0; x < x1; x++ {
			visit(true, x, a[1])
		}
		return
	}
	if a[0] == b[0] {
		y0, y1 := a[1], b[1]
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		for y := y0; y < y1; y++ {
			visit(false, a[0], y)
		}
	}
}

// CongestionAt returns the normalized congestion (max incident edge demand /
// capacity) of the GCell containing detailed cell (cx, cy).
func (m *Map) CongestionAt(cx, cy int) float64 {
	x, y := cx/m.K, cy/m.K
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	if x >= m.NX {
		x = m.NX - 1
	}
	if y >= m.NY {
		y = m.NY - 1
	}
	best := 0.0
	consider := func(v float64) {
		if v > best {
			best = v
		}
	}
	consider(m.HDemand[y][x])
	if x > 0 {
		consider(m.HDemand[y][x-1])
	}
	consider(m.VDemand[y][x])
	if y > 0 {
		consider(m.VDemand[y-1][x])
	}
	return best / m.Capacity
}

func mk2d(ny, nx int) [][]float64 {
	out := make([][]float64, ny)
	for i := range out {
		out[i] = make([]float64, nx)
	}
	return out
}
