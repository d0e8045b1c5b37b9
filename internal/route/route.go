// Package route implements the constraint-aware iterative detailed router of
// the reproduction. It plays two roles from the paper:
//
//   - Unguided, it is the MagicalRoute baseline [16]: grid-based A* search
//     with negotiated-congestion rip-up-and-reroute, analog net ordering,
//     preferred-direction costing and symmetric-pair mirroring.
//   - Fed a guidance.Set, it is the guided detailed router of Problem 3: the
//     per-net guidance C_i[d] scales the step cost along direction d for all
//     cells, steering each net's topology without overriding design rules.
//
// Design-rule correctness is by construction: the routing grid pitch equals
// min-width + min-spacing on every layer and each grid cell is owned by at
// most one net, so any conflict-free solution is DRC-clean (verified
// independently by package drc).
package route

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"analogfold/internal/fault"
	"analogfold/internal/fault/inject"
	"analogfold/internal/geom"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/obs"
)

// Config tunes the router.
type Config struct {
	MaxIters       int     // negotiated-congestion iterations (default 12)
	ViaCost        float64 // cost of one layer hop (default 4)
	WrongWayCost   float64 // multiplier for non-preferred planar moves (default 2)
	HistIncr       float64 // history increment on conflicted cells (default 1.5)
	PresentFactor  float64 // present-congestion factor, scaled by iteration (default 6)
	GuidanceWeight float64 // blend of guidance into step cost, 0..1 (default 0.8)
	SymDiscount    float64 // cost multiplier on mirror cells of the sym peer (default 0.65)
	MinMult        float64 // floor for guidance multipliers, keeps A* admissible-ish (default 0.3)

	// Order selects the net-ordering strategy (default OrderCritical).
	Order OrderStrategy

	// SelectiveReroute, when set, makes negotiation iterations after the
	// first reroute only nets that are currently conflicted (equivalently:
	// nets whose cells gained history at the last sweep — history only rises
	// on multi-use cells, and a net touching one is conflicted). Untouched
	// nets keep their existing paths. The default (false) preserves the
	// original reroute-everything schedule, whose outputs are pinned by the
	// golden-equivalence tests; enabling it can change (not degrade) the
	// routed topology, so it is opt-in.
	SelectiveReroute bool

	// MaxLayerByType restricts the highest routing layer per net type —
	// the analog practice of keeping sensitive signals on lower, thinner
	// metals and reserving thick top metals for supplies. A nil map (the
	// default) leaves all layers open; a missing key means no restriction
	// for that type.
	MaxLayerByType map[netlist.NetType]int
}

func (c Config) withDefaults() Config {
	if c.MaxIters == 0 {
		c.MaxIters = 12
	}
	if c.ViaCost == 0 {
		c.ViaCost = 4
	}
	if c.WrongWayCost == 0 {
		c.WrongWayCost = 2
	}
	if c.HistIncr == 0 {
		c.HistIncr = 1.5
	}
	if c.PresentFactor == 0 {
		c.PresentFactor = 6
	}
	if c.GuidanceWeight == 0 {
		c.GuidanceWeight = 0.8
	}
	if c.SymDiscount == 0 {
		c.SymDiscount = 0.65
	}
	if c.MinMult == 0 {
		c.MinMult = 0.3
	}
	return c
}

// Result is a completed routing solution.
type Result struct {
	// NetCells lists every grid cell occupied by each net (pin pads + wires).
	NetCells [][]geom.Point3
	// NetSegs lists the wire segments of each net, for extraction.
	NetSegs [][]geom.Seg
	// WirelengthNm is total planar wirelength in nm; Vias counts layer hops.
	WirelengthNm int
	Vias         int
	// Iterations is the number of rip-up-and-reroute rounds used.
	Iterations int
}

// Router holds reusable search state for one grid. All per-search and
// per-net scratch lives here as epoch-stamped flat arrays and growable
// buffers, so the steady-state search loop allocates nothing.
type Router struct {
	g   *grid.Grid
	cfg Config

	// cells is the per-cell record the A* loop reads: search scratch,
	// negotiation state, the static obstacle word and the cell's coordinates,
	// one 48-byte record per lattice cell.
	cells []cellState
	epoch int32 // current search epoch (see cellState.stamp)

	// Per-net scratch, versioned by netEpoch (one bump per routed net):
	// treeStamp marks cells of the growing route tree, cellStamp cells of
	// the net's cell set, cellState.mirror mirror cells of the routed peer.
	treeStamp []int32
	cellStamp []int32
	netEpoch  int32

	// Reusable index lists and buffers backing the stamped sets above.
	treeCells []int32
	cellIdx   []int32
	seedBuf   []int32
	pathBuf   []int32
	remaining []remGroup
	open      pqHeap

	// Per-net step costs filled by prepNetCosts: stepCost[di*NL+z] is the
	// cost of a neighborDirs[di] step from layer z (preferred-direction
	// penalty folded in); maxZ is the net's highest allowed layer.
	stepCost []float64
	maxZ     int
	hScale   float64

	// dirDelta[i] is the flat-index offset of neighborDirs[i].
	dirDelta [6]int

	// Incremental conflict accounting: conflictCount tracks cells with
	// usage > 1 (maintained by commit/ripUp); conflictCells is the worklist
	// of cells that became multi-use, compacted at each history sweep, with
	// inConflict guarding membership.
	conflictCount int
	conflictCells []int32
	inConflict    []bool

	// pinGroupCache[net] memoizes pinGroups: access points never change
	// after grid construction.
	pinGroupCache [][]pinGroup

	// ctx is the run's cancellation context, checked between nets and
	// periodically inside A* so a deadline interrupts even a single
	// pathological search. Set by RunCtx; never nil during a run.
	ctx      context.Context
	ctxPolls int
}

// cellState is one lattice cell's record. Search fields (dist, parent,
// closed, target) are valid only while stamp, closed or target equals the
// current search epoch; mirror is valid at the current net epoch. Bumping an
// epoch invalidates the whole lattice in O(1).
type cellState struct {
	dist   float64 // best path cost found this search (valid when stamp == epoch)
	hist   float64 // PathFinder history cost
	parent int32   // predecessor on the best path, -1 at a seed
	stamp  int32   // search epoch in which dist/parent were written
	closed int32   // search epoch in which the cell was expanded
	target int32   // search epoch in which the cell is a target
	mirror int32   // net epoch in which the cell mirrors the routed sym peer
	// obst is static: obstBlocked, obstFree or the net owning the cell as a
	// pin access point. A search for net ni may enter the cell only when
	// obst is obstFree or ni.
	obst  int32
	usage int16 // number of nets currently using the cell
	x, y  uint16
	z     uint8
	// nbr has bit di set when neighborDirs[di] stays inside the lattice.
	nbr uint8
}

// Static obstacle words.
const (
	obstBlocked int32 = -2
	obstFree    int32 = -1
)

// maxCells bounds the lattice: cell indices are int32 in the open list and
// the parent links.
const maxCells = math.MaxInt32

// NewRouter creates a router over a grid. It fails with a typed
// fault.ErrInvalidInput when a grid dimension does not fit the per-cell
// record's coordinate fields or the lattice exceeds int32 cell indices.
func NewRouter(g *grid.Grid, cfg Config) (*Router, error) {
	if g.NX > math.MaxUint16 || g.NY > math.MaxUint16 || g.NL > math.MaxUint8 ||
		int64(g.NX)*int64(g.NY)*int64(g.NL) > maxCells {
		return nil, fault.New(fault.StageRouting, fault.ErrInvalidInput,
			"route: %d×%d×%d grid exceeds the router's limits (%d×%d×%d, %d cells)",
			g.NX, g.NY, g.NL, math.MaxUint16, math.MaxUint16, math.MaxUint8, maxCells)
	}
	n := g.NumCells()
	r := &Router{
		g: g, cfg: cfg.withDefaults(),
		cells:         make([]cellState, n),
		treeStamp:     make([]int32, n),
		cellStamp:     make([]int32, n),
		stepCost:      make([]float64, len(neighborDirs)*g.NL),
		dirDelta:      [6]int{1, -1, g.NX, -g.NX, g.NX * g.NY, -(g.NX * g.NY)},
		inConflict:    make([]bool, n),
		pinGroupCache: make([][]pinGroup, len(g.NetAPs)),
	}
	idx := 0
	for z := 0; z < g.NL; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				cs := &r.cells[idx]
				cs.x, cs.y, cs.z = uint16(x), uint16(y), uint8(z)
				cs.nbr = inBoundsBit(x+1 < g.NX, 0) | inBoundsBit(x > 0, 1) |
					inBoundsBit(y+1 < g.NY, 2) | inBoundsBit(y > 0, 3) |
					inBoundsBit(z+1 < g.NL, 4) | inBoundsBit(z > 0, 5)
				cs.obst = int32(g.OwnerAt(idx)) // obstFree when unowned
				if g.BlockedAt(idx) {
					cs.obst = obstBlocked
				}
				idx++
			}
		}
	}
	return r, nil
}

func inBoundsBit(ok bool, di uint) uint8 {
	if ok {
		return 1 << di
	}
	return 0
}

// resetState clears the cross-iteration routing state so a reused Router
// starts a run exactly like a fresh one (the epoch-stamped search scratch
// needs no clearing). The previous implementation carried stale usage and
// history into reruns; resetting makes Router reuse exactly equivalent to
// constructing a new Router.
func (r *Router) resetState() {
	for i := range r.cells {
		r.cells[i].usage = 0
		r.cells[i].hist = 0
	}
	for _, idx := range r.conflictCells {
		r.inConflict[idx] = false
	}
	r.conflictCells = r.conflictCells[:0]
	r.conflictCount = 0
}

// Route runs the full iterative flow with the given guidance (use
// guidance.Uniform for the unguided baseline). It is the
// context-free convenience over RouteCtx.
func Route(g *grid.Grid, gd guidance.Set, cfg Config) (*Result, error) {
	return RouteCtx(context.Background(), g, gd, cfg)
}

// RouteCtx is Route under a cancellation context: the search observes ctx
// between nets and periodically inside A*, returning a typed fault
// (fault.ErrTimeout / fault.ErrCanceled) when the deadline lands mid-run.
func RouteCtx(ctx context.Context, g *grid.Grid, gd guidance.Set, cfg Config) (*Result, error) {
	r, err := NewRouter(g, cfg)
	if err != nil {
		return nil, err
	}
	return r.RunCtx(ctx, gd)
}

// Run executes rip-up-and-reroute until conflict-free or MaxIters, then a
// hard-blocked post-pass (the paper's post-processing step) for any
// leftovers.
func (r *Router) Run(gd guidance.Set) (*Result, error) {
	return r.RunCtx(context.Background(), gd)
}

// RunCtx is Run under a cancellation context.
func (r *Router) RunCtx(ctx context.Context, gd guidance.Set) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.ctx = ctx
	r.resetState()
	c := r.g.Place.Circuit
	if len(gd.PerNet) != len(c.Nets) {
		return nil, fault.New(fault.StageRouting, fault.ErrInvalidInput,
			"route: guidance covers %d nets, circuit has %d", len(gd.PerNet), len(c.Nets))
	}
	order := r.netOrder()
	netCells := make([][]geom.Point3, len(c.Nets))
	netPaths := make([][][]geom.Point3, len(c.Nets)) // raw A* paths per net

	// Telemetry observes only at iteration boundaries — never inside A* or
	// the per-net loop body — so the zero-allocation search loop and the
	// golden route digests are untouched whether or not a sink is attached.
	tel := obs.FromContext(ctx)
	var totalRipups, totalSkips int

	iter := 0
	for ; iter < r.cfg.MaxIters; iter++ {
		conflicts := 0
		ripups, skips := 0, 0
		for _, ni := range order {
			// With SelectiveReroute, later iterations only revisit nets on
			// the conflict worklist: nets sharing a cell with another net
			// (which is also exactly the set whose cells gained history at
			// the last sweep). Everything else keeps its committed path.
			if r.cfg.SelectiveReroute && iter > 0 && !r.netConflicted(ni, netCells[ni]) {
				skips++
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, fault.FromContext(fault.StageRouting, err).WithNet(ni)
			}
			if inject.Fire(inject.RouteFail) {
				return nil, fault.New(fault.StageRouting, fault.ErrRouteFailed,
					"route: injected step failure at net %s", c.Nets[ni].Name).WithNet(ni)
			}
			r.ripUp(ni, netCells[ni])
			ripups++
			cells, paths, err := r.routeNet(ni, gd, iter, netCells)
			if err != nil {
				return nil, wrapNetErr(err, ni)
			}
			netCells[ni] = cells
			netPaths[ni] = paths
			r.commit(ni, cells)
		}
		conflicts = r.countConflictsAndRaiseHistory()
		totalRipups += ripups
		totalSkips += skips
		if tel.Enabled() {
			obs.Event(ctx, "route.iteration", map[string]any{
				"iteration": iter, "conflicts": conflicts,
				"ripups": ripups, "selective_skips": skips,
			})
		}
		if conflicts == 0 {
			iter++
			break
		}
	}

	// Post-processing: if conflicts remain, reroute every conflicted net with
	// foreign cells as hard obstacles.
	if r.totalConflicts() > 0 {
		postRerouted := 0
		for _, ni := range order {
			if !r.netConflicted(ni, netCells[ni]) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, fault.FromContext(fault.StageRouting, err).WithNet(ni)
			}
			r.ripUp(ni, netCells[ni])
			postRerouted++
			cells, paths, err := r.routeNetHard(ni, gd, netCells)
			if err != nil {
				return nil, wrapNetErr(fmt.Errorf("route: post-processing failed for net %s: %w", c.Nets[ni].Name, err), ni)
			}
			netCells[ni] = cells
			netPaths[ni] = paths
			r.commit(ni, cells)
		}
		if tel.Enabled() {
			obs.Event(ctx, "route.post", map[string]any{"rerouted": postRerouted})
		}
		if n := r.totalConflicts(); n > 0 {
			return nil, fault.New(fault.StageRouting, fault.ErrRouteFailed,
				"route: %d conflicts remain after post-processing", n)
		}
	}

	res := &Result{NetCells: netCells, Iterations: iter}
	res.NetSegs = make([][]geom.Seg, len(c.Nets))
	for ni, paths := range netPaths {
		for _, p := range paths {
			segs := geom.PathToSegs(p)
			res.NetSegs[ni] = append(res.NetSegs[ni], segs...)
			for _, s := range segs {
				if s.IsVia() {
					res.Vias += s.Len()
				} else {
					res.WirelengthNm += s.Len() * r.g.Pitch
				}
			}
		}
	}
	reg := tel.Registry()
	reg.Counter("analogfold_route_negotiation_iters_total").Add(int64(iter))
	reg.Counter("analogfold_route_ripups_total").Add(int64(totalRipups))
	reg.Counter("analogfold_route_selective_skips_total").Add(int64(totalSkips))
	if tel.Enabled() {
		obs.Event(ctx, "route.done", map[string]any{
			"iterations": iter, "wirelength_nm": res.WirelengthNm, "vias": res.Vias,
		})
	}
	return res, nil
}

// wrapNetErr attributes a per-net routing failure: already-typed faults
// (cancellation surfaced from A*) pass through untouched, anything else
// becomes a typed ErrRouteFailed at the net.
func wrapNetErr(err error, ni int) error {
	var fe *fault.Error
	if errors.As(err, &fe) {
		return err
	}
	return fault.Wrap(fault.StageRouting, fault.ErrRouteFailed, err, "").WithNet(ni)
}

// OrderStrategy selects how nets are sequenced each rip-up-and-reroute
// iteration. Ordering matters: earlier nets grab the cheapest resources.
type OrderStrategy int

// Net ordering strategies.
const (
	// OrderCritical routes by analog criticality: inputs, signals, outputs,
	// bias, then supplies — the ordering analog routers use so sensitive
	// nets get first pick (the default).
	OrderCritical OrderStrategy = iota
	// OrderFewestPins routes small nets first (they have the least routing
	// freedom).
	OrderFewestPins
	// OrderLargestSpan routes nets with the widest pin bounding boxes first
	// (they cross the most territory).
	OrderLargestSpan
)

// netOrder returns the net sequence for the configured strategy, always
// keeping symmetric pairs adjacent so the mirror discount sees a fresh peer.
func (r *Router) netOrder() []int {
	c := r.g.Place.Circuit
	rank := func(t netlist.NetType) int {
		switch t {
		case netlist.NetInput:
			return 0
		case netlist.NetSignal:
			return 1
		case netlist.NetOutput:
			return 2
		case netlist.NetBias:
			return 3
		case netlist.NetGround:
			return 4
		default: // power
			return 5
		}
	}
	span := func(ni int) int {
		minX, maxX, minY, maxY := 1<<30, -(1 << 30), 1<<30, -(1 << 30)
		for _, id := range r.g.NetAPs[ni] {
			p := r.g.APs[id].Pos
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		if maxX < minX {
			return 0
		}
		return (maxX - minX) + (maxY - minY)
	}
	less := func(a, b int) bool {
		switch r.cfg.Order {
		case OrderFewestPins:
			pa, pb := len(c.Nets[a].Pins), len(c.Nets[b].Pins)
			if pa != pb {
				return pa < pb
			}
		case OrderLargestSpan:
			sa, sb := span(a), span(b)
			if sa != sb {
				return sa > sb
			}
		default:
			ra, rb := rank(c.Nets[a].Type), rank(c.Nets[b].Type)
			if ra != rb {
				return ra < rb
			}
		}
		return a < b
	}

	peer := make([]int, len(c.Nets))
	for i := range peer {
		peer[i] = -1
	}
	for _, pr := range c.SymNetPairs {
		peer[pr[0]] = pr[1]
		peer[pr[1]] = pr[0]
	}
	order := make([]int, 0, len(c.Nets))
	used := make([]bool, len(c.Nets))
	idx := make([]int, len(c.Nets))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	for _, ni := range idx {
		if used[ni] {
			continue
		}
		order = append(order, ni)
		used[ni] = true
		if p := peer[ni]; p >= 0 && !used[p] {
			order = append(order, p)
			used[p] = true
		}
	}
	return order
}

// symPeer returns the symmetric peer net of ni, or -1.
func (r *Router) symPeer(ni int) int {
	for _, pr := range r.g.Place.Circuit.SymNetPairs {
		if pr[0] == ni {
			return pr[1]
		}
		if pr[1] == ni {
			return pr[0]
		}
	}
	return -1
}
