package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"analogfold/internal/circuit"
	"analogfold/internal/core"
	"analogfold/internal/dataset"
	"analogfold/internal/drc"
	"analogfold/internal/extract"
	"analogfold/internal/gnn3d"
	"analogfold/internal/grid"
	"analogfold/internal/hetgraph"
	"analogfold/internal/lvs"
	"analogfold/internal/netlist"
	"analogfold/internal/parallel"
	"analogfold/internal/place"
	"analogfold/internal/relax"
	"analogfold/internal/route"
	"analogfold/internal/tech"
)

// flowInput is one benchmark of the cold-flow set.
type flowInput struct {
	name string
	c    *netlist.Circuit
	prof place.Profile
}

// flowInputs parses the benchmark set in the order the seed picks. The flow
// options themselves are the fixed quick-scale experiment setting: across
// flow seeds the flow's time and quality move by 10-30% (placement, dataset
// and relaxation are all seeded), which would swamp any bound worth having.
func flowInputs(sc scale, seed int64) ([]flowInput, error) {
	names := append([]string(nil), sc.flowBenches...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	var in []flowInput
	for _, n := range names {
		c, prof, err := core.ParseBenchmark(n)
		if err != nil {
			return nil, err
		}
		in = append(in, flowInput{n, c, prof})
	}
	return in, nil
}

// runFlowCold sets the flows up, placing every benchmark and building its
// routing grid (core.NewFlowCtx, five times; setup_s is the median), then
// times one cold RunAnalogFold pass over them: the operation. It makes
// exactly one pass whatever the measurement time, because a second pass in
// the same process is no longer cold (it runs measurably faster on a grown
// heap) and a varying pass count would mix the two.
func runFlowCold(ctx context.Context, cfg config, rep *report) error {
	inputs, err := flowInputs(cfg.scale, cfg.seed)
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceFlowCold(ctx, cfg, rep, inputs)
	}
	var flows []*core.Flow
	setupS, err := timeReps(5, func() (err error) {
		flows, err = newFlows(ctx, inputs, cfg.scale.opts)
		return err
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	outs, err := runFlows(ctx, inputs, flows)
	d := time.Since(t0)
	retained := retainedHeapMB() // with the flows and their outcomes held
	runtime.KeepAlive(flows)
	if err == nil {
		err = checkOutcomes(inputs, outs)
	}
	rep.op(err)
	var (
		lat []float64
		q   quality
	)
	if err == nil {
		lat = append(lat, ms(d))
		for _, o := range outs {
			q.add(o.Metrics.OffsetUV, o.Metrics.CMRRdB, o.WirelengthNm)
		}
	}
	rep.setEndToEnd(setupS, lat, d, q.mean(), retained)
	return ctx.Err()
}

// newFlows places every benchmark and builds its routing grid.
func newFlows(ctx context.Context, inputs []flowInput, o core.Options) ([]*core.Flow, error) {
	var flows []*core.Flow
	for _, in := range inputs {
		f, err := core.NewFlowCtx(ctx, in.c, in.prof, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		flows = append(flows, f)
	}
	return flows, nil
}

// runFlows runs the paper's cold AnalogFold flow on every flow, in order.
func runFlows(ctx context.Context, inputs []flowInput, flows []*core.Flow) ([]*core.Outcome, error) {
	var outs []*core.Outcome
	for i, f := range flows {
		out, err := f.RunAnalogFold(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inputs[i].name, err)
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// coldPass is a whole cold pass, set-up included, as the traced pass
// rebuilds it.
func coldPass(ctx context.Context, inputs []flowInput, o core.Options) ([]*core.Outcome, error) {
	flows, err := newFlows(ctx, inputs, o)
	if err != nil {
		return nil, err
	}
	return runFlows(ctx, inputs, flows)
}

// checkOutcomes requires every flow to finish on the elite rung with no
// failed candidate and finite metrics.
func checkOutcomes(inputs []flowInput, outs []*core.Outcome) error {
	for i, o := range outs {
		d := o.Degradation
		if d == nil || d.FinalRung != core.RungElite || d.Degraded() || d.CandidatesFailed > 0 {
			return fmt.Errorf("%s: degraded flow: %v", inputs[i].name, d)
		}
		m := o.Metrics
		if err := finite(metricNames, m.OffsetUV, m.CMRRdB, m.BandwidthMHz, m.GainDB, m.NoiseUVrms); err != nil {
			return fmt.Errorf("%s: %w", inputs[i].name, err)
		}
		if o.WirelengthNm <= 0 {
			return fmt.Errorf("%s: empty layout", inputs[i].name)
		}
	}
	return nil
}

var metricNames = []string{"offset", "cmrr", "bandwidth", "gain", "noise"}

// traceFlowCold makes an untraced pass through core, a traced pass rebuilt
// from the layer functions, and a second untraced pass. Both untraced passes
// must agree with the traced one; the per-layer rows come from the traced
// pass, and the tracing cost is its time against the mean of the untraced
// two.
func traceFlowCold(ctx context.Context, cfg config, rep *report, inputs []flowInput) error {
	o := cfg.scale.opts
	untracedPass := func() ([]*core.Outcome, time.Duration, error) {
		t0 := time.Now()
		outs, err := coldPass(ctx, inputs, o)
		d := time.Since(t0)
		if err == nil {
			err = checkOutcomes(inputs, outs)
		}
		rep.op(err)
		return outs, d, err
	}
	outs, untraced0, err := untracedPass()
	if err != nil {
		return err
	}

	tr := &tracer{}
	root := tr.begin("core", -1)
	var comps []*composed
	for _, in := range inputs {
		c, err := composeFlow(ctx, tr, root, in, o)
		if err != nil {
			rep.op(fmt.Errorf("%s: traced composition: %w", in.name, err))
			return rep.setLayers(layers{})
		}
		comps = append(comps, c)
	}
	tr.end(root)
	traced := tr.wall()

	outs2, untraced2, err := untracedPass()
	if err != nil {
		return err
	}

	var errs []error
	for i, c := range comps {
		errs = append(errs, c.check(inputs[i], outs[i]), c.check(inputs[i], outs2[i]))
	}
	rep.op(errors.Join(errs...))

	l := layers{}
	self := tr.selfTimes()
	for _, name := range []string{"place", "grid", "dataset", "hetgraph", "relax", "route", "extract", "circuit"} {
		l[name+".ms"] = ms(self[name])
	}
	l["gnn3d.fit_ms"] = ms(self["gnn3d"])
	var kept, dropped, evals, calls int
	for i, c := range comps {
		kept += c.train.samples
		dropped += c.train.dropped
		evals += c.evals
		calls += len(c.cands)
		l["dataset.alloc_mb"] += c.train.datasetMB
		l["gnn3d.fit_alloc_mb"] += c.train.fitMB
		l["relax.retried"] += float64(c.retried)
		replay := c.replayAllocMB(tr, inputs[i])
		l["route.alloc_mb"] += c.fanoutMB - replay
		for _, cd := range c.cands {
			l["route.iterations"] += float64(cd.res.Iterations)
		}
	}
	l["dataset.samples"] = float64(kept)
	l["dataset.kept_ratio"] = ratio(kept, kept+dropped)
	l["relax.evals"] = float64(evals)
	l["relax.ms_per_eval"] = l["relax.ms"] / float64(max(evals, 1))
	l["route.calls"] = float64(calls)
	l["core.unattributed_pct"] = 100 * float64(self["core"]) / float64(traced)
	rep.detail["core.unattributed"] = map[string]float64{
		"wall_ms": ms(traced), "layers_ms": ms(traced - self["core"]),
	}
	setOverhead(l, rep, traced, untraced0, untraced2)
	return rep.setLayers(l)
}

// composed is one benchmark's traced flow, rebuilt from the layer calls.
type composed struct {
	g        *grid.Grid
	train    trainStats
	evals    int
	retried  int
	cands    []candidate
	best     int // index into cands
	fanoutMB float64
}

// candidate is one routed guidance set of the guided-routing fan-out.
type candidate struct {
	g   *grid.Grid
	res *route.Result
	m   circuit.Metrics
	fom float64
}

// trainStats are the counters of one model training.
type trainStats struct {
	samples, dropped int
	datasetMB, fitMB float64
}

// composeFlow is RunAnalogFold rebuilt from the layer functions with the
// same options and the same fan-out, each call inside a span named after its
// module.
func composeFlow(ctx context.Context, tr *tracer, root int, in flowInput, o core.Options) (*composed, error) {
	g, err := placeAndGrid(tr, root, in, o)
	if err != nil {
		return nil, err
	}
	model, hg, st, err := trainModel(ctx, tr, root, g, o)
	if err != nil {
		return nil, err
	}
	c := &composed{g: g, train: st}
	var rres *relax.Result
	tr.do("relax", root, func() {
		rres, err = relax.Optimize(ctx, model, hg, relax.Config{
			Restarts: o.RelaxRestarts, NDerive: o.NDerive, Seed: o.Seed,
			MaxIter: 25, Workers: o.Workers,
		})
	})
	if err != nil {
		return nil, err
	}
	c.evals, c.retried = rres.Evals, rres.Retried

	fan := tr.begin("core", root)
	c.fanoutMB = tr.allocMB(func() {
		c.cands, err = parallel.Map(ctx, o.Workers, len(rres.Guides), func(i int) (candidate, error) {
			cd := candidate{g: g.Clone()}
			var rerr error
			tr.do("route", fan, func() { cd.res, rerr = route.RouteCtx(ctx, cd.g, rres.Guides[i], o.RouteCfg) })
			if rerr != nil {
				return cd, rerr
			}
			var par *extract.Parasitics
			tr.do("extract", fan, func() { par = extract.Extract(cd.g, cd.res) })
			tr.do("circuit", fan, func() { cd.m, rerr = circuit.Evaluate(in.c, par) })
			cd.fom = scalarFoM(model, cd.m)
			return cd, rerr
		})
	})
	tr.end(fan)
	if err != nil {
		return nil, err
	}
	if len(c.cands) == 0 {
		return nil, errors.New("relaxation derived no guidance")
	}
	// The winner is the lowest figure of merit, scanning in guidance order so
	// that ties resolve as in core.
	for i, cd := range c.cands {
		if cd.fom < c.cands[c.best].fom {
			c.best = i
		}
	}
	return c, nil
}

// placeAndGrid is NewFlowCtx's placement stage.
func placeAndGrid(tr *tracer, root int, in flowInput, o core.Options) (*grid.Grid, error) {
	var (
		p   *place.Placement
		g   *grid.Grid
		err error
	)
	tr.do("place", root, func() {
		p, err = place.Place(in.c, place.Config{Profile: in.prof, Seed: o.Seed, Iterations: o.PlaceIters})
	})
	if err != nil {
		return nil, err
	}
	tr.do("grid", root, func() { g, err = grid.Build(p, tech.Sim40()) })
	return g, err
}

// trainModel is RunAnalogFold's database construction and 3DGNN training.
func trainModel(ctx context.Context, tr *tracer, root int, g *grid.Grid, o core.Options) (*gnn3d.Model, *hetgraph.Graph, trainStats, error) {
	var (
		st  trainStats
		ds  *dataset.Dataset
		hg  *hetgraph.Graph
		m   *gnn3d.Model
		err error
	)
	st.datasetMB = tr.allocMB(func() {
		tr.do("dataset", root, func() {
			ds, err = dataset.Generate(ctx, g, dataset.Config{
				Samples: o.Samples, Workers: o.Workers, Seed: o.Seed,
				RouteCfg: o.RouteCfg, IncludeUniform: true,
			})
		})
	})
	if err != nil {
		return nil, nil, st, err
	}
	st.samples, st.dropped = len(ds.Entries), ds.Dropped
	tr.do("hetgraph", root, func() { hg, err = hetgraph.Build(g, hetgraph.Config{}) })
	if err != nil {
		return nil, nil, st, err
	}
	gcfg := o.GNN
	gcfg.Seed = o.Seed
	st.fitMB = tr.allocMB(func() {
		tr.do("gnn3d", root, func() {
			m = gnn3d.New(gcfg)
			_, err = m.Fit(ctx, hg, ds.Samples(), gnn3d.TrainConfig{
				Epochs: o.TrainEpochs, Seed: o.Seed, BatchSize: o.TrainBatch, Workers: o.Workers,
			})
		})
	})
	return m, hg, st, err
}

// scalarFoM folds the five metrics into core's lower-is-better figure of
// merit: the model's target normalization signed by the relaxation's metric
// signs.
func scalarFoM(m *gnn3d.Model, mt circuit.Metrics) float64 {
	yn := m.Normalize([gnn3d.NumMetrics]float64{mt.OffsetUV, mt.CMRRdB, mt.BandwidthMHz, mt.GainDB, mt.NoiseUVrms})
	s := 0.0
	for i := range yn {
		s += relax.MetricSigns[i] * yn[i]
	}
	return s
}

// check requires the composition to reproduce RunAnalogFold's outcome
// exactly and every routed candidate to be DRC- and LVS-clean.
func (c *composed) check(in flowInput, out *core.Outcome) error {
	b := c.cands[c.best]
	if b.m != out.Metrics || b.res.WirelengthNm != out.WirelengthNm || b.res.Vias != out.Vias {
		return fmt.Errorf("%s: composition %+v wl=%d vias=%d, RunAnalogFold %+v wl=%d vias=%d",
			in.name, b.m, b.res.WirelengthNm, b.res.Vias, out.Metrics, out.WirelengthNm, out.Vias)
	}
	if d := out.Degradation; len(c.cands) != d.CandidatesTried || c.retried != d.RelaxRetried {
		return fmt.Errorf("%s: composition routed %d candidates (%d relax retries), RunAnalogFold %d (%d)",
			in.name, len(c.cands), c.retried, d.CandidatesTried, d.RelaxRetried)
	}
	for i, cd := range c.cands {
		if v := drc.Check(cd.g, cd.res); len(v) > 0 {
			return fmt.Errorf("%s: candidate %d: %d DRC violations, first %v", in.name, i, len(v), v[0])
		}
		if r := lvs.Check(cd.g, cd.res); !r.Clean() {
			return fmt.Errorf("%s: candidate %d: LVS %d/%d nets ok", in.name, i, r.NetsOK, r.NetsTotal)
		}
	}
	return nil
}

// replayAllocMB repeats, one at a time, the non-routing work of the
// fan-out (grid clone, extraction, simulation) and returns what it
// allocates, so that the fan-out's allocation can be charged to routing.
func (c *composed) replayAllocMB(tr *tracer, in flowInput) float64 {
	var mb float64
	for _, cd := range c.cands {
		mb += tr.allocMB(func() {
			g := c.g.Clone()
			// The fan-out already checked this call's error; only its
			// allocation is wanted here.
			_, _ = circuit.Evaluate(in.c, extract.Extract(g, cd.res))
		})
	}
	return mb
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
