// Package core orchestrates the complete AnalogFold flow of the paper
// (Figure 2): placement → routing-grid construction → database construction
// (guidance-labeled routing samples) → 3DGNN training → pool-assisted
// potential relaxation → guided detailed routing → post-layout evaluation.
// It also drives the two baselines of Table 2 — MagicalRoute [16] (the same
// detailed router, unguided) and GeniusRoute [11] (VAE imitation guidance) —
// under identical conditions.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"time"

	"analogfold/internal/circuit"
	"analogfold/internal/dataset"
	"analogfold/internal/extract"
	"analogfold/internal/fault"
	"analogfold/internal/fault/inject"
	"analogfold/internal/gnn3d"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/obs"
	"analogfold/internal/parallel"
	"analogfold/internal/place"
	"analogfold/internal/relax"
	"analogfold/internal/route"
	"analogfold/internal/tech"
	"analogfold/internal/vae"
)

// Method identifies a routing flow in Table 2.
type Method string

// The compared methods.
const (
	MethodSchematic  Method = "Schematic"
	MethodMagical    Method = "MagicalRoute"
	MethodGenius     Method = "GeniusRoute"
	MethodAnalogFold Method = "AnalogFold"
)

// Options sizes the flow. Zero values select experiment defaults scaled for
// minutes-long runs; the paper's full-scale settings (2000 samples) are a
// matter of turning these up.
type Options struct {
	Samples       int // database size per placement
	TrainEpochs   int
	RelaxRestarts int
	NDerive       int
	// Workers bounds every parallel fan-out of the flow: dataset labeling,
	// minibatch gradients, relaxation restarts, candidate routing and the
	// per-method benchmark evaluation (0 → GOMAXPROCS). All paths are
	// deterministic in the worker count.
	Workers int
	// TrainBatch is the 3DGNN minibatch size; per-sample gradients within a
	// batch are computed in parallel (default 4).
	TrainBatch int
	Seed       int64
	PlaceIters int
	GNN        gnn3d.Config
	RouteCfg   route.Config
	VAECorpus  int // sibling placements for the GeniusRoute corpus
	VAEEpochs  int

	// StageTimeout bounds each pipeline stage (database construction, 3DGNN
	// training, relaxation, routing) independently; when a stage overruns it,
	// the run aborts with a typed fault.ErrTimeout attributed to that stage.
	// TotalTimeout bounds a whole benchmark run (applied by RunBenchmark and
	// the CLI). Zero disables the respective deadline.
	StageTimeout time.Duration
	TotalTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Samples == 0 {
		o.Samples = 220
	}
	if o.TrainEpochs == 0 {
		o.TrainEpochs = 60
	}
	if o.RelaxRestarts == 0 {
		o.RelaxRestarts = 10
	}
	if o.NDerive == 0 {
		o.NDerive = 4
	}
	if o.PlaceIters == 0 {
		o.PlaceIters = 3000
	}
	if o.VAECorpus == 0 {
		o.VAECorpus = 5
	}
	if o.VAEEpochs == 0 {
		o.VAEEpochs = 40
	}
	if o.TrainBatch == 0 {
		o.TrainBatch = 4
	}
	return o
}

// withPhase tags everything fn runs (including goroutines it spawns) with a
// pprof "phase" label, so -cpuprofile output attributes samples to the
// Figure-5 stages instead of one undifferentiated flow, and opens a telemetry
// span of the same name so -trace-out renders the stage timeline. The
// caller's context flows through unchanged, so cancellation crosses the label
// boundary; with no telemetry attached the span is a nil no-op. Phases that
// map onto a request latency stage additionally feed the context's
// StageBreakdown, which is how serving requests attribute relax and route
// time without the handlers instrumenting core internals.
//
// withPhase is the flow's only stage clock: it returns the phase's elapsed
// time, and every StageTimes field and Outcome.Runtime is a sum of these
// returns (scripts/ci.sh rejects any other clock in this package).
func withPhase(ctx context.Context, phase string, fn func(context.Context)) (elapsed time.Duration) {
	sctx, span := obs.StartSpan(ctx, phase)
	start := time.Now()
	defer func() {
		elapsed = time.Since(start)
		if st, ok := phaseStage(phase); ok {
			obs.StagesFrom(ctx).Add(st, elapsed)
		}
		span.End()
	}()
	pprof.Do(sctx, pprof.Labels("phase", phase), fn)
	return
}

// phaseStage maps a Figure-5 phase onto the request-latency stage taxonomy.
// Only the phases a warm serving request can run are mapped; cold-flow phases
// (placement, training) never execute under a request's StageBreakdown.
func phaseStage(phase string) (obs.StageID, bool) {
	switch phase {
	case "relaxation":
		return obs.StageRelax, true
	case "guided-routing":
		return obs.StageRoute, true
	}
	return 0, false
}

// stageCtx derives the per-stage context: Opts.StageTimeout bounds each stage
// independently when set. The injected stage-latency fault point (chaos
// builds only) sleeps before the deadline starts being consumed by real work,
// which is how the harness provokes stage overruns deterministically.
func (f *Flow) stageCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if f.Opts.StageTimeout > 0 {
		c, cancel := context.WithTimeout(ctx, f.Opts.StageTimeout)
		inject.Sleep(inject.StageLatency)
		return c, cancel
	}
	inject.Sleep(inject.StageLatency)
	return context.WithCancel(ctx)
}

// terminalFault reports whether err carries a cancellation or deadline: those
// must abort the flow — retrying or degrading would fight the clock — while
// every other fault is a candidate for the degradation ladder.
func terminalFault(err error) bool {
	return err != nil && (fault.IsTimeout(err) ||
		errors.Is(err, fault.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded))
}

// StageTimes records the Figure-5 runtime breakdown.
type StageTimes struct {
	Placement         time.Duration
	ConstructDatabase time.Duration
	ModelTraining     time.Duration
	GuideGeneration   time.Duration // feature extraction + inference + relaxation
	GuidedRouting     time.Duration
}

// Total sums all stages.
func (s StageTimes) Total() time.Duration {
	return s.Placement + s.ConstructDatabase + s.ModelTraining + s.GuideGeneration + s.GuidedRouting
}

// Outcome is one method's result on one benchmark.
type Outcome struct {
	Method       Method
	Metrics      circuit.Metrics
	Runtime      time.Duration // guidance generation + routing (Table 2 semantics)
	Times        StageTimes
	WirelengthNm int
	Vias         int
	// Degradation is RunAnalogFold's recovery account (nil for the baseline
	// methods). A fault-free run reports FinalRung == RungElite with no
	// events; see DegradationReport.
	Degradation *DegradationReport
}

// Flow holds the per-benchmark state shared by all methods.
type Flow struct {
	Circuit *netlist.Circuit
	Profile place.Profile
	Opts    Options

	Placement *place.Placement
	Grid      *grid.Grid
	placeTime time.Duration
}

// NewFlow places the circuit under the given net-weight profile and builds
// the routing grid.
func NewFlow(c *netlist.Circuit, profile place.Profile, opts Options) (*Flow, error) {
	return NewFlowCtx(context.Background(), c, profile, opts)
}

// NewFlowCtx is NewFlow with a context, so the placement stage joins any
// telemetry span tree carried by ctx (the remaining stages are spanned inside
// the Run* methods). Placement itself does not observe cancellation.
func NewFlowCtx(ctx context.Context, c *netlist.Circuit, profile place.Profile, opts Options) (*Flow, error) {
	opts = opts.withDefaults()
	var (
		p   *place.Placement
		g   *grid.Grid
		err error
	)
	placeTime := withPhase(ctx, "placement", func(context.Context) {
		p, err = place.Place(c, place.Config{
			Profile: profile, Seed: opts.Seed, Iterations: opts.PlaceIters,
		})
		if err != nil {
			return
		}
		g, err = grid.Build(p, tech.Sim40())
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Flow{
		Circuit: c, Profile: profile, Opts: opts,
		Placement: p, Grid: g, placeTime: placeTime,
	}, nil
}

// Name returns the Table-2 benchmark id, e.g. "OTA1-A".
func (f *Flow) Name() string { return fmt.Sprintf("%s-%s", f.Circuit.Name, f.Profile) }

// Schematic evaluates the parasitic-free reference.
func (f *Flow) Schematic() (circuit.Metrics, error) {
	return circuit.Evaluate(f.Circuit, nil)
}

// evaluateRouted extracts and simulates one routed solution.
func (f *Flow) evaluateRouted(res *route.Result) (circuit.Metrics, error) {
	return f.evaluateRoutedOn(f.Grid, res)
}

// evaluateRoutedOn is evaluateRouted against an explicit (possibly cloned)
// grid, for concurrent candidate evaluation.
func (f *Flow) evaluateRoutedOn(g *grid.Grid, res *route.Result) (circuit.Metrics, error) {
	par := extract.Extract(g, res)
	return circuit.Evaluate(f.Circuit, par)
}

// cloneForMethod returns a copy of the flow whose grid is independent of the
// original, so concurrently-running methods never alias lattice state.
func (f *Flow) cloneForMethod() *Flow {
	fc := *f
	fc.Grid = f.Grid.Clone()
	return &fc
}

// RunMagical runs the unguided baseline router.
func (f *Flow) RunMagical(ctx context.Context) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sctx, cancel := f.stageCtx(ctx)
	defer cancel()
	var res *route.Result
	var err error
	rt := withPhase(sctx, "guided-routing", func(pctx context.Context) {
		res, err = route.RouteCtx(pctx, f.Grid, guidance.Uniform(len(f.Circuit.Nets)), f.Opts.RouteCfg)
	})
	if err != nil {
		return nil, fmt.Errorf("core: magical: %w", err)
	}
	m, err := f.evaluateRouted(res)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Method: MethodMagical, Metrics: m, Runtime: rt,
		Times:        StageTimes{Placement: f.placeTime, GuidedRouting: rt},
		WirelengthNm: res.WirelengthNm, Vias: res.Vias,
	}, nil
}

// geniusGuidanceTimed builds the GeniusRoute imitation guidance: a VAE
// trained on routed sibling placements (substitute for the original's
// manual-layout corpus; see package vae) decodes a 2D wire-density map that
// is converted to per-net guidance. The returned StageTimes carries the
// corpus, training and inference phases.
func (f *Flow) geniusGuidanceTimed(ctx context.Context) (guidance.Set, StageTimes, error) {
	o := f.Opts
	var st StageTimes
	var pairs []vae.Pair
	var err error
	st.ConstructDatabase = withPhase(ctx, "construct-database", func(pctx context.Context) {
		pairs, err = f.geniusCorpus(pctx)
	})
	if err != nil {
		return guidance.Set{}, st, err
	}

	model := vae.New(8, o.Seed)
	st.ModelTraining = withPhase(ctx, "train-vae", func(context.Context) {
		_, err = model.Fit(pairs, vae.TrainConfig{Epochs: o.VAEEpochs, Seed: o.Seed})
	})
	if err != nil {
		return guidance.Set{}, st, fmt.Errorf("core: genius: %w", err)
	}

	var gd guidance.Set
	st.GuideGeneration = withPhase(ctx, "vae-inference", func(context.Context) {
		gd = model.GuidanceFromMap(f.Grid, model.PredictMap(f.Grid))
	})
	return gd, st, nil
}

// geniusCorpus routes the sibling placements the GeniusRoute VAE imitates.
func (f *Flow) geniusCorpus(ctx context.Context) ([]vae.Pair, error) {
	o := f.Opts
	var pairs []vae.Pair
	for k := 0; k < o.VAECorpus; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fault.FromContext(fault.StageGuidance, err)
		}
		p, err := place.Place(f.Circuit, place.Config{
			Profile: f.Profile, Seed: o.Seed + int64(100+k), Iterations: o.PlaceIters / 2,
		})
		if err != nil {
			return nil, fmt.Errorf("core: genius corpus: %w", err)
		}
		g, err := grid.Build(p, tech.Sim40())
		if err != nil {
			return nil, fmt.Errorf("core: genius corpus: %w", err)
		}
		res, err := route.RouteCtx(ctx, g, guidance.Uniform(len(f.Circuit.Nets)), o.RouteCfg)
		if err != nil {
			return nil, fmt.Errorf("core: genius corpus: %w", err)
		}
		pairs = append(pairs, vae.Pair{Pins: vae.RasterizePins(g), Wires: vae.RasterizeWires(g, res)})
	}
	return pairs, nil
}

// geniusGuidance is the timing-free convenience used by visualization.
func (f *Flow) geniusGuidance(ctx context.Context) (guidance.Set, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	gd, _, err := f.geniusGuidanceTimed(ctx)
	return gd, err
}

// RunGenius runs the GeniusRoute baseline end to end.
func (f *Flow) RunGenius(ctx context.Context) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	gctx, gcancel := f.stageCtx(ctx)
	gd, st, err := f.geniusGuidanceTimed(gctx)
	gcancel()
	if err != nil {
		return nil, err
	}

	rctx, rcancel := f.stageCtx(ctx)
	defer rcancel()
	var res *route.Result
	st.GuidedRouting = withPhase(rctx, "guided-routing", func(pctx context.Context) {
		res, err = route.RouteCtx(pctx, f.Grid, gd, f.Opts.RouteCfg)
	})
	if err != nil {
		return nil, fmt.Errorf("core: genius route: %w", err)
	}
	st.Placement = f.placeTime

	m, err := f.evaluateRouted(res)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Method: MethodGenius, Metrics: m,
		Runtime:      st.GuideGeneration + st.GuidedRouting,
		Times:        st,
		WirelengthNm: res.WirelengthNm, Vias: res.Vias,
	}, nil
}

// RunAnalogFold runs the full proposed flow. Every stage fans out over
// Opts.Workers goroutines and is tagged with a pprof "phase" label for the
// profiling flags of cmd/analogfold.
//
// Failure model: cancellation and stage deadlines abort with a typed fault;
// every other stage failure degrades instead of aborting, walking the ladder
// elite guidance → uniform guidance → unguided MagicalRoute baseline so that
// a routed result is always produced. The recovery path is recorded in the
// returned Outcome.Degradation.
func (f *Flow) RunAnalogFold(ctx context.Context) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := f.Opts
	report := &DegradationReport{FinalRung: RungElite}

	// Construct database: guidance-labeled routing samples.
	var ds *dataset.Dataset
	var dbTime time.Duration
	var err error
	func() {
		sctx, cancel := f.stageCtx(ctx)
		defer cancel()
		dbTime = withPhase(sctx, "construct-database", func(pctx context.Context) {
			ds, err = dataset.Generate(pctx, f.Grid, dataset.Config{
				Samples: o.Samples, Workers: o.Workers, Seed: o.Seed,
				RouteCfg: o.RouteCfg, IncludeUniform: true,
			})
		})
	}()
	if err != nil {
		if terminalFault(err) {
			return nil, fmt.Errorf("core: analogfold: %w", err)
		}
		report.record(fault.StageDatabase, err, "database construction failed; skipping learning stack")
		ds = nil
	}

	// Heterogeneous graph + model training. A diverged or failed fit drops
	// the model: the flow continues to the unguided rung rather than aborting.
	var hg *hetgraph.Graph
	var model *gnn3d.Model
	var trainTime time.Duration
	if ds != nil {
		var herr error
		func() {
			sctx, cancel := f.stageCtx(ctx)
			defer cancel()
			trainTime = withPhase(sctx, "train-3dgnn", func(pctx context.Context) {
				if hg, herr = hetgraph.Build(f.Grid, hetgraph.Config{}); herr != nil {
					return
				}
				gcfg := o.GNN
				gcfg.Seed = o.Seed
				model = gnn3d.New(gcfg)
				_, err = model.Fit(pctx, hg, ds.Samples(), gnn3d.TrainConfig{
					Epochs: o.TrainEpochs, Seed: o.Seed,
					BatchSize: o.TrainBatch, Workers: o.Workers,
				})
			})
		}()
		switch {
		case herr != nil:
			report.record(fault.StageTraining, herr, "heterogeneous graph construction failed")
		case err != nil:
			if terminalFault(err) {
				return nil, fmt.Errorf("core: analogfold: %w", err)
			}
			report.record(fault.StageTraining, err, "3DGNN training failed; dropping model")
			model = nil
		}
	}

	best, times, err := f.relaxAndRoute(ctx, model, hg, report)
	if err != nil {
		return nil, err
	}
	times.ConstructDatabase = dbTime
	times.ModelTraining = trainTime
	best.Times = times
	best.Degradation = report
	return best, nil
}

// relaxAndRoute is the post-training half of the AnalogFold flow: potential
// relaxation over model (when non-nil) followed by the guided-routing ladder.
// It is shared by the cold path (RunAnalogFold, which just trained model) and
// the warm serving path (RunAnalogFoldWarm, which reuses a loaded checkpoint
// across requests). All routing and evaluation happens on per-call cloned
// grids, so concurrent callers may share one Flow and one Model. The
// returned Outcome carries Runtime; the StageTimes fill Placement,
// GuideGeneration and GuidedRouting.
func (f *Flow) relaxAndRoute(ctx context.Context, model *gnn3d.Model, hg *hetgraph.Graph, report *DegradationReport) (*Outcome, StageTimes, error) {
	times := StageTimes{Placement: f.placeTime}
	var err error

	// Guidance generation: potential relaxation over the trained model.
	var rres *relax.Result
	if model != nil {
		func() {
			sctx, cancel := f.stageCtx(ctx)
			defer cancel()
			times.GuideGeneration = withPhase(sctx, "relaxation", func(pctx context.Context) {
				rres, err = relax.Optimize(pctx, model, hg, f.relaxConfig())
			})
		}()
		if err != nil {
			if terminalFault(err) {
				return nil, times, fmt.Errorf("core: analogfold: %w", err)
			}
			report.record(fault.StageRelaxation, err, "relaxation failed; falling back to uniform guidance")
			rres = nil
		} else {
			report.RelaxRetried = rres.Retried
			report.RelaxDropped = rres.Dropped
		}
	}

	// Guided routing, every rung of the ladder inside one phase.
	sctx, cancel := f.stageCtx(ctx)
	defer cancel()
	var best *Outcome
	times.GuidedRouting = withPhase(sctx, "guided-routing", func(pctx context.Context) {
		best, err = f.routeLadder(pctx, model, rres, report)
	})
	if err != nil {
		return nil, times, err
	}
	best.Runtime = times.GuideGeneration + times.GuidedRouting
	return best, times, nil
}

// relaxConfig is the flow's potential-relaxation setting. The routed flow and
// the guidance-only serving path both relax with it, which is what makes
// served guidance the guidance the flow routes with.
func (f *Flow) relaxConfig() relax.Config {
	o := f.Opts
	return relax.Config{
		Restarts: o.RelaxRestarts, NDerive: o.NDerive, Seed: o.Seed,
		MaxIter: 25, Workers: o.Workers,
	}
}

// routeLadder routes every derived guidance set concurrently on a cloned
// grid and keeps the best measured FoM (the model's normalization makes the
// FoM scale-free). Per-candidate failures step down the ladder — next elite,
// then uniform guidance — and the winner is chosen scanning in guidance order
// so ties resolve the same way for any worker count. rres is nil when there
// is no guidance to route.
func (f *Flow) routeLadder(ctx context.Context, model *gnn3d.Model, rres *relax.Result, report *DegradationReport) (*Outcome, error) {
	o := f.Opts
	type candidate struct {
		ok           bool
		err          error
		metrics      circuit.Metrics
		fom          float64
		wirelengthNm int
		vias         int
	}
	var best *Outcome
	if rres != nil {
		cands, err := parallel.Map(ctx, o.Workers, len(rres.Guides), func(i int) (candidate, error) {
			g := f.Grid.Clone()
			res, rerr := route.RouteCtx(ctx, g, rres.Guides[i], o.RouteCfg)
			if rerr != nil {
				if terminalFault(rerr) {
					return candidate{}, rerr
				}
				return candidate{err: rerr}, nil
			}
			m, merr := f.evaluateRoutedOn(g, res)
			if merr != nil {
				return candidate{err: merr}, nil
			}
			return candidate{
				ok: true, metrics: m, fom: scalarFoM(model, m),
				wirelengthNm: res.WirelengthNm, vias: res.Vias,
			}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("core: analogfold: %w", err)
		}
		report.CandidatesTried = len(cands)
		var bestFoM float64
		for i, c := range cands {
			if !c.ok {
				report.CandidatesFailed++
				if c.err != nil {
					report.record(fault.StageRouting, c.err, "elite candidate %d failed; trying next", i)
				}
				continue
			}
			if best == nil || c.fom < bestFoM {
				bestFoM = c.fom
				best = &Outcome{
					Method: MethodAnalogFold, Metrics: c.metrics,
					WirelengthNm: c.wirelengthNm, Vias: c.vias,
				}
			}
		}
	}
	if best != nil {
		return best, nil
	}

	// Ladder bottom: no elite routed (or no guidance at all). Route with
	// uniform guidance — with a trained model this is the "uniform" rung;
	// with the learning stack gone it is exactly the MagicalRoute baseline.
	rung := RungMagical
	if model != nil {
		rung = RungUniform
		report.record(fault.StageRouting, nil, "no elite candidate routed; degrading to uniform guidance")
	} else {
		report.record(fault.StageRouting, nil, "learning stack unavailable; degrading to MagicalRoute baseline")
	}
	g := f.Grid.Clone()
	res, rerr := route.RouteCtx(ctx, g, guidance.Uniform(len(f.Circuit.Nets)), o.RouteCfg)
	if rerr != nil {
		// The unguided baseline is the last rung; its failure is the
		// flow's failure, typed and attributed.
		if terminalFault(rerr) {
			return nil, fmt.Errorf("core: analogfold: %w", rerr)
		}
		return nil, fault.Wrap(fault.StageRouting, fault.ErrRouteFailed, rerr,
			"core: analogfold: degradation ladder exhausted")
	}
	m, merr := f.evaluateRoutedOn(g, res)
	if merr != nil {
		return nil, fault.Wrap(fault.StageEvaluation, fault.ErrRouteFailed, merr,
			"core: analogfold: fallback evaluation failed")
	}
	report.FinalRung = rung
	return &Outcome{
		Method: MethodAnalogFold, Metrics: m,
		WirelengthNm: res.WirelengthNm, Vias: res.Vias,
	}, nil
}

// scalarFoM folds the five metrics into one lower-is-better scalar using the
// model's target normalization and the relaxation's metric signs.
func scalarFoM(m *gnn3d.Model, mt circuit.Metrics) float64 {
	y := [gnn3d.NumMetrics]float64{mt.OffsetUV, mt.CMRRdB, mt.BandwidthMHz, mt.GainDB, mt.NoiseUVrms}
	yn := m.Normalize(y)
	s := 0.0
	for i := range yn {
		s += relax.MetricSigns[i] * yn[i]
	}
	return s
}
