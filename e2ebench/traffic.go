package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"analogfold/internal/circuit"
	"analogfold/internal/core"
	"analogfold/internal/drc"
	"analogfold/internal/extract"
	"analogfold/internal/guidance"
	"analogfold/internal/lvs"
	"analogfold/internal/route"
	"analogfold/internal/serve"
)

// Request counts generated per run; a run ends on time long before either
// is used up.
const (
	routeRequestCount    = 2000
	guidanceRequestCount = 50000
)

func runRouteServe(ctx context.Context, cfg config, rep *report) error {
	return runServing(ctx, cfg, rep, traffic{nproc, routeRequests, checkRoutes, routeQuality})
}

func runGuidanceMix(ctx context.Context, cfg config, rep *report) error {
	return runServing(ctx, cfg, rep, traffic{oneClient, guidanceRequests, checkGuidance, guidanceQuality})
}

// oneClient drives guidance_mix. The deployment shares the host's CPUs with
// the clients, so while one client's miss saturates them another client's
// cache hits wait whole scheduler time slices (tens of milliseconds) and the
// median flips between the two modes from run to run. One client keeps the
// median on the cache path the workload is about.
func oneClient() int { return 1 }

// distinctSeeds returns a generator of request seeds in [lo, lo+2^31) that
// never repeats.
func distinctSeeds(rng *rand.Rand, lo int64) func() int64 {
	seen := map[int64]bool{}
	return func() int64 {
		for {
			s := lo + rng.Int63n(1<<31)
			if !seen[s] {
				seen[s] = true
				return s
			}
		}
	}
}

// routeRequests draws distinct (bench, seed) pairs, so every request misses
// the result cache. In each block of eight requests exactly one, at a
// position the seed picks, is on the large circuit: a fixed mix keeps the
// median on the small circuit in every run, and a rare large request keeps
// the small ones from queueing behind it too often.
func routeRequests(sc scale, seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	next := distinctSeeds(rng, 1)
	reqs := make([]request, 0, routeRequestCount)
	for len(reqs) < routeRequestCount {
		large := rng.Intn(8)
		for k := 0; k < 8; k++ {
			bench := sc.small
			if k == large {
				bench = sc.large
			}
			reqs = append(reqs, newRequest("/v1/route", bench, next()))
		}
	}
	return reqs
}

// checkRoutes checks every answer: a replica's elite, undegraded route for
// exactly the asked pair, finite metrics, a non-empty layout, and a cache
// miss (no pair repeats).
func checkRoutes(_ scale, reqs []request, outs []outcome) []error {
	errs := make([]error, len(outs))
	for i, o := range outs {
		var resp serve.RouteResponse
		err := decodeOK(o, &resp)
		if err == nil {
			err = checkAnswer(reqs[i], resp.Bench, resp.Seed, resp.Rung, resp.Degraded)
		}
		if err == nil {
			err = finite(metricNames, resp.OffsetUV, resp.CMRRdB, resp.BandwidthMHz, resp.GainDB, resp.NoiseUVrms)
		}
		if err == nil && resp.WirelengthNm <= 0 {
			err = fmt.Errorf("%s: empty layout", reqs[i].key())
		}
		if err == nil && o.cache != "miss" {
			err = fmt.Errorf("%s: cache %q for a pair never asked before", reqs[i].key(), o.cache)
		}
		errs[i] = err
	}
	return errs
}

// routeQuality averages the quality of the first qualityReqs layouts, a set
// that depends only on the seed.
func routeQuality(_ context.Context, sc scale, _ []request, outs []outcome) (quality, []error) {
	var q quality
	for i := 0; i < len(outs) && i < sc.qualityReqs; i++ {
		var resp serve.RouteResponse
		if decodeOK(outs[i], &resp) == nil {
			q.add(resp.OffsetUV, resp.CMRRdB, resp.WirelengthNm)
		}
	}
	return q, nil
}

// guidanceRequests sends four in five requests to one of the popular keys
// and the rest to distinct keys on the small circuit: in each block of five
// requests exactly one, at a position the seed picks, is distinct. The
// popular keys are fixed, like a daemon's most common requests: seeds
// 1..hotKeys, the last on the large circuit. The sequence opens with each
// popular key once, in that order, so that their misses (the large circuit's
// is the run's costliest request and sets its peak memory) fall in the
// warm-up at the same point in every run. The seed draws the rest of the
// sequence and the distinct seeds. A fixed share of like-sized misses, which
// bound throughput, keeps the runs comparable.
func guidanceRequests(sc scale, seed int64) []request {
	hot := make([]request, sc.hotKeys)
	for k := range hot {
		bench := sc.small
		if k == len(hot)-1 {
			bench = sc.large
		}
		hot[k] = newRequest("/v1/guidance", bench, int64(k+1))
	}
	rng := rand.New(rand.NewSource(seed))
	next := distinctSeeds(rng, 1000)
	reqs := make([]request, 0, guidanceRequestCount)
	reqs = append(reqs, hot...)
	for len(reqs) < guidanceRequestCount {
		distinct := rng.Intn(5)
		for k := 0; k < 5; k++ {
			if k == distinct {
				reqs = append(reqs, newRequest("/v1/guidance", sc.small, next()))
			} else {
				reqs = append(reqs, hot[rng.Intn(len(hot))])
			}
		}
	}
	return reqs
}

// isHot reports whether r asks for a popular key.
func isHot(sc scale, r request) bool { return r.seed <= int64(sc.hotKeys) }

// checkGuidance checks every answer: a replica's elite, undegraded guidance
// for exactly the asked key, with finite, feasible guidance and predictions,
// and a cache verdict. Every answer for a key, hit, collapsed or miss, must
// be byte-identical to the first miss for that key, so that the verdicts
// account for every request sent.
func checkGuidance(_ scale, reqs []request, outs []outcome) []error {
	firstMiss := map[string][]byte{}
	for i, o := range outs {
		if _, seen := firstMiss[reqs[i].key()]; !seen && o.err == nil && o.status == 200 && o.cache == "miss" {
			firstMiss[reqs[i].key()] = o.body
		}
	}
	errs := make([]error, len(outs))
	for i, o := range outs {
		r := reqs[i]
		var resp serve.GuidanceResponse
		err := decodeOK(o, &resp)
		if err == nil {
			err = checkAnswer(r, resp.Bench, resp.Seed, resp.Rung, resp.Degraded)
		}
		if err == nil {
			err = checkGuides(r, &resp)
		}
		if err == nil {
			switch ref, ok := firstMiss[r.key()]; {
			case o.cache != "hit" && o.cache != "miss" && o.cache != "collapsed":
				err = fmt.Errorf("%s: cache verdict %q", r.key(), o.cache)
			case !ok:
				err = fmt.Errorf("%s: no miss computed this key", r.key())
			case !bytes.Equal(ref, o.body):
				err = fmt.Errorf("%s: %s answer differs from the first miss", r.key(), o.cache)
			}
		}
		errs[i] = err
	}
	return errs
}

// checkGuides requires at least one guidance set, every coefficient inside
// the feasible region (0, CMax], and one finite prediction per set.
func checkGuides(r request, resp *serve.GuidanceResponse) error {
	if len(resp.Guides) == 0 || len(resp.Predictions) != len(resp.Guides) {
		return fmt.Errorf("%s: %d guidance sets, %d predictions", r.key(), len(resp.Guides), len(resp.Predictions))
	}
	for _, set := range resp.Guides {
		for _, v := range set {
			for _, c := range v {
				if !(c > 0 && c <= resp.CMax) {
					return fmt.Errorf("%s: guidance coefficient %v outside (0, %v]", r.key(), c, resp.CMax)
				}
			}
		}
	}
	for _, p := range resp.Predictions {
		if err := finite(metricNames, p[:]...); err != nil {
			return fmt.Errorf("%s: prediction %w", r.key(), err)
		}
	}
	return nil
}

// guidanceQuality routes the best guidance set served for each popular key
// on the replicas' placement, checks the layout is DRC- and LVS-clean, and
// averages its post-layout quality. Each route is one more operation.
func guidanceQuality(ctx context.Context, sc scale, reqs []request, outs []outcome) (quality, []error) {
	var (
		q    quality
		errs []error
	)
	done := map[string]bool{}
	for i, o := range outs {
		r := reqs[i]
		if !isHot(sc, r) || done[r.key()] {
			continue
		}
		var resp serve.GuidanceResponse
		if decodeOK(o, &resp) != nil || len(resp.Guides) == 0 {
			continue // already counted as a failed request
		}
		done[r.key()] = true
		m, wl, err := routeGuidance(ctx, sc, r.bench, &resp)
		errs = append(errs, err)
		if err == nil {
			q.add(m.OffsetUV, m.CMRRdB, wl)
		}
	}
	if len(done) < sc.hotKeys {
		errs = append(errs, fmt.Errorf("only %d of %d popular keys answered", len(done), sc.hotKeys))
	}
	return q, errs
}

// routeGuidance routes the first guidance set of resp on bench and
// evaluates the layout.
func routeGuidance(ctx context.Context, sc scale, bench string, resp *serve.GuidanceResponse) (circuit.Metrics, int, error) {
	c, prof, err := core.ParseBenchmark(bench)
	if err != nil {
		return circuit.Metrics{}, 0, err
	}
	f, err := core.NewFlowCtx(ctx, c, prof, sc.opts)
	if err != nil {
		return circuit.Metrics{}, 0, err
	}
	gd := guidance.Set{CMax: resp.CMax}
	for _, v := range resp.Guides[0] {
		gd.PerNet = append(gd.PerNet, guidance.Vec(v))
	}
	res, err := route.RouteCtx(ctx, f.Grid, gd, sc.opts.RouteCfg)
	if err != nil {
		return circuit.Metrics{}, 0, fmt.Errorf("%s: route served guidance: %w", bench, err)
	}
	if v := drc.Check(f.Grid, res); len(v) > 0 {
		return circuit.Metrics{}, 0, fmt.Errorf("%s: served guidance routes with %d DRC violations", bench, len(v))
	}
	if r := lvs.Check(f.Grid, res); !r.Clean() {
		return circuit.Metrics{}, 0, fmt.Errorf("%s: served guidance routes LVS-dirty (%d/%d nets)", bench, r.NetsOK, r.NetsTotal)
	}
	m, err := circuit.Evaluate(c, extract.Extract(f.Grid, res))
	if err == nil {
		err = finite(metricNames, m.OffsetUV, m.CMRRdB, m.BandwidthMHz, m.GainDB, m.NoiseUVrms)
	}
	return m, res.WirelengthNm, err
}
