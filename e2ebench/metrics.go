package main

import (
	"fmt"
	"time"
)

// layerMetrics are the per-layer rows every workload reports with --trace 1,
// named after the module they measure. A layer the workload bypasses reads
// 0; README.md maps each row to the end-to-end metric it should move.
var layerMetrics = []struct{ name, unit string }{
	{"place.ms", "ms"},
	{"grid.ms", "ms"},
	{"dataset.ms", "ms"},
	{"dataset.samples", "count"},
	{"dataset.kept_ratio", "ratio"},
	{"dataset.alloc_mb", "MB"},
	{"hetgraph.ms", "ms"},
	{"gnn3d.fit_ms", "ms"},
	{"gnn3d.fit_alloc_mb", "MB"},
	{"relax.ms", "ms"},
	{"relax.evals", "count"},
	{"relax.ms_per_eval", "ms"},
	{"relax.retried", "count"},
	{"route.ms", "ms"},
	{"route.calls", "count"},
	{"route.iterations", "count"},
	{"route.alloc_mb", "MB"},
	{"extract.ms", "ms"},
	{"circuit.ms", "ms"},
	{"core.unattributed_pct", "%"},
	{"serve.queue_ms", "ms"},
	{"serve.batch_wait_ms", "ms"},
	{"serve.score_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.waves", "count"},
	{"serve.wave_members", "count"},
	{"servecache.hits", "count"},
	{"servecache.misses", "count"},
	{"servecache.collapses", "count"},
	{"servecache.hit_ratio", "ratio"},
	{"cluster.proxy_ms", "ms"},
	{"cluster.hedges", "count"},
	{"cluster.hedge_wins", "count"},
	{"cluster.hedge_win_ratio", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.replica_skew", "ratio"},
	{"cluster.probe_kb", "KB"},
	{"obs.trace_overhead_pct", "%"},
}

// layers holds a traced run's per-layer values by metric name.
type layers map[string]float64

// setLayers reports every per-layer row, 0 where l has no value.
func (r *report) setLayers(l layers) error {
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
		r.set(m.name, m.unit, l[m.name])
	}
	for name := range l {
		if !known[name] {
			return fmt.Errorf("unknown layer metric %q", name)
		}
	}
	return nil
}

// setOverhead reports the tracing cost: the traced run's time against the
// mean of the untraced runs around it, with the totals it is computed from.
func setOverhead(l layers, rep *report, traced, untracedBefore, untracedAfter time.Duration) {
	untraced := (untracedBefore + untracedAfter) / 2
	l["obs.trace_overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	rep.detail["obs.trace_overhead"] = map[string]float64{
		"traced_ms": ms(traced), "untraced_before_ms": ms(untracedBefore), "untraced_after_ms": ms(untracedAfter),
	}
}
