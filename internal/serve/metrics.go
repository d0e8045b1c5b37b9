package serve

import (
	"runtime"
	"runtime/debug"

	"analogfold/internal/obs"
)

// metrics holds the daemon's registry-backed instruments. The handles are
// resolved once at construction — hot handlers touch only atomics — and the
// same registry is rendered both as the legacy /metrics JSON snapshot and as
// Prometheus text exposition.
type metrics struct {
	panics    *obs.Counter
	degraded  *obs.Counter // responses produced below the elite rung
	queueWait *obs.Histogram
	guidance  *obs.Histogram
	route     *obs.Histogram

	// Micro-batching instruments: one wave == one shared PredictBatch call
	// (the serving-throughput bench pins waves against the relax-side
	// score-waves counter). batchSize buckets wave membership with the
	// 1ms == 1 member convention of the duration-bucketed histogram.
	batchWaves      *obs.Counter
	batchCandidates *obs.Counter
	batchSize       *obs.Histogram

	// Dataset-shard instruments: the /v1/dataset/shard labeling endpoint the
	// cluster coordinator leases distributed generation work through.
	shard         *obs.Histogram
	shardRequests *obs.Counter
	shardEntries  *obs.Counter
	shardDropped  *obs.Counter

	// stages aggregates every request's latency attribution (queue wait,
	// batch wait, cache, relax, route, score) into per-stage histograms with
	// slowest-exemplar capture.
	stages *obs.StageMetrics
}

func newMetrics(reg *obs.Registry) metrics {
	reg.SetHelp("analogfold_serve_panics_total", "handler panics recovered by the containment middleware")
	reg.SetHelp("analogfold_serve_degraded_total", "responses served below the elite guidance rung")
	reg.SetHelp("analogfold_serve_queue_wait_seconds", "admission wait of admitted requests")
	reg.SetHelp("analogfold_serve_guidance_seconds", "/v1/guidance handler time after admission")
	reg.SetHelp("analogfold_serve_route_seconds", "/v1/route handler time after admission")
	reg.SetHelp("analogfold_serve_batch_waves_total", "guidance micro-batch waves scored (one PredictBatch call each)")
	reg.SetHelp("analogfold_serve_batch_candidates_total", "candidate guidance sets scored through batched waves")
	reg.SetHelp("analogfold_serve_batch_size", "members per scored wave (le_Nms bucket == N members, mean_ms == mean size)")
	reg.SetHelp("analogfold_serve_dataset_shard_seconds", "/v1/dataset/shard handler time after admission")
	reg.SetHelp("analogfold_serve_dataset_shards_total", "dataset shards labeled successfully")
	reg.SetHelp("analogfold_serve_dataset_entries_total", "dataset samples labeled across served shards")
	reg.SetHelp("analogfold_serve_dataset_dropped_total", "dataset samples dropped (failed or non-finite labels) across served shards")
	return metrics{
		panics:          reg.Counter("analogfold_serve_panics_total"),
		degraded:        reg.Counter("analogfold_serve_degraded_total"),
		queueWait:       reg.Histogram("analogfold_serve_queue_wait_seconds"),
		guidance:        reg.Histogram("analogfold_serve_guidance_seconds"),
		route:           reg.Histogram("analogfold_serve_route_seconds"),
		batchWaves:      reg.Counter("analogfold_serve_batch_waves_total"),
		batchCandidates: reg.Counter("analogfold_serve_batch_candidates_total"),
		batchSize:       reg.Histogram("analogfold_serve_batch_size"),
		shard:           reg.Histogram("analogfold_serve_dataset_shard_seconds"),
		shardRequests:   reg.Counter("analogfold_serve_dataset_shards_total"),
		shardEntries:    reg.Counter("analogfold_serve_dataset_entries_total"),
		shardDropped:    reg.Counter("analogfold_serve_dataset_dropped_total"),
		stages:          obs.NewStageMetrics(reg, "analogfold_serve"),
	}
}

// registerOwnerMetrics exports the admission and breaker state — which lives
// with its owners — as scrape-time registry callbacks, plus the build-info
// gauge, so the Prometheus exposition covers everything the JSON snapshot
// does without duplicating any state.
func (s *Server) registerOwnerMetrics(reg *obs.Registry) {
	reg.RegisterGaugeFunc("analogfold_serve_queue_depth", func() float64 { return float64(s.adm.waiting.Load()) })
	reg.RegisterGaugeFunc("analogfold_serve_in_flight", func() float64 { return float64(s.adm.inflight.Load()) })
	reg.RegisterCounterFunc("analogfold_serve_accepted_total", func() float64 { return float64(s.adm.accepted.Load()) })
	reg.RegisterCounterFunc("analogfold_serve_shed_total", func() float64 { return float64(s.adm.shed.Load()) })
	reg.RegisterGaugeFunc("analogfold_serve_breaker_state", func() float64 {
		state, _, _ := s.brk.snapshot()
		switch state {
		case "open":
			return 2
		case "half-open":
			return 1
		default:
			return 0
		}
	})
	reg.SetHelp("analogfold_serve_breaker_state", "circuit breaker state: 0 closed, 1 half-open, 2 open")
	reg.RegisterGaugeFunc("analogfold_serve_breaker_consecutive_faults", func() float64 {
		_, consecutive, _ := s.brk.snapshot()
		return float64(consecutive)
	})
	reg.RegisterCounterFunc("analogfold_serve_breaker_trips_total", func() float64 {
		_, _, trips := s.brk.snapshot()
		return float64(trips)
	})
	if s.cache != nil {
		reg.SetHelp("analogfold_serve_cache_hits_total", "result-cache hits (stored body replayed, model untouched)")
		reg.SetHelp("analogfold_serve_cache_misses_total", "result-cache misses (request executed the flow)")
		reg.SetHelp("analogfold_serve_cache_evictions_total", "result-cache LRU evictions")
		reg.SetHelp("analogfold_serve_cache_collapses_total", "singleflight collapses onto identical in-flight work")
		reg.SetHelp("analogfold_serve_cache_entries", "stored result bodies")
		reg.RegisterCounterFunc("analogfold_serve_cache_hits_total", func() float64 { return float64(s.cache.Stats().Hits) })
		reg.RegisterCounterFunc("analogfold_serve_cache_misses_total", func() float64 { return float64(s.cache.Stats().Misses) })
		reg.RegisterCounterFunc("analogfold_serve_cache_evictions_total", func() float64 { return float64(s.cache.Stats().Evictions) })
		reg.RegisterCounterFunc("analogfold_serve_cache_collapses_total", func() float64 { return float64(s.cache.Stats().Collapses) })
		reg.RegisterGaugeFunc("analogfold_serve_cache_entries", func() float64 { return float64(s.cache.Len()) })
	}
	b := s.build
	reg.RegisterInfo("analogfold_build_info", map[string]string{
		"goversion": b.GoVersion, "path": b.Path,
		"version": b.Version, "revision": b.Revision,
	})
}

// BuildInfo is the binary's identity, read once from the embedded build
// metadata and exported both in the /metrics JSON body and as the
// analogfold_build_info gauge.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Path      string `json:"path,omitempty"`
	Version   string `json:"version,omitempty"`
	Revision  string `json:"revision,omitempty"`
}

func readBuildInfo() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		b.Path = bi.Main.Path
		b.Version = bi.Main.Version
		for _, st := range bi.Settings {
			if st.Key == "vcs.revision" {
				b.Revision = st.Value
			}
		}
	}
	return b
}

// MetricsSnapshot is the JSON body of GET /metrics. Field names are the wire
// contract; tests and dashboards key on them.
type MetricsSnapshot struct {
	QueueDepth int64 `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`
	Accepted   int64 `json:"accepted"`
	Shed       int64 `json:"shed"`
	// Sent is the total admission verdicts handed out: Accepted + Shed.
	// Client-side accounting checks balance against it.
	Sent     int64 `json:"sent"`
	Panics   int64 `json:"panics"`
	Degraded int64 `json:"degraded"`

	Breaker struct {
		State             string `json:"state"`
		ConsecutiveFaults int    `json:"consecutive_faults"`
		Trips             int64  `json:"trips"`
	} `json:"breaker"`

	Cache struct {
		Enabled   bool  `json:"enabled"`
		Entries   int   `json:"entries"`
		Capacity  int   `json:"capacity"`
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Collapses int64 `json:"collapses"`
	} `json:"cache"`

	Batch struct {
		Waves      int64        `json:"waves"`
		Candidates int64        `json:"candidates"`
		Size       obs.HistView `json:"size"`
	} `json:"batch"`

	Dataset struct {
		Shards  int64 `json:"shards"`
		Entries int64 `json:"entries"`
		Dropped int64 `json:"dropped"`
	} `json:"dataset"`

	Latency map[string]obs.HistView `json:"latency"`

	// Stages is the per-stage latency attribution (only stages that saw
	// traffic), each with its slowest-exemplar request ID.
	Stages map[string]obs.HistView `json:"stages,omitempty"`

	Build BuildInfo `json:"build"`
}

func (s *Server) metricsSnapshot() MetricsSnapshot {
	var m MetricsSnapshot
	m.QueueDepth = s.adm.waiting.Load()
	m.InFlight = s.adm.inflight.Load()
	m.Accepted = s.adm.accepted.Load()
	m.Shed = s.adm.shed.Load()
	m.Sent = m.Accepted + m.Shed
	m.Panics = s.met.panics.Value()
	m.Degraded = s.met.degraded.Value()
	m.Breaker.State, m.Breaker.ConsecutiveFaults, m.Breaker.Trips = s.brk.snapshot()
	if s.cache != nil {
		st := s.cache.Stats()
		m.Cache.Enabled = true
		m.Cache.Entries = s.cache.Len()
		m.Cache.Capacity = s.cache.Capacity()
		m.Cache.Hits, m.Cache.Misses = st.Hits, st.Misses
		m.Cache.Evictions, m.Cache.Collapses = st.Evictions, st.Collapses
	}
	m.Batch.Waves = s.met.batchWaves.Value()
	m.Batch.Candidates = s.met.batchCandidates.Value()
	m.Batch.Size = s.met.batchSize.View()
	m.Dataset.Shards = s.met.shardRequests.Value()
	m.Dataset.Entries = s.met.shardEntries.Value()
	m.Dataset.Dropped = s.met.shardDropped.Value()
	m.Latency = map[string]obs.HistView{
		"queue_wait":    s.met.queueWait.View(),
		"guidance":      s.met.guidance.View(),
		"route":         s.met.route.View(),
		"dataset_shard": s.met.shard.View(),
	}
	m.Stages = s.met.stages.Views()
	m.Build = s.build
	return m
}
