package cluster

import "analogfold/internal/obs"

// metrics is the coordinator's own accounting, held as registry counters so
// the JSON snapshot and the Prometheus exposition read the same instruments.
// The load-bearing invariant — chaos-asserted — is accepted == answered +
// shed: every request that enters handleWork leaves it counted exactly once,
// no matter which rung answered it or how many replicas died underneath it.
type metrics struct {
	accepted *obs.Counter // requests entering handleWork
	answered *obs.Counter // non-503 final statuses (incl. local fallback, 4xx)
	shed     *obs.Counter // 503 final statuses, any provenance

	proxied       *obs.Counter // answered by a replica
	localFallback *obs.Counter // answered by the embedded nil-model ladder
	failovers     *obs.Counter // failover launches across all requests
	hedges        *obs.Counter // hedge launches across all requests
	hedgeWins     *obs.Counter // requests whose winning attempt was a hedge

	// Distributed dataset generation accounting (datagen.go). The
	// reconciliation invariant, exact at quiescence, is
	// dsDispatched == dsCompleted + dsRedispatched: every shard launch is
	// dispatched, every launch after a shard's first is redispatched, and
	// every shard completes exactly once.
	dsJobs         *obs.Counter // /v1/dataset jobs started
	dsCompleted    *obs.Counter // shards completed (verified result accepted)
	dsDispatched   *obs.Counter // shard launches (first attempts, failovers, hedges, local)
	dsRedispatched *obs.Counter // shard launches after the shard's first
	dsExpired      *obs.Counter // leases forfeited by TTL or heartbeat expiry
	dsCorrupt      *obs.Counter // replica answers rejected by digest verification
	dsLocal        *obs.Counter // shards labeled by the embedded local server
	dsResumed      *obs.Counter // shards satisfied from the manifest journal
}

func newMetrics(reg *obs.Registry) metrics {
	counter := func(name, help string) *obs.Counter {
		reg.SetHelp(name, help)
		return reg.Counter(name)
	}
	return metrics{
		accepted:       counter("cluster_requests_accepted_total", "Requests entering the coordinator proxy path."),
		answered:       counter("cluster_requests_answered_total", "Requests answered with a non-shed status."),
		shed:           counter("cluster_requests_shed_total", "Requests shed with 503 (replica shed or full outage)."),
		proxied:        counter("cluster_requests_proxied_total", "Requests answered by a replica."),
		localFallback:  counter("cluster_local_fallback_total", "Requests answered by the embedded local degradation ladder."),
		failovers:      counter("cluster_failovers_total", "Failover attempts launched after a retryable outcome."),
		hedges:         counter("cluster_hedges_total", "Hedged attempts launched after the latency budget."),
		hedgeWins:      counter("cluster_hedge_wins_total", "Requests whose winning attempt was the hedge."),
		dsJobs:         counter("cluster_dataset_jobs_total", "Distributed dataset generation jobs started."),
		dsCompleted:    counter("cluster_dataset_shards_completed_total", "Dataset shards completed with a verified result."),
		dsDispatched:   counter("cluster_dataset_shards_dispatched_total", "Dataset shard launches (first attempts, failovers, hedges, local fallbacks)."),
		dsRedispatched: counter("cluster_dataset_shards_redispatched_total", "Dataset shard launches after the shard's first."),
		dsExpired:      counter("cluster_dataset_leases_expired_total", "Dataset shard leases forfeited by TTL or heartbeat expiry."),
		dsCorrupt:      counter("cluster_dataset_shards_corrupt_total", "Replica shard answers rejected by digest verification."),
		dsLocal:        counter("cluster_dataset_shards_local_total", "Dataset shards labeled by the embedded local server."),
		dsResumed:      counter("cluster_dataset_shards_resumed_total", "Dataset shards satisfied from the manifest journal."),
	}
}

// registerGauges exports the scrape-time gauges: replicas graded up and the
// current hedge budget.
func (c *Coordinator) registerGauges(reg *obs.Registry) {
	reg.RegisterGaugeFunc("cluster_replicas_up", func() float64 {
		n := 0
		for _, r := range c.replicas {
			if r.getState() == stateUp {
				n++
			}
		}
		return float64(n)
	})
	reg.SetHelp("cluster_replicas_up", "Replicas currently graded up by the prober.")
	reg.RegisterGaugeFunc("cluster_hedge_budget_ms", func() float64 {
		return float64(c.hedgeDelay().Milliseconds())
	})
	reg.SetHelp("cluster_hedge_budget_ms", "Current hedge launch budget in milliseconds.")
}

// registerReplicaMetrics exports one series family per replica, keyed by the
// sanitized replica URL so Prometheus label-less names stay valid.
func (c *Coordinator) registerReplicaMetrics(reg *obs.Registry) {
	c.registerGauges(reg)
	for _, r := range c.replicas {
		r := r
		base := "cluster_replica_" + obs.SanitizeMetricName(r.url)
		reg.RegisterGaugeFunc(base+"_state", func() float64 { return float64(r.state.Load()) })
		reg.SetHelp(base+"_state", "Replica health: 0 up, 1 degraded, 2 down.")
		reg.RegisterCounterFunc(base+"_requests_total", func() float64 { return float64(r.requests.Load()) })
		reg.RegisterCounterFunc(base+"_failures_total", func() float64 { return float64(r.failures.Load()) })
		reg.RegisterCounterFunc(base+"_hedges_total", func() float64 { return float64(r.hedges.Load()) })
		reg.RegisterCounterFunc(base+"_probes_total", func() float64 { return float64(r.probes.Load()) })
		reg.RegisterGaugeFunc(base+"_queue_depth", func() float64 { return float64(r.lastQueue.Load()) })
		reg.RegisterGaugeFunc(base+"_breaker", func() float64 { return float64(r.breaker.Load()) })
	}
}

// ReplicaSnapshot is one replica's row in the coordinator's /metrics JSON.
type ReplicaSnapshot struct {
	URL        string `json:"url"`
	State      string `json:"state"`
	Requests   int64  `json:"requests"`
	Failures   int64  `json:"failures"`
	Hedges     int64  `json:"hedges"`
	Probes     int64  `json:"probes"`
	QueueDepth int64  `json:"queue_depth"`
	Breaker    int32  `json:"breaker"`
}

// MetricsSnapshot is the coordinator's /metrics JSON shape.
type MetricsSnapshot struct {
	Accepted      int64             `json:"accepted"`
	Answered      int64             `json:"answered"`
	Shed          int64             `json:"shed"`
	Proxied       int64             `json:"proxied"`
	LocalFallback int64             `json:"local_fallback"`
	Failovers     int64             `json:"failovers"`
	Hedges        int64             `json:"hedges"`
	HedgeWins     int64             `json:"hedge_wins"`
	HedgeBudgetMS int64             `json:"hedge_budget_ms"`
	Replicas      []ReplicaSnapshot `json:"replicas"`

	Dataset struct {
		Jobs         int64 `json:"jobs"`
		Completed    int64 `json:"completed"`
		Dispatched   int64 `json:"dispatched"`
		Redispatched int64 `json:"redispatched"`
		Expired      int64 `json:"expired"`
		Corrupt      int64 `json:"corrupt"`
		Local        int64 `json:"local"`
		Resumed      int64 `json:"resumed"`
	} `json:"dataset"`
}

// MetricsSnapshot captures the coordinator's accounting and per-replica
// health in one consistent-enough read (individual atomics; the invariant is
// only exact when quiescent, which is when the chaos suite checks it).
func (c *Coordinator) MetricsSnapshot() MetricsSnapshot {
	m := MetricsSnapshot{
		Accepted:      c.met.accepted.Value(),
		Answered:      c.met.answered.Value(),
		Shed:          c.met.shed.Value(),
		Proxied:       c.met.proxied.Value(),
		LocalFallback: c.met.localFallback.Value(),
		Failovers:     c.met.failovers.Value(),
		Hedges:        c.met.hedges.Value(),
		HedgeWins:     c.met.hedgeWins.Value(),
		HedgeBudgetMS: c.hedgeDelay().Milliseconds(),
	}
	m.Dataset.Jobs = c.met.dsJobs.Value()
	m.Dataset.Completed = c.met.dsCompleted.Value()
	m.Dataset.Dispatched = c.met.dsDispatched.Value()
	m.Dataset.Redispatched = c.met.dsRedispatched.Value()
	m.Dataset.Expired = c.met.dsExpired.Value()
	m.Dataset.Corrupt = c.met.dsCorrupt.Value()
	m.Dataset.Local = c.met.dsLocal.Value()
	m.Dataset.Resumed = c.met.dsResumed.Value()
	for _, r := range c.replicas {
		m.Replicas = append(m.Replicas, ReplicaSnapshot{
			URL:        r.url,
			State:      r.getState().String(),
			Requests:   r.requests.Load(),
			Failures:   r.failures.Load(),
			Hedges:     r.hedges.Load(),
			Probes:     r.probes.Load(),
			QueueDepth: r.lastQueue.Load(),
			Breaker:    r.breaker.Load(),
		})
	}
	return m
}
