package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"analogfold/internal/cluster"
	"analogfold/internal/obs"
	"analogfold/internal/serve"
)

// hop is one request handled by one tier, as the timing middleware saw it.
type hop struct {
	tier  string // "coordinator" or the replica's base URL
	path  string
	id    string // X-Request-ID
	dur   time.Duration
	bytes int64
}

// hopLog is the benchmark-side timing middleware's record, kept in memory.
type hopLog struct {
	mu   sync.Mutex
	hops []hop
}

// wrap times every request h handles and counts the bytes it writes. On a
// nil log it returns h unchanged.
func (l *hopLog) wrap(tier string, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		rec := hop{tier: tier, path: r.URL.Path, id: r.Header.Get(serve.HeaderRequestID), dur: time.Since(t0), bytes: cw.n}
		l.mu.Lock()
		l.hops = append(l.hops, rec)
		l.mu.Unlock()
	})
}

func (l *hopLog) reset() {
	l.mu.Lock()
	l.hops = nil
	l.mu.Unlock()
}

func (l *hopLog) snapshot() []hop {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]hop(nil), l.hops...)
}

// countingWriter counts the body bytes written through it.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// scrape is one reading of every tier's /metrics, the replicas' Prometheus
// counters and their flight recorders.
type scrape struct {
	replicas []serve.MetricsSnapshot
	counters []map[string]float64
	flight   []serve.FlightSnapshot
	coord    cluster.MetricsSnapshot
}

// scrape reads the deployment's metrics endpoints over HTTP.
func (d *deployment) scrape() (scrape, error) {
	var s scrape
	if err := d.getJSON(d.url+"/metrics", &s.coord); err != nil {
		return s, err
	}
	// Replica URLs are the stable names; d.tr dials them.
	for _, r := range s.coord.Replicas {
		base := r.URL
		var m serve.MetricsSnapshot
		var f serve.FlightSnapshot
		if err := d.getJSON(base+"/metrics", &m); err != nil {
			return s, err
		}
		if err := d.getJSON(base+"/debug/flight", &f); err != nil {
			return s, err
		}
		c, err := d.promCounters(base + "/metrics?format=prom")
		if err != nil {
			return s, err
		}
		s.replicas = append(s.replicas, m)
		s.flight = append(s.flight, f)
		s.counters = append(s.counters, c)
	}
	return s, nil
}

func (d *deployment) getJSON(url string, v any) error {
	resp, err := (&http.Client{Transport: d.tr}).Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// promCounters reads the unlabelled samples of a Prometheus text page.
func (d *deployment) promCounters(url string) (map[string]float64, error) {
	resp, err := (&http.Client{Transport: d.tr}).Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// timingStages parses an X-Analogfold-Timing value ("queue;dur=0.312,
// relax;dur=120.504") into milliseconds per stage.
func timingStages(h string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(dur, 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// servingLayers fills the serving rows of l from the timed part of the
// traced replay, whose outcomes outs are requests first, first+1, ...: the
// stage split each answer carries, the middleware's hops, the /metrics
// counters before and after, and the replicas' flight recorders.
func servingLayers(l layers, rep *report, outs []outcome, first int, hops []hop, before, after scrape) {
	n := float64(max(len(outs), 1))

	// Winner replica and coordinator time per request, from the middleware.
	coordDur := map[string]time.Duration{}
	replicaDur := map[[2]string]time.Duration{}
	work := map[string]float64{}
	var probeBytes int64
	for _, h := range hops {
		switch {
		case h.tier == "coordinator":
			coordDur[h.id] += h.dur
		case h.path == "/readyz" || h.path == "/metrics":
			probeBytes += h.bytes
		default:
			replicaDur[[2]string{h.id, h.tier}] += h.dur
			work[h.tier]++
		}
	}

	stages := map[string]float64{}
	var clientMS, proxyMS, replicaStagesMS float64
	for i, o := range outs {
		st := timingStages(o.timing)
		for name, v := range st {
			stages[name] += v
		}
		id := requestID(first + i)
		proxy := coordDur[id] - replicaDur[[2]string{id, o.replica}]
		proxyMS += ms(proxy)
		clientMS += ms(o.lat)
		for name, v := range st {
			if name != obs.StageName(obs.StageProxy) {
				replicaStagesMS += v
			}
		}
	}
	l["serve.queue_ms"] = stages["queue"] / n
	l["serve.batch_wait_ms"] = stages["batch_wait"] / n
	l["serve.score_ms"] = stages["score"] / n
	l["relax.ms"] = stages["relax"] / n
	l["route.ms"] = stages["route"] / n
	l["cluster.proxy_ms"] = proxyMS / n
	l["core.unattributed_pct"] = 100 * (clientMS - proxyMS - replicaStagesMS) / clientMS
	rep.detail["core.unattributed"] = map[string]float64{
		"client_ms": clientMS, "proxy_ms": proxyMS, "replica_stages_ms": replicaStagesMS,
	}

	var hi, lo, total float64
	for i := 0; i < replicaCount; i++ {
		w := work[replicaName(i)]
		if i == 0 || w > hi {
			hi = w
		}
		if i == 0 || w < lo {
			lo = w
		}
		total += w
	}
	if total > 0 {
		l["cluster.replica_skew"] = (hi - lo) / total
	}
	l["cluster.probe_kb"] = float64(probeBytes) / 1024

	// Counter deltas, summed over the replicas.
	var (
		shed, waves, members, hits, misses, collapses  float64
		evals, retried, relaxSpanMS, routeCalls, iters float64
		dropped                                        uint64
	)
	for i := range after.replicas {
		a, b := after.replicas[i], before.replicas[i]
		shed += float64(a.Shed - b.Shed)
		waves += float64(a.Batch.Waves - b.Batch.Waves)
		members += float64(a.Batch.Size.Count)*a.Batch.Size.MeanMS - float64(b.Batch.Size.Count)*b.Batch.Size.MeanMS
		hits += float64(a.Cache.Hits - b.Cache.Hits)
		misses += float64(a.Cache.Misses - b.Cache.Misses)
		collapses += float64(a.Cache.Collapses - b.Cache.Collapses)
		evals += after.counters[i]["analogfold_relax_evals_total"] - before.counters[i]["analogfold_relax_evals_total"]
		retried += after.counters[i]["analogfold_relax_retried_total"] - before.counters[i]["analogfold_relax_retried_total"]
		// The flight recorder keeps events oldest first; the replay's are
		// the last ones recorded since the first scrape.
		f := after.flight[i]
		dropped += f.Dropped
		fresh := f.Events[max(0, len(f.Events)-int(f.Total-before.flight[i].Total)):]
		for _, e := range fresh {
			switch {
			case e.Name == "relaxation" && e.Phase == obs.PhaseSpan:
				relaxSpanMS += float64(e.DurUS) / 1e3
			case e.Name == "route.done":
				routeCalls++
				if v, ok := e.Args["iterations"].(float64); ok {
					iters += v
				}
			}
		}
	}
	l["serve.shed"] = shed
	l["serve.waves"] = waves
	if waves > 0 {
		l["serve.wave_members"] = members / waves
	}
	l["servecache.hits"] = hits
	l["servecache.misses"] = misses
	l["servecache.collapses"] = collapses
	if lookups := hits + misses + collapses; lookups > 0 {
		l["servecache.hit_ratio"] = hits / lookups
	}
	l["relax.evals"] = evals
	l["relax.retried"] = retried
	if evals > 0 {
		l["relax.ms_per_eval"] = relaxSpanMS / evals
	}
	l["route.calls"] = routeCalls
	l["route.iterations"] = iters
	rep.detail["flight_events_dropped"] = dropped

	a, b := after.coord, before.coord
	l["cluster.hedges"] = float64(a.Hedges - b.Hedges)
	l["cluster.hedge_wins"] = float64(a.HedgeWins - b.HedgeWins)
	l["cluster.failovers"] = float64(a.Failovers - b.Failovers)
	if h := a.Hedges - b.Hedges; h > 0 {
		l["cluster.hedge_win_ratio"] = float64(a.HedgeWins-b.HedgeWins) / float64(h)
	}
}
