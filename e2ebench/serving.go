package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"analogfold/internal/cluster"
	"analogfold/internal/core"
	"analogfold/internal/gnn3d"
	"analogfold/internal/obs"
	"analogfold/internal/serve"
)

// replicaCount is the number of serve.Server replicas behind the coordinator.
const replicaCount = 2

// deployment is the serving stack, all in this process on loopback: two
// serve.Server replicas with analogfoldd's default settings (result cache and
// micro-batch window on) behind a cluster.Coordinator at its defaults.
type deployment struct {
	url      string // coordinator base URL
	client   *http.Client
	coord    *cluster.Coordinator
	front    *http.Server   // serves the coordinator's handler
	replicas []*http.Server // serve the replicas' handlers
	tr       *http.Transport
	hops     *hopLog // nil unless traced
	stop     context.CancelFunc
	lifetime chan error
}

// replicaName is the stable base URL of replica i. The coordinator ranks
// replicas by hashing their URLs, so stable names (rather than ephemeral
// ports) keep each benchmark's replica affinity the same in every run.
func replicaName(i int) string { return fmt.Sprintf("http://replica-%d.e2ebench", i) }

// deploy starts the stack for model and waits until the coordinator has
// graded both replicas up. With traced set, every replica and the
// coordinator record telemetry and sit behind the benchmark's timing
// middleware.
func deploy(model *gnn3d.Model, sc scale, opts core.Options, traced bool) (d *deployment, err error) {
	d = &deployment{lifetime: make(chan error, 1)}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if traced {
		d.hops = &hopLog{}
	}
	newTel := func() *obs.Telemetry {
		if !traced {
			return nil
		}
		return obs.New(obs.Options{Seed: opts.Seed, FlightCapacity: 1 << 16})
	}
	addrs := map[string]string{}
	var names []string
	for i := 0; i < replicaCount; i++ {
		s := serve.New(model, serve.Config{
			CacheEntries: 1024, BatchWindow: 2 * time.Millisecond, BatchMax: 8,
			Opts: opts, Telemetry: newTel(),
		})
		if err := s.Warm([]string{sc.small, sc.large}); err != nil {
			return nil, fmt.Errorf("warm replica %d: %w", i, err)
		}
		name := replicaName(i)
		srv, addr, err := listen(d.hops.wrap(name, s.Handler()))
		if err != nil {
			return nil, err
		}
		d.replicas = append(d.replicas, srv)
		names = append(names, name)
		addrs[strings.TrimPrefix(name, "http://")+":80"] = addr
	}
	var dialer net.Dialer
	d.tr = &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     30 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if a, ok := addrs[addr]; ok {
				addr = a
			}
			return dialer.DialContext(ctx, network, addr)
		},
	}
	d.coord = cluster.New(cluster.Config{
		Replicas:  names,
		Transport: d.tr,
		Local:     serve.New(nil, serve.Config{Opts: opts}),
		Telemetry: newTel(),
	})
	// Coordinator.Serve owns the coordinator's lifetime: its health probers
	// stop when Serve returns. The listener it is given stays idle; traffic
	// goes to the handler on the benchmark's own server, which traced runs
	// wrap in the timing middleware.
	idle, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var sctx context.Context
	sctx, d.stop = context.WithCancel(context.Background())
	go func() { d.lifetime <- d.coord.Serve(sctx, idle) }()
	var addr string
	if d.front, addr, err = listen(d.hops.wrap("coordinator", d.coord.Handler())); err != nil {
		return nil, err
	}
	d.url = "http://" + addr
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	return d, d.waitUp()
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on Shutdown
	return srv, ln.Addr().String(), nil
}

// waitUp polls the coordinator until its probers have graded every replica
// up.
func (d *deployment) waitUp() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		up := 0
		snap := d.coord.MetricsSnapshot()
		for _, r := range snap.Replicas {
			if r.State == "up" && r.Probes > 0 {
				up++
			}
		}
		if up == replicaCount {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas not graded up: %+v", snap.Replicas)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops the coordinator, then the replicas, and waits for each.
func (d *deployment) close() {
	shutdown(d.front)
	if d.stop != nil {
		d.stop()
		<-d.lifetime
	}
	for _, s := range d.replicas {
		shutdown(s)
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if d.tr != nil {
		d.tr.CloseIdleConnections()
	}
}

// shutdown lets srv finish its requests, cutting them off after ten seconds.
func shutdown(srv *http.Server) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if srv.Shutdown(ctx) != nil {
		srv.Close()
	}
}

// request is one generated client request.
type request struct {
	path  string
	bench string
	seed  int64
	body  []byte
}

func newRequest(path, bench string, seed int64) request {
	// Both request types share this shape.
	body, err := json.Marshal(serve.RouteRequest{Bench: bench, Seed: seed})
	if err != nil {
		panic(err) // a struct of a string and an int always marshals
	}
	return request{path: path, bench: bench, seed: seed, body: body}
}

// key identifies a request's result-cache entry.
func (r request) key() string { return fmt.Sprintf("%s/%d", r.bench, r.seed) }

// outcome is one answered (or failed) request as the client saw it.
type outcome struct {
	err     error
	status  int
	body    []byte
	cache   string // X-Analogfold-Cache
	replica string // X-Analogfold-Replica
	timing  string // X-Analogfold-Timing (traced runs only)
	lat     time.Duration
}

// requestID is the X-Request-ID of request i; the middleware matches hops
// on it.
func requestID(i int) string { return fmt.Sprintf("e2e-%d", i) }

// warmupRequests is how many answers the coordinator collects before its
// hedge budget adapts to the latencies it observes (its minimum sample
// count); until then it hedges every request after a static 250 ms. A
// long-running coordinator is past that point, so the first warmupRequests
// requests of every run warm it up. They are checked but not timed.
const warmupRequests = 16

// drive sends the warm-up requests, then the rest of reqs for measure (0:
// all of them). It returns the outcomes of every request sent, in request
// order, and the wall time of the timed part.
func (t traffic) drive(ctx context.Context, d *deployment, reqs []request, measure time.Duration) ([]outcome, time.Duration) {
	warm, _ := closedLoop(ctx, d, reqs[:min(warmupRequests, len(reqs))], 0, t.clients(), 0)
	timed, elapsed := closedLoop(ctx, d, reqs, len(warm), t.clients(), measure)
	return append(warm, timed...), elapsed
}

// closedLoop sends reqs[from:] from clients that each send their next
// request only after the previous answer arrived, taking requests in order.
// No request starts after measure has elapsed (measure 0: send them all). It
// returns the outcomes of the requests sent, in request order, and the wall
// time until the last answer.
func closedLoop(ctx context.Context, d *deployment, reqs []request, from, clients int, measure time.Duration) ([]outcome, time.Duration) {
	reqs = reqs[from:]
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (measure == 0 || time.Since(start) < measure) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				outs[i] = d.do(ctx, requestID(from+i), reqs[i])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return outs[:min(int(next.Load()), len(reqs))], elapsed
}

// do sends r with the given request ID and reads the whole answer.
func (d *deployment) do(ctx context.Context, id string, r request) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.HeaderRequestID, id)
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return outcome{err: err, lat: time.Since(t0)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return outcome{
		err: err, status: resp.StatusCode, body: body,
		cache:   resp.Header.Get(serve.HeaderCache),
		replica: resp.Header.Get(cluster.HeaderReplica),
		timing:  resp.Header.Get(serve.HeaderTiming),
		lat:     time.Since(t0),
	}
}

// traffic is what distinguishes the two serving workloads.
type traffic struct {
	// clients is the number of closed-loop clients.
	clients func() int
	// requests generates the workload's request sequence from the seed.
	requests func(sc scale, seed int64) []request
	// check validates the answers and returns one error (or nil) per
	// outcome.
	check func(sc scale, reqs []request, outs []outcome) []error
	// quality measures the post-layout quality of what was served. Each
	// entry of the returned slice is one more operation, failed if non-nil.
	quality func(ctx context.Context, sc scale, reqs []request, outs []outcome) (quality, []error)
}

// runServing sets the deployment up several times (setup_s is the median),
// then drives the last one with the traffic's closed-loop clients for the
// measurement time.
func runServing(ctx context.Context, cfg config, rep *report, t traffic) error {
	sc, opts := cfg.scale, cfg.scale.opts
	reqs := t.requests(sc, cfg.seed)
	if cfg.trace {
		return traceServing(ctx, cfg, rep, t, reqs)
	}
	var (
		d      *deployment
		setups []float64
	)
	for i := 0; i < sc.setupReps; i++ {
		if d != nil {
			d.close()
		}
		// Start every set-up from a collected heap, as a fresh daemon
		// would, instead of on the garbage of the one before.
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		model, _, err := trainCheckpoint(ctx, nil, sc, opts)
		if err != nil {
			return err
		}
		if d, err = deploy(model, sc, opts, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.detail["peak_rss_after_setup_mb"] = peakRSSMB()
	outs, elapsed := t.drive(ctx, d, reqs, cfg.measure)
	// Shutting the servers down waits for the requests still running (a
	// hedge's losing attempt) but keeps the replicas' models, warmed grids
	// and filled result caches, which is what the deployment holds at rest.
	d.close()
	retained := retainedHeapMB()
	runtime.KeepAlive(d)
	if err := ctx.Err(); err != nil {
		return err
	}
	var lat []float64
	for i, err := range t.check(sc, reqs, outs) {
		rep.op(err)
		if err == nil && i >= warmupRequests {
			lat = append(lat, ms(outs[i].lat))
		}
	}
	q, errs := t.quality(ctx, sc, reqs, outs)
	for _, err := range errs {
		rep.op(err)
	}
	rep.detail["setup_runs_s"] = setups
	rep.detail["latencies_ms"] = lat
	rep.detail["requests"] = map[string]int{"warmup": min(warmupRequests, len(outs)), "timed": len(outs) - min(warmupRequests, len(outs))}
	rep.detail["cache_verdicts"] = countBy(outs, func(o outcome) string { return o.cache })
	rep.detail["answered_by"] = countBy(outs, func(o outcome) string { return o.replica })
	rep.setEndToEnd(median(setups), lat, elapsed, q.mean(), retained)
	return nil
}

// trainCheckpoint trains the serving checkpoint: the cold flow's database
// construction and 3DGNN training on the small benchmark.
func trainCheckpoint(ctx context.Context, tr *tracer, sc scale, opts core.Options) (*gnn3d.Model, trainStats, error) {
	c, prof, err := core.ParseBenchmark(sc.small)
	if err != nil {
		return nil, trainStats{}, err
	}
	root := tr.begin("core", -1)
	defer tr.end(root)
	g, err := placeAndGrid(tr, root, flowInput{sc.small, c, prof}, opts)
	if err != nil {
		return nil, trainStats{}, err
	}
	m, _, st, err := trainModel(ctx, tr, root, g, opts)
	return m, st, err
}

// decodeOK checks the transport-level outcome and decodes a 200 answer.
func decodeOK(o outcome, v any) error {
	if o.err != nil {
		return o.err
	}
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", o.status, o.body)
	}
	if o.replica == "" || o.replica == "local" {
		return fmt.Errorf("answered by %q, not a replica", o.replica)
	}
	if err := json.Unmarshal(o.body, v); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	return nil
}

// checkAnswer checks the fields both answer types share.
func checkAnswer(r request, bench string, seed int64, rung string, degraded bool) error {
	if bench != r.bench || seed != r.seed {
		return fmt.Errorf("answer for %s/%d, asked %s", bench, seed, r.key())
	}
	if rung != string(core.RungElite) || degraded {
		return fmt.Errorf("%s: rung %q degraded=%v", r.key(), rung, degraded)
	}
	return nil
}

// countBy tallies outcomes by a string field.
func countBy(outs []outcome, f func(outcome) string) map[string]int {
	m := map[string]int{}
	for _, o := range outs {
		m[f(o)]++
	}
	return m
}

// traceServing trains the checkpoint once under the tracer, drives an
// untraced deployment for a third of the measurement time, then replays the same
// requests against a traced deployment and once more against an untraced
// one; the tracing cost is the traced replay's timed part against the mean
// of the two untraced runs'. Every answer must be the same in all three
// runs; the per-layer rows come from the traced replay's timed part.
func traceServing(ctx context.Context, cfg config, rep *report, t traffic, reqs []request) error {
	sc, opts := cfg.scale, cfg.scale.opts
	tr := &tracer{}
	model, st, err := trainCheckpoint(ctx, tr, sc, opts)
	if err != nil {
		return err
	}
	untracedRun := func(measure time.Duration) ([]outcome, time.Duration, error) {
		d, err := deploy(model, sc, opts, false)
		if err != nil {
			return nil, 0, err
		}
		outs, elapsed := t.drive(ctx, d, reqs, measure)
		d.close()
		return outs, elapsed, ctx.Err()
	}
	// A third of the measurement time keeps the three runs of a traced run
	// well inside its time limit.
	outs0, untraced0, err := untracedRun(cfg.measure / 3)
	if err != nil {
		return err
	}
	reqs = reqs[:len(outs0)]

	dt, err := deploy(model, sc, opts, true)
	if err != nil {
		return err
	}
	warm, _ := closedLoop(ctx, dt, reqs[:min(warmupRequests, len(reqs))], 0, t.clients(), 0)
	cw := dt.coord.MetricsSnapshot()
	rep.detail["warmup"] = map[string]int64{"requests": int64(len(warm)), "hedges": cw.Hedges, "hedge_wins": cw.HedgeWins}
	before, err := dt.scrape()
	if err != nil {
		dt.close()
		return err
	}
	dt.hops.reset()
	timed, traced := closedLoop(ctx, dt, reqs, len(warm), t.clients(), 0)
	hops := dt.hops.snapshot()
	outs1 := append(warm, timed...)
	after, err := dt.scrape()
	dt.close()
	if err != nil {
		return err
	}

	outs2, untraced2, err := untracedRun(0)
	if err != nil {
		return err
	}

	errs0, errs1, errs2 := t.check(sc, reqs, outs0), t.check(sc, reqs, outs1), t.check(sc, reqs, outs2)
	for i := range reqs {
		err := errors.Join(errs0[i], errs1[i], errs2[i])
		if err == nil && !(sameAnswer(outs0[i].body, outs1[i].body) && sameAnswer(outs0[i].body, outs2[i].body)) {
			err = fmt.Errorf("%s: untraced and traced answers differ", reqs[i].key())
		}
		rep.op(err)
	}

	l := layers{}
	self := tr.selfTimes()
	for _, name := range []string{"place", "grid", "dataset", "hetgraph"} {
		l[name+".ms"] = ms(self[name])
	}
	l["gnn3d.fit_ms"] = ms(self["gnn3d"])
	l["dataset.samples"] = float64(st.samples)
	l["dataset.kept_ratio"] = ratio(st.samples, st.samples+st.dropped)
	l["dataset.alloc_mb"] = st.datasetMB
	l["gnn3d.fit_alloc_mb"] = st.fitMB
	servingLayers(l, rep, timed, len(warm), hops, before, after)
	setOverhead(l, rep, traced, untraced0, untraced2)
	rep.detail["traced_requests"] = map[string]int{"warmup": len(warm), "timed": len(timed)}
	return rep.setLayers(l)
}

// sameAnswer reports whether two answer bodies are byte-identical in every
// field but runtime_ms, which is the request's own wall time.
func sameAnswer(a, b []byte) bool {
	var ma, mb map[string]json.RawMessage
	if json.Unmarshal(a, &ma) != nil || json.Unmarshal(b, &mb) != nil {
		return bytes.Equal(a, b)
	}
	delete(ma, "runtime_ms")
	delete(mb, "runtime_ms")
	if len(ma) != len(mb) {
		return false
	}
	for k, v := range ma {
		if w, ok := mb[k]; !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	return true
}
