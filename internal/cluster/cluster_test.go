package cluster

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/serve"
)

func testOpts() core.Options {
	return core.Options{
		Samples: 10, TrainEpochs: 6, RelaxRestarts: 3, NDerive: 2,
		PlaceIters: 1200, Seed: 1, Workers: 2,
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// waitGoroutines polls until the goroutine count settles back near the
// baseline (same tolerance as the serve package's leak check).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+8 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutine leak: before=%d after=%d", before, runtime.NumGoroutine())
}

// stubReplica is a scriptable fake daemon: always ready, with the work
// endpoints delegated to fn. Hits and last-seen request ID are recorded.
type stubReplica struct {
	ts      *httptest.Server
	hits    atomic.Int64
	lastRID atomic.Value // string
	// delayNS, when >0, stalls the work handler; a stalled handler watches
	// for context cancellation and records it.
	delayNS  atomic.Int64
	canceled chan struct{}
}

func newStubReplica(t *testing.T, fn http.HandlerFunc) *stubReplica {
	t.Helper()
	r := &stubReplica{canceled: make(chan struct{}, 16)}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	work := func(w http.ResponseWriter, req *http.Request) {
		r.hits.Add(1)
		r.lastRID.Store(req.Header.Get(serve.HeaderRequestID))
		// Drain the body like a real daemon would: the server only notices a
		// canceled client (and cancels req.Context()) once the body is consumed.
		io.Copy(io.Discard, req.Body)
		if d := time.Duration(r.delayNS.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-req.Context().Done():
				r.canceled <- struct{}{}
				return
			}
		}
		fn(w, req)
	}
	mux.HandleFunc("/v1/guidance", work)
	mux.HandleFunc("/v1/route", work)
	r.ts = httptest.NewServer(mux)
	t.Cleanup(r.ts.Close)
	return r
}

func okBody(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}
}

// newTestCoordinator builds a coordinator over the URLs with timings tight
// enough for tests; probers are stopped at cleanup.
func newTestCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // first immediate probe only
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 10 * time.Second
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = time.Hour // effectively no hedging unless a test wants it
	}
	if cfg.HedgePercentile == 0 {
		cfg.HedgePercentile = -1 // static budget: tests control timing exactly
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	c := New(cfg)
	t.Cleanup(c.stopProbers)
	return c
}

// benchWithFirstChoice finds a benchmark whose rendezvous first choice is the
// wanted replica. Ports (and so hashes) vary per run; 20 benches make a miss
// astronomically unlikely, and the t.Skip is a loud fallback, not an expected
// path. The rank is the pure hash order, not candidates(): the prober's
// first probe may already have demoted a dead replica, which must not make
// the search miss.
func benchWithFirstChoice(t *testing.T, c *Coordinator, want *replica) string {
	t.Helper()
	hashes := make([]uint64, len(c.replicas))
	for i, r := range c.replicas {
		hashes[i] = r.hash
	}
	for _, ckt := range []string{"OTA1", "OTA2", "OTA3", "OTA4", "OTA5"} {
		for _, prof := range []string{"A", "B", "C", "D"} {
			bench := ckt + "-" + prof
			if c.replicas[rankOrder(Digest(bench), hashes)[0]].url == want.url {
				return bench
			}
		}
	}
	t.Skip("no benchmark hashed to the wanted replica (p≈2^-20); rerun")
	return ""
}

// TestCacheHeaderPassthrough pins that a replica's cache-status header
// survives the coordinator proxy: rendezvous affinity makes each replica's
// result cache effective across the fleet, and clients can observe hit/miss/
// collapsed exactly as when talking to a worker directly.
func TestCacheHeaderPassthrough(t *testing.T) {
	r := newStubReplica(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(serve.HeaderCache, "hit")
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	})
	c := newTestCoordinator(t, Config{Replicas: []string{r.ts.URL}})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if g, w := resp.Header.Get(serve.HeaderCache), "hit"; g != w {
		t.Fatalf("proxied cache header = %q, want %q", g, w)
	}
}

func TestAffinityPinsBenchToOneReplica(t *testing.T) {
	a := newStubReplica(t, okBody(`{"rung":"elite"}`))
	b := newStubReplica(t, okBody(`{"rung":"elite"}`))
	cc := newStubReplica(t, okBody(`{"rung":"elite"}`))
	c := newTestCoordinator(t, Config{Replicas: []string{a.ts.URL, b.ts.URL, cc.ts.URL}})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	var winner string
	for i := 0; i < 8; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if string(body) != `{"rung":"elite"}` {
			t.Fatalf("body not passed through verbatim: %s", body)
		}
		rep := resp.Header.Get(HeaderReplica)
		if winner == "" {
			winner = rep
		} else if rep != winner {
			t.Fatalf("request %d routed to %s, earlier ones to %s: affinity broken", i, rep, winner)
		}
	}
	total := a.hits.Load() + b.hits.Load() + cc.hits.Load()
	if total != 8 {
		t.Fatalf("replicas saw %d requests, want 8 (no duplicates, no losses)", total)
	}
	for _, r := range []*stubReplica{a, b, cc} {
		if n := r.hits.Load(); n != 0 && n != 8 {
			t.Fatalf("hits split %d/%d/%d; one replica must own the bench",
				a.hits.Load(), b.hits.Load(), cc.hits.Load())
		}
	}
}

func TestFailoverOn5xxReachesNextRung(t *testing.T) {
	bad := newStubReplica(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"kind":"panic","msg":"injected"}}`))
	})
	good := newStubReplica(t, okBody(`{"rung":"elite"}`))
	c := newTestCoordinator(t, Config{Replicas: []string{bad.ts.URL, good.ts.URL}})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	badRep := c.replicas[0]
	bench := benchWithFirstChoice(t, c, badRep)
	resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"`+bench+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover answer = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderReplica); got != good.ts.URL {
		t.Errorf("winner = %q, want the good replica %q", got, good.ts.URL)
	}
	if c.met.failovers.Value() != 1 {
		t.Errorf("failovers = %d, want 1", c.met.failovers.Value())
	}
	if badRep.failures.Load() != 1 {
		t.Errorf("bad replica failures = %d, want 1", badRep.failures.Load())
	}
	// A 5xx is an application failure, not unreachability: the replica stays
	// in the live ladder (the prober or its next success will grade it).
	if st := badRep.getState(); st != stateUp {
		t.Errorf("bad replica state after 500 = %s, want up", st)
	}
	if c.met.answered.Value() != 1 || c.met.shed.Value() != 0 {
		t.Errorf("answered=%d shed=%d, want 1/0", c.met.answered.Value(), c.met.shed.Value())
	}
}

func TestTransportFailureMarksDownAndDemotes(t *testing.T) {
	// A dead replica: a port that was listening (so New accepts the URL) and
	// then closed — connections are refused from the first request on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()
	good := newStubReplica(t, okBody(`{"rung":"elite"}`))
	c := newTestCoordinator(t, Config{Replicas: []string{deadURL, good.ts.URL}})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	dead := c.replicas[0]
	bench := benchWithFirstChoice(t, c, dead)
	// Force the demotion via the request path (the prober may or may not have
	// beaten us to it).
	resp, _ := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"`+bench+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d, want 200 via failover", resp.StatusCode)
	}
	if st := dead.getState(); st != stateDown {
		t.Fatalf("dead replica state = %s, want down", st)
	}
	// Down replicas sink to the bottom of every ladder: the next request goes
	// straight to the live one, no connection attempt at the corpse.
	before := dead.requests.Load()
	resp, _ = postJSON(t, ts.URL+"/v1/guidance", `{"bench":"`+bench+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request = %d, want 200", resp.StatusCode)
	}
	if got := dead.requests.Load(); got != before {
		t.Errorf("dead replica still attempted first (%d→%d attempts); ladder not health-driven", before, got)
	}
	if c.candidates(Digest(bench))[0].url != good.ts.URL {
		t.Error("candidates still ranks the down replica first")
	}
}

func TestHedgeFirstSuccessWinsAndCancelsLoser(t *testing.T) {
	before := runtime.NumGoroutine()
	a := newStubReplica(t, okBody(`{"rung":"elite"}`))
	b := newStubReplica(t, okBody(`{"rung":"elite"}`))
	c := newTestCoordinator(t, Config{
		Replicas:   []string{a.ts.URL, b.ts.URL},
		HedgeAfter: 30 * time.Millisecond,
		MaxHedges:  1,
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	primRep := c.candidates(Digest("OTA1-A"))[0]
	prim, hedgeTo := a, b
	if primRep.url == b.ts.URL {
		prim, hedgeTo = b, a
	}
	prim.delayNS.Store(int64(2 * time.Second)) // primary stalls past the budget

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request = %d: %s", resp.StatusCode, body)
	}
	if elapsed > time.Second {
		t.Errorf("hedged answer took %v; the stalled primary was waited out", elapsed)
	}
	if got := resp.Header.Get(HeaderReplica); got != hedgeTo.ts.URL {
		t.Errorf("winner = %q, want the hedge target %q", got, hedgeTo.ts.URL)
	}
	if c.met.hedges.Value() != 1 || c.met.hedgeWins.Value() != 1 {
		t.Errorf("hedges=%d hedgeWins=%d, want 1/1", c.met.hedges.Value(), c.met.hedgeWins.Value())
	}
	if c.met.failovers.Value() != 0 {
		t.Errorf("failovers = %d, want 0 (this was a hedge, not a retry)", c.met.failovers.Value())
	}
	// The stalled primary must have been canceled, not left running to
	// completion — first success wins, losers are reaped.
	select {
	case <-prim.canceled:
	case <-time.After(3 * time.Second):
		t.Error("stalled primary attempt was never canceled")
	}
	// The loser's cancellation must not poison its health record.
	if st := primRep.getState(); st != stateUp {
		t.Errorf("primary graded %s after losing a hedge race, want up", st)
	}
	ts.Close()
	c.stopProbers()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, before)
}

func TestShedPassthroughPreservesRetryAfter(t *testing.T) {
	shedding := newStubReplica(t, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"kind":"overloaded","msg":"queue full"}}`))
	})
	c := newTestCoordinator(t, Config{Replicas: []string{shedding.ts.URL}})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/route", `{"bench":"OTA1-A"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the replica's 503 passed through", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want the replica's jittered hint %q preserved", got, "7")
	}
	if string(body) != `{"error":{"kind":"overloaded","msg":"queue full"}}` {
		t.Errorf("shed body rewritten: %s", body)
	}
	m := c.MetricsSnapshot()
	if m.Accepted != 1 || m.Shed != 1 || m.Answered != 0 {
		t.Errorf("accounting accepted=%d shed=%d answered=%d, want 1/1/0", m.Accepted, m.Shed, m.Answered)
	}
}

func TestRequestIDGeneratedAndForwarded(t *testing.T) {
	rep := newStubReplica(t, okBody(`{"rung":"elite"}`))
	c := newTestCoordinator(t, Config{Replicas: []string{rep.ts.URL}})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// No ID supplied: the coordinator mints one, echoes it to the client and
	// forwards the same one to the replica.
	resp, _ := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	rid := resp.Header.Get(serve.HeaderRequestID)
	if len(rid) != 16 {
		t.Fatalf("generated request ID = %q, want 16 hex digits", rid)
	}
	if got, _ := rep.lastRID.Load().(string); got != rid {
		t.Errorf("replica saw request ID %q, client saw %q; propagation broken", got, rid)
	}

	// A caller-supplied ID is adopted end to end.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/guidance",
		strings.NewReader(`{"bench":"OTA1-A"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(serve.HeaderRequestID, "caller-rid-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(serve.HeaderRequestID); got != "caller-rid-42" {
		t.Errorf("echoed ID = %q, want caller-rid-42", got)
	}
	if got, _ := rep.lastRID.Load().(string); got != "caller-rid-42" {
		t.Errorf("replica saw ID %q, want caller-rid-42", got)
	}
}

// TestLocalFallbackBitIdentical: with every replica unreachable, the
// coordinator answers from its embedded nil-model ladder — and because the
// uniform rung is deterministic, the body is byte-identical to what a
// healthy single daemon (same nil-model config) would have served.
func TestLocalFallbackBitIdentical(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	reference := httptest.NewServer(serve.New(nil, serve.Config{Opts: testOpts()}).Handler())
	defer reference.Close()
	_, want := postJSON(t, reference.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)

	c := newTestCoordinator(t, Config{
		Replicas: []string{deadURL},
		Local:    serve.New(nil, serve.Config{Opts: testOpts()}),
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	resp, got := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-outage request = %d, want 200 from the local ladder: %s", resp.StatusCode, got)
	}
	if resp.Header.Get(HeaderReplica) != "local" {
		t.Errorf("replica header = %q, want local", resp.Header.Get(HeaderReplica))
	}
	if string(got) != string(want) {
		t.Errorf("local-fallback body differs from single-daemon reference:\n got: %s\nwant: %s", got, want)
	}
	m := c.MetricsSnapshot()
	if m.LocalFallback != 1 {
		t.Errorf("local_fallback = %d, want 1", m.LocalFallback)
	}
	if m.Accepted != m.Answered+m.Shed {
		t.Errorf("accounting broken: accepted=%d answered=%d shed=%d", m.Accepted, m.Answered, m.Shed)
	}
}

func TestNoReplicasNoLocalIsTypedOverload(t *testing.T) {
	c := newTestCoordinator(t, Config{})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"overloaded"`) {
		t.Errorf("body lacks the typed overload kind: %s", body)
	}
	m := c.MetricsSnapshot()
	if m.Accepted != 1 || m.Shed != 1 {
		t.Errorf("accepted=%d shed=%d, want 1/1", m.Accepted, m.Shed)
	}
}

func TestServeDrainReleasesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	rep := newStubReplica(t, okBody(`{"rung":"elite"}`))
	c := New(Config{
		Replicas:      []string{rep.ts.URL},
		ProbeInterval: 10 * time.Millisecond,
		DrainTimeout:  5 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	if resp, _ := postJSON(t, base+"/v1/guidance", `{"bench":"OTA1-A"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain request = %d", resp.StatusCode)
	}
	// Let a few probe ticks run so the prober loops are demonstrably live.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, before)
}

func TestAdaptiveHedgeBudget(t *testing.T) {
	c := newTestCoordinator(t, Config{
		HedgeAfter:      250 * time.Millisecond,
		HedgePercentile: 0.95,
		AttemptTimeout:  10 * time.Second,
	})
	// Below the sample floor the static default holds.
	if got := c.hedgeDelay(); got != 250*time.Millisecond {
		t.Fatalf("cold hedge budget = %v, want the static 250ms", got)
	}
	// 32 observations around 8ms: the budget adapts down to the bucket edge
	// covering the p95 — 8ms lands in bucket (4,8] → upper edge 16ms.
	for i := 0; i < 32; i++ {
		c.lat.Observe(8 * time.Millisecond)
	}
	got := c.hedgeDelay()
	if got < time.Millisecond || got > 32*time.Millisecond {
		t.Errorf("adaptive budget = %v, want a small multiple of the observed 8ms", got)
	}
	// Pathologically slow observations are clamped to AttemptTimeout/2.
	for i := 0; i < 64; i++ {
		c.lat.Observe(time.Hour)
	}
	if got := c.hedgeDelay(); got != 5*time.Second {
		t.Errorf("clamped budget = %v, want AttemptTimeout/2 = 5s", got)
	}
	// Percentile < 0 disables adaptation entirely.
	c.cfg.HedgePercentile = -1
	if got := c.hedgeDelay(); got != 250*time.Millisecond {
		t.Errorf("disabled adaptation budget = %v, want static 250ms", got)
	}
}

// TestProbeGradesDegradedFromReadyz pins the prober's grading from the
// /readyz body: a replica reporting its breaker open, or an admission queue
// at least BusyQueueDepth deep, is graded degraded and returns to up when
// the condition clears; a bare 200 grades up.
func TestProbeGradesDegradedFromReadyz(t *testing.T) {
	var body atomic.Value // string
	body.Store("")
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, body.Load().(string))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := newTestCoordinator(t, Config{Replicas: []string{ts.URL}, BusyQueueDepth: 4})
	rep := c.replicas[0]
	for _, tc := range []struct {
		body string
		want replicaState
	}{
		{``, stateUp},
		{`{"queue_depth":0,"breaker":"closed"}`, stateUp},
		{`{"queue_depth":0,"breaker":"open"}`, stateDegraded},
		{`{"queue_depth":0,"breaker":"half-open"}`, stateUp},
		{`{"queue_depth":4,"breaker":"closed"}`, stateDegraded},
		{`{"queue_depth":3,"breaker":"closed"}`, stateUp},
	} {
		body.Store(tc.body)
		c.probe(rep)
		if got := rep.getState(); got != tc.want {
			t.Errorf("/readyz %q graded %s, want %s", tc.body, got, tc.want)
		}
	}
	if rep.lastQueue.Load() != 3 || rep.breaker.Load() != 0 {
		t.Errorf("probe gauges queue=%d breaker=%d, want 3/0", rep.lastQueue.Load(), rep.breaker.Load())
	}
}
