package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/hetgraph"
	"analogfold/internal/obs"
)

// tracedStubServer builds a telemetry-enabled server whose guidance work is a
// stub that burns a deterministic stage so the timing header has content.
func tracedStubServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Telemetry == nil {
		cfg.Telemetry = obs.New(obs.Options{Seed: 11})
	}
	s := New(nil, cfg)
	stubFlow(s, "OTA1-A")
	s.doGuidance = func(ctx context.Context, _ *core.Flow, _ *hetgraph.Graph, req GuidanceRequest, _ bool) (*GuidanceResponse, error) {
		_, span := obs.StartSpan(ctx, "stub.work")
		obs.StagesFrom(ctx).Add(obs.StageRelax, 3*time.Millisecond)
		span.End()
		return eliteStub(req, true), nil
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestTracedRequestTrailerExport pins the replica half of cross-process
// tracing: a request carrying a traceparent joins the caller's trace, answers
// with the per-stage timing header, and exports its span subtree (parented
// under the caller's span) plus its clock in announced response trailers.
func TestTracedRequestTrailerExport(t *testing.T) {
	_, ts := tracedStubServer(t, Config{})

	remote := obs.TraceContext{TraceID: strings.Repeat("ab", 16), SpanID: 0x42}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/guidance",
		strings.NewReader(`{"bench":"OTA1-A"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderTraceparent, obs.FormatTraceparent(remote))
	before := time.Now().UnixMicro()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d err %v body %s", resp.StatusCode, err, body)
	}

	if rid := resp.Header.Get(HeaderRequestID); rid == "" {
		t.Error("response missing minted " + HeaderRequestID)
	}
	// An uncontended admit waits sub-microsecond, so the queue stage rounds
	// to zero and is rightly dropped; the stub's relax stage must be there.
	timing := resp.Header.Get(HeaderTiming)
	if !strings.Contains(timing, "relax;dur=3.000") {
		t.Errorf("timing header %q missing relax stage", timing)
	}

	// Trailers are populated once the body hit EOF above.
	sums, err := obs.DecodeSpanSummaries(resp.Trailer.Get(TrailerSpans))
	if err != nil || len(sums) == 0 {
		t.Fatalf("span trailer: err=%v sums=%v", err, sums)
	}
	var root *obs.SpanSummary
	for i, s := range sums {
		if s.Name == "serve.guidance" {
			root = &sums[i]
		}
	}
	if root == nil {
		t.Fatalf("no serve.guidance span in trailer: %+v", sums)
	}
	if root.Parent != remote.SpanID || root.Trace != remote.TraceID {
		t.Errorf("root parent/trace = %d/%q, want caller's %d/%q",
			root.Parent, root.Trace, remote.SpanID, remote.TraceID)
	}
	found := false
	for _, s := range sums {
		if s.Name == "stub.work" && s.Parent == root.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("stub.work not parented under serve.guidance: %+v", sums)
	}
	clock, err := strconv.ParseInt(resp.Trailer.Get(TrailerClock), 10, 64)
	if err != nil || clock < before {
		t.Errorf("clock trailer %q (err %v), want unix micros >= %d",
			resp.Trailer.Get(TrailerClock), err, before)
	}
}

// TestUntracedRequestHasNoTrailer pins that span export is strictly opt-in
// via traceparent: a plain request still gets the timing header but must not
// announce or carry span trailers.
func TestUntracedRequestHasNoTrailer(t *testing.T) {
	_, ts := tracedStubServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	if resp.Header.Get(HeaderTiming) == "" {
		t.Error("untraced request lost the timing header")
	}
	if v := resp.Trailer.Get(TrailerSpans); v != "" {
		t.Errorf("untraced request exported spans: %q", v)
	}
}

// TestSLOEndpointFormats drives traffic through a server with SLO objectives
// and checks both /debug/slo renderings, plus the disabled shape.
func TestSLOEndpointFormats(t *testing.T) {
	_, ts := tracedStubServer(t, Config{
		SLOLatency:      time.Second,
		SLOAvailability: 0.999,
	})
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d body %s", resp.StatusCode, body)
		}
	}

	resp, body := getBody(t, ts.URL+"/debug/slo")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slo status %d", resp.StatusCode)
	}
	var rep obs.SLOReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("slo not JSON: %v\n%s", err, body)
	}
	if !rep.Enabled || rep.Fast.Total < 3 || rep.Slow.Total < 3 {
		t.Errorf("report %+v, want enabled with >=3 requests in both windows", rep)
	}
	if rep.Fast.Errors != 0 || rep.PageAvailability || rep.PageLatency {
		t.Errorf("healthy traffic should not burn or page: %+v", rep)
	}
	if rep.LatencyTargetMS != 1000 {
		t.Errorf("latency target %v ms, want 1000", rep.LatencyTargetMS)
	}

	resp, body = getBody(t, ts.URL+"/debug/slo?format=prom")
	const wantCT = "text/plain; version=0.0.4; charset=utf-8"
	if ct := resp.Header.Get("Content-Type"); ct != wantCT {
		t.Errorf("prom Content-Type %q, want %q", ct, wantCT)
	}
	text := string(body)
	for _, metric := range []string{
		"analogfold_serve_slo_fast_availability_burn",
		"analogfold_serve_slo_slow_latency_burn",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("prom exposition missing %s:\n%s", metric, text)
		}
	}

	// Without objectives the endpoint stays scrapeable but reports disabled.
	_, ts2 := tracedStubServer(t, Config{})
	_, body = getBody(t, ts2.URL+"/debug/slo")
	var off obs.SLOReport
	if err := json.Unmarshal(body, &off); err != nil || off.Enabled {
		t.Errorf("no-objective report: err=%v %+v, want enabled=false", err, off)
	}
}

// TestStageMetricsExposition pins that the per-stage histograms land in
// /metrics with the slowest-request exemplar attached.
func TestStageMetricsExposition(t *testing.T) {
	s, ts := tracedStubServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/guidance", `{"bench":"OTA1-A"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body)
	}
	views := s.met.stages.Views()
	v, ok := views["relax"]
	if !ok {
		t.Fatalf("stage views %v missing relax", views)
	}
	if v.Count < 1 || v.SlowestID == "" {
		t.Errorf("relax view %+v, want count>=1 with exemplar", v)
	}
	_, body := getBody(t, ts.URL+"/metrics?format=prom")
	if !strings.Contains(string(body), "analogfold_serve_stage_relax_seconds") {
		t.Errorf("prom exposition missing stage histogram:\n%.2000s", body)
	}
}

// TestLadderBottomRouteAttribution pins that a /v1/route answered from the
// ladder bottom — no model, or the breaker open — still attributes its
// routing time: a positive route stage in the timing header and a
// guided-routing span in the flight recorder.
func TestLadderBottomRouteAttribution(t *testing.T) {
	for _, breakerOpen := range []bool{false, true} {
		tel := obs.New(obs.Options{Seed: 13})
		s := New(nil, Config{Opts: testOpts(), Telemetry: tel, BreakerThreshold: 1, BreakerCooldown: time.Hour})
		if breakerOpen {
			s.brk.record(true)
		}
		ts := httptest.NewServer(s.Handler())
		resp, body := postJSON(t, ts.URL+"/v1/route", `{"bench":"OTA1-A"}`)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("breakerOpen=%v: status %d body %s", breakerOpen, resp.StatusCode, body)
		}
		timing := resp.Header.Get(HeaderTiming)
		if routeMS, _ := timingStage(timing, "route"); routeMS <= 0 {
			t.Errorf("breakerOpen=%v: timing header %q has no positive route stage", breakerOpen, timing)
		}
		spans := 0
		for _, e := range tel.Recorder().Snapshot() {
			if e.Name == "guided-routing" && e.Phase == obs.PhaseSpan {
				spans++
			}
		}
		if spans != 1 {
			t.Errorf("breakerOpen=%v: %d guided-routing spans recorded, want 1", breakerOpen, spans)
		}
	}
}

// timingStage returns a stage's duration in ms from an X-Analogfold-Timing
// header, and whether the header carries the stage at all.
func timingStage(header, stage string) (float64, bool) {
	for _, part := range strings.Split(header, ", ") {
		if v, ok := strings.CutPrefix(part, stage+";dur="); ok {
			ms, err := strconv.ParseFloat(v, 64)
			return ms, err == nil
		}
	}
	return 0, false
}

// TestScoreTimedOutsideRelaxation pins that candidate scoring is attributed
// once, outside the relaxation phase: an elite /v1/route answer never scores
// (the router and simulator pick the winner), so its timing header has no
// score stage; an unbatched /v1/guidance answer scores after relaxation, so
// its score stage is positive and its relax.candidates span is a sibling of
// the relaxation span, not a child whose time relax would count again.
func TestScoreTimedOutsideRelaxation(t *testing.T) {
	m := trainedModel(t)
	s := New(m, Config{Opts: testOpts(), Telemetry: obs.New(obs.Options{Seed: 17}), BatchWindow: 0})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/route", `{"bench":"OTA1-A"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route status %d body %s", resp.StatusCode, body)
	}
	var rr RouteResponse
	if err := json.Unmarshal(body, &rr); err != nil || rr.Rung != "elite" {
		t.Fatalf("route answer rung %q (err %v), want elite: %s", rr.Rung, err, body)
	}
	timing := resp.Header.Get(HeaderTiming)
	if _, ok := timingStage(timing, "relax"); !ok {
		t.Errorf("route timing header %q has no relax stage", timing)
	}
	if strings.Contains(timing, "score;dur=") {
		t.Errorf("route timing header %q scores candidates no one reads", timing)
	}

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/guidance", strings.NewReader(`{"bench":"OTA1-A"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderTraceparent, obs.FormatTraceparent(obs.TraceContext{TraceID: strings.Repeat("cd", 16), SpanID: 0x17}))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("guidance status %d err %v body %s", resp.StatusCode, err, body)
	}
	timing = resp.Header.Get(HeaderTiming)
	if ms, ok := timingStage(timing, "score"); !ok || ms <= 0 {
		t.Errorf("guidance timing header %q has no positive score stage", timing)
	}
	if _, ok := timingStage(timing, "relax"); !ok {
		t.Errorf("guidance timing header %q has no relax stage", timing)
	}
	sums, err := obs.DecodeSpanSummaries(resp.Trailer.Get(TrailerSpans))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.SpanSummary{}
	for _, sp := range sums {
		byName[sp.Name] = sp
	}
	relaxSpan, okR := byName["relaxation"]
	score, okS := byName["relax.candidates"]
	if !okR || !okS {
		t.Fatalf("trailer lacks relaxation or relax.candidates span: %+v", sums)
	}
	if score.Parent == relaxSpan.ID || score.Parent != relaxSpan.Parent {
		t.Errorf("relax.candidates parent %d, want the relaxation span's sibling under %d (relaxation is %d)",
			score.Parent, relaxSpan.Parent, relaxSpan.ID)
	}
}
