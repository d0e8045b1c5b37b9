package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"analogfold/internal/cluster"
	"analogfold/internal/gnn3d"
	"analogfold/internal/serve"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestEveryMetricEmitted runs every workload at the short scale in both
// modes and requires the result line to carry exactly the metrics
// BENCHMARK.json names for that mode, each with its unit, and every
// operation to pass its checks. It covers route_serve too, which BENCHMARK.json
// leaves out (README.md says why).
func TestEveryMetricEmitted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for trace, want := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", name, trace), func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "1", "--trace", fmt.Sprint(trace), "--short"}
				if code := run(context.Background(), args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, errb.String())
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !nameRE.MatchString(m.Name):
						t.Errorf("metric name %q does not match %s", m.Name, nameRE)
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit || got.Unit == "":
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// fakeCoordinator answers every request from canned bodies, with the cache
// verdict a real replica would give, and lets tamper rewrite one answer.
func fakeCoordinator(t *testing.T, answer func(bench string, seed int64) any, tamper func(i int, body []byte) []byte) *deployment {
	var (
		mu   sync.Mutex
		seen = map[string]bool{}
		n    int
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.RouteRequest
		b, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(b, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body, err := serve.MarshalBody(answer(req.Bench, req.Seed))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		mu.Lock()
		key := fmt.Sprintf("%s/%d", req.Bench, req.Seed)
		verdict := "hit"
		if !seen[key] {
			verdict = "miss"
		}
		seen[key] = true
		body = tamper(n, body)
		n++
		mu.Unlock()
		w.Header().Set(serve.HeaderCache, verdict)
		w.Header().Set(cluster.HeaderReplica, replicaName(0))
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return &deployment{url: ts.URL, client: ts.Client()}
}

// TestTamperedBodyFails sends each serving workload's requests, one at a
// time, to a coordinator whose answers are valid except one tampered body,
// and requires exactly that request to count as a failed operation.
func TestTamperedBodyFails(t *testing.T) {
	sc := shortScale
	cases := []struct {
		name    string
		traffic traffic
		answer  func(bench string, seed int64) any
		tamper  int
		edit    func([]byte) []byte
	}{{
		name: "guidance hit differs from its miss", traffic: traffic{oneClient, guidanceRequests, checkGuidance, guidanceQuality},
		answer: func(bench string, seed int64) any {
			return serve.GuidanceResponse{
				Bench: bench, Seed: seed, Rung: "elite", CMax: 2,
				Guides:      [][][3]float64{{{1, 1, 1}}},
				Predictions: [][gnn3d.NumMetrics]float64{{1, 2, 3, 4, 5}},
			}
		},
		// Tamper with the first repeat of a key: a hit that must equal the
		// key's first miss.
		tamper: -1,
		edit:   func(b []byte) []byte { return bytes.Replace(b, []byte(`"cmax": 2`), []byte(`"cmax": 2.5`), 1) },
	}, {
		name: "route body truncated", traffic: traffic{nproc, routeRequests, checkRoutes, routeQuality},
		answer: func(bench string, seed int64) any {
			return serve.RouteResponse{
				Bench: bench, Seed: seed, Rung: "elite", WirelengthNm: 1000,
				OffsetUV: 1, CMRRdB: 2, BandwidthMHz: 3, GainDB: 4, NoiseUVrms: 5,
			}
		},
		tamper: 2,
		edit:   func(b []byte) []byte { return b[:len(b)/2] },
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reqs := c.traffic.requests(sc, 7)[:40]
			tamper := c.tamper
			seen := map[string]bool{}
			for i := 0; tamper < 0 && i < len(reqs); i++ {
				if seen[reqs[i].key()] {
					tamper = i
				}
				seen[reqs[i].key()] = true
			}
			if tamper < 0 {
				t.Fatal("no repeated key among the first requests")
			}
			d := fakeCoordinator(t, c.answer, func(i int, b []byte) []byte {
				if i == tamper {
					return c.edit(b)
				}
				return b
			})
			outs, _ := closedLoop(context.Background(), d, reqs, 0, 1, 0)
			rep := newReport(io.Discard)
			for _, err := range c.traffic.check(sc, reqs, outs) {
				rep.op(err)
			}
			if rep.attempted != len(reqs) || rep.failed != 1 {
				t.Fatalf("attempted %d failed %d, want %d and 1", rep.attempted, rep.failed, len(reqs))
			}
			if errs := c.traffic.check(sc, reqs, outs); errs[tamper] == nil {
				t.Errorf("tampered request %d passed its check", tamper)
			}
		})
	}
}

// TestSameAnswerIgnoresOnlyRuntime pins the traced-run comparison: bodies
// that differ only in runtime_ms are the same answer; any other difference
// is not.
func TestSameAnswerIgnoresOnlyRuntime(t *testing.T) {
	a := []byte(`{"bench": "OTA1-A", "seed": 3, "runtime_ms": 812.5, "offset_uv": 1.5}`)
	b := []byte(`{"bench": "OTA1-A", "seed": 3, "runtime_ms": 799.25, "offset_uv": 1.5}`)
	c := []byte(`{"bench": "OTA1-A", "seed": 3, "runtime_ms": 812.5, "offset_uv": 1.50001}`)
	if !sameAnswer(a, b) {
		t.Error("bodies differing only in runtime_ms compare unequal")
	}
	if sameAnswer(a, c) {
		t.Error("bodies differing in offset_uv compare equal")
	}
}

// TestTail pins the tail rule: the highest percentile with at least ten
// samples beyond it, or the maximum when there are ten samples or fewer.
func TestTail(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := tailOf(xs); got.Value != 90 || got.Beyond != 10 || got.Percentile != 90 {
		t.Errorf("tail of 1..100 = %+v, want 90 at p90 with 10 beyond", got)
	}
	if got := tailOf(xs[:5]); got.Value != 100 || got.Percentile != 100 {
		t.Errorf("tail of five samples = %+v, want their maximum", got)
	}
}
