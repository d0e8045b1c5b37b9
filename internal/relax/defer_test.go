package relax

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"analogfold/internal/netlist"
	"analogfold/internal/obs"
	"analogfold/internal/tensor"
)

// TestDeferredScoringParity pins the split between deriving and scoring that
// every caller depends on: Optimize returns unscored guidance and touches no
// candidate counter, ScoreResults on one result equals a by-hand Predict per
// guide, and stacking that result with another in one wave changes no row —
// ForwardBatch is row-independent, so wave composition cannot change any
// response.
func TestDeferredScoringParity(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 9)
	m := trainedModel(t, g, 9)
	cfg := Config{Restarts: 3, MaxIter: 10, NDerive: 2, Seed: 9}

	reg := obs.NewRegistry()
	ctx := obs.WithTelemetry(context.Background(), obs.New(obs.Options{Seed: 9, Registry: reg}))
	solo, err := Optimize(ctx, m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Predictions != nil {
		t.Fatalf("Optimize scored its result: %d predictions", len(solo.Predictions))
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "analogfold_relax_evals_total") {
		t.Fatalf("relaxation counters missing from the registry:\n%s", prom.String())
	}
	if strings.Contains(prom.String(), "analogfold_relax_candidates_") {
		t.Fatalf("Optimize touched a candidate-scoring counter:\n%s", prom.String())
	}

	if err := ScoreResults(context.Background(), m, g, []*Result{solo}); err != nil {
		t.Fatal(err)
	}
	if len(solo.Predictions) != len(solo.Guides) {
		t.Fatalf("%d predictions for %d guides", len(solo.Predictions), len(solo.Guides))
	}
	for k, gd := range solo.Guides {
		want, err := m.Predict(g, tensor.FromSlice(gd.Flat(), len(gd.PerNet), 3))
		if err != nil {
			t.Fatal(err)
		}
		if solo.Predictions[k] != want {
			t.Fatalf("candidate %d: scored %v, by-hand Predict %v", k, solo.Predictions[k], want)
		}
	}

	// Stack a fresh copy of the same result with a neighbor from a different
	// seed: one shared scoring call, same rows bit for bit.
	ocfg := cfg
	ocfg.Seed = 10
	other, err := Optimize(context.Background(), m, g, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Optimize(context.Background(), m, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ScoreResults(ctx, m, g, []*Result{other, again}); err != nil {
		t.Fatal(err)
	}
	for k := range solo.Predictions {
		if again.Predictions[k] != solo.Predictions[k] {
			t.Fatalf("stacked scoring diverges from solo at candidate %d", k)
		}
	}
	if n := reg.Counter("analogfold_relax_score_waves_total").Value(); n != 1 {
		t.Fatalf("score waves = %d, want 1 shared PredictBatch", n)
	}
	want := int64(len(other.Guides) + len(again.Guides))
	if n := reg.Counter("analogfold_relax_candidates_batched_total").Value(); n != want {
		t.Fatalf("batched candidates = %d, want %d", n, want)
	}
}

// TestScoreResultsEmpty: scoring nothing is a no-op, not an error.
func TestScoreResultsEmpty(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 9)
	m := trainedModel(t, g, 9)
	if err := ScoreResults(context.Background(), m, g, nil); err != nil {
		t.Fatal(err)
	}
	if err := ScoreResults(context.Background(), m, g, []*Result{{}}); err != nil {
		t.Fatal(err)
	}
}
