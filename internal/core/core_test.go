package core

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/route"
)

// quickOpts keeps the flow fast enough for unit tests while exercising every
// stage.
func quickOpts() Options {
	return Options{
		Samples: 10, TrainEpochs: 6, RelaxRestarts: 3, NDerive: 2,
		PlaceIters: 1200, VAECorpus: 2, VAEEpochs: 8, Seed: 1,
	}
}

func TestFlowSchematicAndMagical(t *testing.T) {
	f, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "OTA1-A" {
		t.Errorf("Name = %s", f.Name())
	}
	sch, err := f.Schematic()
	if err != nil {
		t.Fatal(err)
	}
	mag, err := f.RunMagical(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if mag.Metrics.BandwidthMHz <= 0 || mag.Metrics.BandwidthMHz > sch.BandwidthMHz*1.02 {
		t.Errorf("magical UGB %.2f vs schematic %.2f", mag.Metrics.BandwidthMHz, sch.BandwidthMHz)
	}
	if mag.Runtime <= 0 || mag.WirelengthNm <= 0 {
		t.Errorf("outcome bookkeeping empty: %+v", mag)
	}
}

func TestFullPipelineOTA1(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	f, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	mag, err := f.RunMagical(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := f.RunGenius(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ours, err := f.RunAnalogFold(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*Outcome{mag, gen, ours} {
		if o.Metrics.BandwidthMHz <= 0 || o.Metrics.NoiseUVrms <= 0 {
			t.Errorf("%s produced degenerate metrics: %+v", o.Method, o.Metrics)
		}
	}
	// AnalogFold's stage times must cover all Figure-5 stages.
	ts := ours.Times
	if ts.ConstructDatabase <= 0 || ts.ModelTraining <= 0 || ts.GuideGeneration <= 0 || ts.GuidedRouting <= 0 {
		t.Errorf("missing stage times: %+v", ts)
	}
	// The ladder bottom (no model) routes inside the guided-routing phase
	// and never relaxes.
	bottom, err := f.RunAnalogFoldWarm(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bt := bottom.Times; bt.GuidedRouting <= 0 || bt.GuideGeneration != 0 || bottom.Runtime != bt.GuidedRouting {
		t.Errorf("ladder-bottom stage times: %+v runtime %v", bt, bottom.Runtime)
	}
	// Model training dominates the one-time cost (Figure 5's shape).
	bd := BreakdownOf(ts)
	if bd.ModelTrainingPct+bd.ConstructDBPct < bd.GuidedRoutingPct {
		t.Errorf("learning stages unexpectedly cheap: %+v", bd)
	}
}

func TestFormatRowAndSummary(t *testing.T) {
	mk := func(bw float64) *Outcome {
		o := &Outcome{Method: MethodMagical, Runtime: time.Second}
		o.Metrics.OffsetUV = 100
		o.Metrics.CMRRdB = 80
		o.Metrics.BandwidthMHz = bw
		o.Metrics.GainDB = 40
		o.Metrics.NoiseUVrms = 300
		return o
	}
	row := &Row{Bench: "OTA1-A", Magical: mk(50), Genius: mk(49), Ours: mk(55)}
	row.Schematic.CMRRdB = 155
	row.Schematic.BandwidthMHz = 108
	out := FormatRow(row)
	for _, frag := range []string{"OTA1-A", "Offset Voltage", "CMRR", "BandWidth", "DC Gain", "Noise", "Runtime"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatRow missing %q:\n%s", frag, out)
		}
	}

	s := Summarize([]*Row{row})
	if s.Ratios[2][0] != 1 {
		t.Errorf("magical ratio must be 1, got %g", s.Ratios[2][0])
	}
	if s.Ratios[2][2] < 1.09 || s.Ratios[2][2] > 1.11 {
		t.Errorf("ours bandwidth ratio = %g, want 1.10", s.Ratios[2][2])
	}
	sum := FormatSummary(s)
	if !strings.Contains(sum, "normalized to MagicalRoute") {
		t.Errorf("summary header missing:\n%s", sum)
	}
}

func TestBreakdownPercentagesSum(t *testing.T) {
	ts := StageTimes{
		Placement:         1 * time.Second,
		ConstructDatabase: 2 * time.Second,
		ModelTraining:     5 * time.Second,
		GuideGeneration:   1 * time.Second,
		GuidedRouting:     1 * time.Second,
	}
	b := BreakdownOf(ts)
	total := b.PlacementPct + b.ConstructDBPct + b.ModelTrainingPct + b.GuideGenerationPct + b.GuidedRoutingPct
	if total < 99.9 || total > 100.1 {
		t.Errorf("percentages sum to %g", total)
	}
	if !strings.Contains(FormatBreakdown(b), "Model Training") {
		t.Errorf("FormatBreakdown missing stage names")
	}
	if (BreakdownOf(StageTimes{}) != Breakdown{}) {
		t.Errorf("zero times must give zero breakdown")
	}
}

func TestTable2BenchmarkList(t *testing.T) {
	bs := Table2Benchmarks()
	if len(bs) != 10 {
		t.Fatalf("Table 2 has 10 benchmarks, got %d", len(bs))
	}
	names := map[string]int{}
	for _, b := range bs {
		names[b.Circuit.Name]++
	}
	if names["OTA1"] != 3 || names["OTA2"] != 3 || names["OTA3"] != 2 || names["OTA4"] != 2 {
		t.Errorf("benchmark multiplicities wrong: %v", names)
	}
}

func TestRunAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	f, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.RunAblation(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Names) != 6 {
		t.Fatalf("expected 6 variants, got %d", len(a.Names))
	}
	for i, n := range a.Names {
		if a.Potential[i] == 0 && n != "full" {
			t.Errorf("variant %s has zero potential", n)
		}
		if a.Evals[i] <= 0 {
			t.Errorf("variant %s has no evaluations", n)
		}
	}
	out := FormatAblation(a)
	for _, frag := range []string{"no-rbf", "no-pool", "gradient-descent", "2d-distance"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatAblation missing %q", frag)
		}
	}
}

func TestDeriveGuidanceFeasible(t *testing.T) {
	if testing.Short() {
		t.Skip("derive in -short mode")
	}
	f, err := NewFlow(netlist.OTA2(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	gd, err := f.DeriveGuidance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := gd.Validate(); err != nil {
		t.Errorf("derived guidance infeasible: %v", err)
	}
	if len(gd.PerNet) != len(f.Circuit.Nets) {
		t.Errorf("guidance size %d", len(gd.PerNet))
	}
}

func TestJSONReport(t *testing.T) {
	mk := func() *Outcome {
		o := &Outcome{Method: MethodMagical, Runtime: 2 * time.Second, WirelengthNm: 250000, Vias: 80}
		o.Metrics.OffsetUV = 100
		o.Metrics.CMRRdB = 80
		o.Metrics.BandwidthMHz = 50
		o.Metrics.GainDB = 40
		o.Metrics.NoiseUVrms = 300
		return o
	}
	rows := []*Row{
		{Bench: "OTA1-A", Magical: mk(), Genius: mk(), Ours: mk()},
		{Bench: "OTA1-B", Magical: mk(), Genius: mk(), Ours: mk()},
	}
	rep := BuildJSONReport(rows, time.Unix(0, 0))
	if len(rep.Rows) != 2 || len(rep.Summary.Ratios) != 6 {
		t.Fatalf("report shape wrong: %d rows, %d ratios", len(rep.Rows), len(rep.Summary.Ratios))
	}
	path := t.TempDir() + "/r.json"
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back JSONReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rows[0].Methods["MagicalRoute"].Vias != 80 {
		t.Errorf("round trip lost data")
	}
}

func TestHeadlineImprovements(t *testing.T) {
	mk := func(off, cmrr, bw, gain, noise float64) *Outcome {
		o := &Outcome{}
		o.Metrics.OffsetUV = off
		o.Metrics.CMRRdB = cmrr
		o.Metrics.BandwidthMHz = bw
		o.Metrics.GainDB = gain
		o.Metrics.NoiseUVrms = noise
		return o
	}
	rows := []*Row{
		{Bench: "X-A", Genius: mk(1000, 80, 50, 40, 300), Ours: mk(400, 95, 55, 45, 250), Magical: mk(900, 82, 51, 41, 310)},
		{Bench: "X-B", Genius: mk(500, 90, 60, 50, 200), Ours: mk(450, 85, 90, 48, 210), Magical: mk(520, 89, 61, 49, 205)},
	}
	h := HeadlineImprovements(rows)
	if h.OffsetUV != 600 || h.Bench[0] != "X-A" {
		t.Errorf("offset headline = %g (%s)", h.OffsetUV, h.Bench[0])
	}
	if h.CMRRdB != 15 || h.BandwidthMHz != 30 {
		t.Errorf("CMRR/BW headline = %g/%g", h.CMRRdB, h.BandwidthMHz)
	}
	// Metrics where ours never wins report zero, never negative.
	if h.GainDB != 5 || h.NoiseUVrms != 50 {
		t.Errorf("gain/noise headline = %g/%g", h.GainDB, h.NoiseUVrms)
	}
	out := FormatHeadline(h)
	if !strings.Contains(out, "X-A") || !strings.Contains(out, "Offset Voltage") {
		t.Errorf("FormatHeadline incomplete:\n%s", out)
	}
}

func TestSummarizeSkipsNonPositiveCells(t *testing.T) {
	mk := func(off float64) *Outcome {
		o := &Outcome{Runtime: time.Second}
		o.Metrics.OffsetUV = off
		o.Metrics.CMRRdB = 80
		o.Metrics.BandwidthMHz = 50
		o.Metrics.GainDB = 40
		o.Metrics.NoiseUVrms = 300
		return o
	}
	rows := []*Row{
		{Bench: "A", Magical: mk(100), Genius: mk(0), Ours: mk(50)}, // genius offset 0: skip offset cell
		{Bench: "B", Magical: mk(200), Genius: mk(100), Ours: mk(100)},
	}
	s := Summarize(rows)
	// Offset ratio computed only from row B: genius 0.5, ours 0.5.
	if s.Ratios[0][1] < 0.49 || s.Ratios[0][1] > 0.51 {
		t.Errorf("offset ratio = %g, want 0.5 from the single valid row", s.Ratios[0][1])
	}
}

func TestSummarizeEmptyRows(t *testing.T) {
	s := Summarize(nil)
	for k := 0; k < 6; k++ {
		for m := 0; m < 3; m++ {
			if s.Ratios[k][m] != 1 {
				t.Errorf("empty summary must default to 1, got %g", s.Ratios[k][m])
			}
		}
	}
}

func TestCacheKeyDistinguishesConfigs(t *testing.T) {
	f1, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	o2 := quickOpts()
	o2.Seed = 2
	f2, err := NewFlow(netlist.OTA1(), place.ProfileA, o2)
	if err != nil {
		t.Fatal(err)
	}
	f3, err := NewFlow(netlist.OTA1(), place.ProfileB, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if f1.CacheKey() == f2.CacheKey() || f1.CacheKey() == f3.CacheKey() {
		t.Errorf("cache keys collide: %s / %s / %s", f1.CacheKey(), f2.CacheKey(), f3.CacheKey())
	}
}

func TestGuidanceTransferAcrossPlacements(t *testing.T) {
	// The paper trains per design+placement. Derived guidance applied to a
	// *different* placement of the same circuit must still route legally —
	// the guidance degrades gracefully rather than breaking the router.
	if testing.Short() {
		t.Skip("transfer test in -short mode")
	}
	src, err := NewFlow(netlist.OTA1(), place.ProfileA, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	gd, err := src.DeriveGuidance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dstOpts := quickOpts()
	dstOpts.Seed = 99 // different placement
	dst, err := NewFlow(netlist.OTA1(), place.ProfileB, dstOpts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := route.Route(dst.Grid, gd, route.Config{})
	if err != nil {
		t.Fatalf("transferred guidance broke routing: %v", err)
	}
	m, err := dst.evaluateRouted(res)
	if err != nil {
		t.Fatal(err)
	}
	if m.BandwidthMHz <= 0 || m.OffsetUV <= 0 {
		t.Errorf("degenerate transferred metrics: %+v", m)
	}
}
