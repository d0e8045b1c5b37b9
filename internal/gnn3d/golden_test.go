package gnn3d_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"analogfold/internal/gnn3d"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/relax"
	"analogfold/internal/route"
	"analogfold/internal/tech"
	"analogfold/internal/tensor"
)

// The model golden suite pins the exact numerical behavior of the 3DGNN
// inference stack on OTA1–OTA4: Predict outputs, the potential and its
// gradient (the relaxation's objective), full relax trajectories, and the
// routed result driven by the derived guidance. The file
// testdata/golden_model.json was recorded from the pre-optimization
// (allocating, unfused, sequential) implementation, so any divergence means
// a kernel or scheduling change altered floating-point behavior instead of
// just speed. Regenerate deliberately with:
//
//	go test ./internal/gnn3d/ -run TestModelGoldenEquivalence -update-golden
var updateModelGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_model.json from the current model stack")

// modelGoldenEntry is one benchmark's pinned inference outcome.
type modelGoldenEntry struct {
	// Predict on uniform and on a sampled guidance (denormalized metrics).
	PredUniform [gnn3d.NumMetrics]float64 `json:"pred_uniform"`
	PredSample  [gnn3d.NumMetrics]float64 `json:"pred_sample"`

	// Potential value and ∂V/∂C digest at the sampled guidance — this pins
	// the backward pass bit-for-bit, not just the forward.
	Potential  float64 `json:"potential"`
	GradDigest string  `json:"grad_digest"`

	// Full relaxation outcome: exact pool potentials and a digest over every
	// element of every derived guidance set.
	RelaxPotentials []float64 `json:"relax_potentials"`
	GuidesDigest    string    `json:"guides_digest"`
	RelaxEvals      int       `json:"relax_evals"`

	// Routed outcome under the best derived guidance (OTA1 only — the
	// model → relax → route chain end to end).
	RouteWirelengthNm int    `json:"route_wirelength_nm,omitempty"`
	RouteVias         int    `json:"route_vias,omitempty"`
	RouteCellsDigest  string `json:"route_cells_digest,omitempty"`
}

func modelGoldenPath() string { return filepath.Join("testdata", "golden_model.json") }

// floatDigest hashes the exact bit patterns of a float sequence.
func floatDigest(xs ...[]float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range xs {
		for _, v := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hexSum(h.Sum64())
}

// goldenGraph builds the heterogeneous routing graph plus the routing grid
// for one benchmark, deterministically.
func goldenGraph(t testing.TB, c *netlist.Circuit, seed int64) (*hetgraph.Graph, *grid.Grid) {
	t.Helper()
	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: seed, Iterations: 1500})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	g, err := grid.Build(p, tech.Sim40())
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	hg, err := hetgraph.Build(g, hetgraph.Config{})
	if err != nil {
		t.Fatalf("hetgraph: %v", err)
	}
	return hg, g
}

// goldenModels memoizes goldenModel per circuit and seed. Training dominates
// this package's run time (minutes under -race), the OTA1 fixture serves five
// tests, and no test trains a fixture further: they only run inference on it.
var goldenModels sync.Map // "<circuit>/<seed>" → *gnn3d.Model

// goldenModel fits a small model on a smooth synthetic objective (the same
// fixture shape as the relax tests) so the potential landscape has structure.
func goldenModel(t testing.TB, g *hetgraph.Graph, seed int64) *gnn3d.Model {
	t.Helper()
	key := fmt.Sprintf("%s/%d", g.Circuit.Name, seed)
	if m, ok := goldenModels.Load(key); ok {
		return m.(*gnn3d.Model)
	}
	m := gnn3d.New(gnn3d.Config{Seed: seed, Hidden: 16, Layers: 2, RBFBins: 8})
	rng := rand.New(rand.NewSource(seed))
	n := len(g.Circuit.Nets)
	var samples []gnn3d.Sample
	for i := 0; i < 20; i++ {
		gd := guidance.Sample(n, rng, 2)
		ct := tensor.New(n, 3)
		copy(ct.Data, gd.Flat())
		sx := 0.0
		for j := 0; j < n; j++ {
			sx += ct.At(j, 0) + 0.5*ct.At(j, 1)
		}
		var y [gnn3d.NumMetrics]float64
		y[0] = 100 * sx
		y[1] = 50 + sx
		y[2] = 40 + 2*sx
		y[3] = 30 + sx
		y[4] = 300 * sx
		samples = append(samples, gnn3d.Sample{C: ct, Y: y})
	}
	if _, err := m.Fit(context.Background(), g, samples, gnn3d.TrainConfig{Epochs: 15, LR: 5e-3, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	goldenModels.Store(key, m)
	return m
}

// goldenRelaxConfig is the fixed relaxation used by the golden suite: small
// enough to run in CI, large enough to exercise pool seeding, rounds and
// multi-candidate derivation.
func goldenRelaxConfig() relax.Config {
	return relax.Config{Restarts: 6, MaxIter: 12, NPool: 4, NDerive: 3, RoundSize: 3, Seed: 21}
}

// sampledGuidance is the fixed non-uniform guidance each benchmark's Predict
// and Potential are pinned at.
func sampledGuidance(n int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	gd := guidance.Sample(n, rng, 2)
	return tensor.FromSlice(gd.Flat(), n, 3)
}

// modelGoldenEntryFor runs the full pinned pipeline for one benchmark.
func modelGoldenEntryFor(t testing.TB, name string, c *netlist.Circuit, seed int64, cfg relax.Config) modelGoldenEntry {
	t.Helper()
	hg, gr := goldenGraph(t, c, seed)
	m := goldenModel(t, hg, seed)
	n := len(c.Nets)

	var e modelGoldenEntry
	uni := tensor.New(n, 3)
	uni.Fill(1)
	pu, err := m.Predict(hg, uni)
	if err != nil {
		t.Fatalf("%s: predict uniform: %v", name, err)
	}
	e.PredUniform = pu

	cs := sampledGuidance(n, seed+100)
	ps, err := m.Predict(hg, cs)
	if err != nil {
		t.Fatalf("%s: predict sample: %v", name, err)
	}
	e.PredSample = ps

	v, grad, err := relax.Potential(m, hg, cs.Clone(), cfg)
	if err != nil {
		t.Fatalf("%s: potential: %v", name, err)
	}
	e.Potential = v
	e.GradDigest = floatDigest(grad.Data)

	res, err := relax.Optimize(context.Background(), m, hg, cfg)
	if err != nil {
		t.Fatalf("%s: optimize: %v", name, err)
	}
	e.RelaxPotentials = append([]float64(nil), res.Potentials...)
	var flats [][]float64
	for _, gset := range res.Guides {
		flats = append(flats, gset.Flat())
	}
	e.GuidesDigest = floatDigest(flats...)
	e.RelaxEvals = res.Evals

	if name == "OTA1" {
		rr, err := route.Route(gr, res.Guides[0], route.Config{})
		if err != nil {
			t.Fatalf("%s: route: %v", name, err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for ni, cells := range rr.NetCells {
			binary.LittleEndian.PutUint32(buf[:4], uint32(ni))
			h.Write(buf[:4])
			for _, cell := range cells {
				binary.LittleEndian.PutUint64(buf[:], uint64(gr.CellIndex(cell)))
				h.Write(buf[:])
			}
		}
		e.RouteWirelengthNm = rr.WirelengthNm
		e.RouteVias = rr.Vias
		e.RouteCellsDigest = hexSum(h.Sum64())
	}
	return e
}

// TestModelGoldenTapeAndWorkers asserts the relaxation outcome is invariant —
// bit for bit — across worker counts, with its candidates scored through
// relax.ScoreResults. Combined with TestModelGoldenEquivalence (which pins
// the default strategy against the pre-optimization recording),
// TestEvaluatorMatchesPotential (tape sessions against the reference
// potential) and TestPredictBatchMatchesSequential (stacked against
// sequential scoring), this proves no execution strategy changes the numbers.
func TestModelGoldenTapeAndWorkers(t *testing.T) {
	hg, _ := goldenGraph(t, netlist.OTA1(), 11)
	m := goldenModel(t, hg, 11)

	run := func(mut func(*relax.Config)) *relax.Result {
		cfg := goldenRelaxConfig()
		mut(&cfg)
		res, err := relax.Optimize(context.Background(), m, hg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := relax.ScoreResults(context.Background(), m, hg, []*relax.Result{res}); err != nil {
			t.Fatal(err)
		}
		return res
	}
	digest := func(r *relax.Result) string {
		var flats [][]float64
		for _, gset := range r.Guides {
			flats = append(flats, gset.Flat())
		}
		flats = append(flats, r.Potentials)
		for _, p := range r.Predictions {
			flats = append(flats, p[:])
		}
		return floatDigest(flats...)
	}

	ref := run(func(*relax.Config) {})
	for _, v := range []struct {
		name string
		mut  func(*relax.Config)
	}{
		{"Workers=1", func(c *relax.Config) { c.Workers = 1 }},
		{"Workers=8", func(c *relax.Config) { c.Workers = 8 }},
	} {
		got := run(v.mut)
		if d, rd := digest(got), digest(ref); d != rd {
			t.Errorf("%s: outcome digest %s != default strategy %s", v.name, d, rd)
		}
		if got.Evals != ref.Evals {
			t.Errorf("%s: %d evals, default strategy %d", v.name, got.Evals, ref.Evals)
		}
	}

	// The scored Predictions must equal a by-hand sequential Predict over the
	// returned guidance sets — the batched scoring path end to end.
	if len(ref.Predictions) != len(ref.Guides) {
		t.Fatalf("%d predictions for %d guides", len(ref.Predictions), len(ref.Guides))
	}
	n := len(hg.Circuit.Nets)
	for i, gset := range ref.Guides {
		want, err := m.Predict(hg, tensor.FromSlice(gset.Flat(), n, 3))
		if err != nil {
			t.Fatal(err)
		}
		if ref.Predictions[i] != want {
			t.Errorf("guide %d: batched prediction %v != sequential %v", i, ref.Predictions[i], want)
		}
	}
}

func hexSum(sum uint64) string {
	const hexdigits = "0123456789abcdef"
	var out [16]byte
	for i := 0; i < 16; i++ {
		out[15-i] = hexdigits[sum&0xf]
		sum >>= 4
	}
	return string(out[:])
}

func modelGoldenBenchmarks() []struct {
	Name string
	C    *netlist.Circuit
	Seed int64
} {
	return []struct {
		Name string
		C    *netlist.Circuit
		Seed int64
	}{
		{"OTA1", netlist.OTA1(), 11},
		{"OTA2", netlist.OTA2(), 12},
		{"OTA3", netlist.OTA3(), 13},
		{"OTA4", netlist.OTA4(), 14},
	}
}

// TestModelGoldenEquivalence asserts the inference stack reproduces the
// pinned pre-optimization outputs bit-for-bit on OTA1–OTA4.
func TestModelGoldenEquivalence(t *testing.T) {
	cfg := goldenRelaxConfig()
	got := map[string]modelGoldenEntry{}
	for _, b := range modelGoldenBenchmarks() {
		got[b.Name] = modelGoldenEntryFor(t, b.Name, b.C, b.Seed, cfg)
	}

	if *updateModelGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelGoldenPath(), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", modelGoldenPath())
		return
	}

	raw, err := os.ReadFile(modelGoldenPath())
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want map[string]modelGoldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from run", name)
			continue
		}
		for i := 0; i < gnn3d.NumMetrics; i++ {
			if g.PredUniform[i] != w.PredUniform[i] {
				t.Errorf("%s: pred_uniform[%d] = %.17g, want %.17g", name, i, g.PredUniform[i], w.PredUniform[i])
			}
			if g.PredSample[i] != w.PredSample[i] {
				t.Errorf("%s: pred_sample[%d] = %.17g, want %.17g", name, i, g.PredSample[i], w.PredSample[i])
			}
		}
		if g.Potential != w.Potential {
			t.Errorf("%s: potential = %.17g, want %.17g", name, g.Potential, w.Potential)
		}
		if g.GradDigest != w.GradDigest {
			t.Errorf("%s: gradient digest %s, want %s — backward pass diverged", name, g.GradDigest, w.GradDigest)
		}
		if len(g.RelaxPotentials) != len(w.RelaxPotentials) {
			t.Errorf("%s: %d relax potentials, want %d", name, len(g.RelaxPotentials), len(w.RelaxPotentials))
		} else {
			for i := range w.RelaxPotentials {
				if g.RelaxPotentials[i] != w.RelaxPotentials[i] {
					t.Errorf("%s: relax potential[%d] = %.17g, want %.17g", name, i, g.RelaxPotentials[i], w.RelaxPotentials[i])
				}
			}
		}
		if g.GuidesDigest != w.GuidesDigest {
			t.Errorf("%s: guides digest %s, want %s — relax trajectory diverged", name, g.GuidesDigest, w.GuidesDigest)
		}
		if g.RelaxEvals != w.RelaxEvals {
			t.Errorf("%s: relax evals %d, want %d", name, g.RelaxEvals, w.RelaxEvals)
		}
		if g.RouteCellsDigest != w.RouteCellsDigest || g.RouteWirelengthNm != w.RouteWirelengthNm || g.RouteVias != w.RouteVias {
			t.Errorf("%s: routed outcome diverged: wl=%d vias=%d digest=%s, want wl=%d vias=%d digest=%s",
				name, g.RouteWirelengthNm, g.RouteVias, g.RouteCellsDigest,
				w.RouteWirelengthNm, w.RouteVias, w.RouteCellsDigest)
		}
	}
}
