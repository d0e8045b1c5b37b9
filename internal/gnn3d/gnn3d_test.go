package gnn3d

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"analogfold/internal/ad"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/hetgraph"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/tech"
	"analogfold/internal/tensor"
)

func buildGraph(t testing.TB, c *netlist.Circuit, seed int64) *hetgraph.Graph {
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
	return hg
}

func uniformC(n int) *tensor.Tensor {
	c := tensor.New(n, 3)
	c.Fill(1)
	return c
}

func TestForwardShape(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 1)
	m := New(Config{Seed: 1})
	out, err := m.Forward(g, ad.Const(uniformC(len(c.Nets))))
	if err != nil {
		t.Fatal(err)
	}
	if out.Value.Shape[0] != 1 || out.Value.Shape[1] != NumMetrics {
		t.Fatalf("output shape %v", out.Value.Shape)
	}
	for _, v := range out.Value.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite prediction %v", out.Value.Data)
		}
	}
}

func TestForwardRejectsWrongGuidance(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 2)
	m := New(Config{Seed: 1})
	if _, err := m.Forward(g, ad.Const(tensor.New(3, 3))); err == nil {
		t.Errorf("wrong guidance shape must be rejected")
	}
}

func TestGuidanceChangesPrediction(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 3)
	m := New(Config{Seed: 2})
	c1 := uniformC(len(c.Nets))
	c2 := uniformC(len(c.Nets))
	c2.Fill(0.3)
	y1, err := m.Predict(g, c1)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := m.Predict(g, c2)
	if err != nil {
		t.Fatal(err)
	}
	if y1 == y2 {
		t.Errorf("guidance does not influence the prediction")
	}
}

func TestGradientFlowsToGuidance(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 4)
	m := New(Config{Seed: 3})
	cv := ad.Leaf(uniformC(len(c.Nets)), true)
	out, err := m.Forward(g, cv)
	if err != nil {
		t.Fatal(err)
	}
	if err := ad.Backward(ad.Sum(out)); err != nil {
		t.Fatal(err)
	}
	if cv.Grad == nil || cv.Grad.Norm() == 0 {
		t.Fatalf("no gradient reached the guidance input")
	}
}

func TestGuidanceGradientMatchesFiniteDifference(t *testing.T) {
	// The relaxation's correctness hinges on ∂f/∂C: check it numerically on
	// a few coordinates.
	c := netlist.OTA1()
	g := buildGraph(t, c, 5)
	m := New(Config{Seed: 4})
	cT := uniformC(len(c.Nets))
	cv := ad.Leaf(cT, true)
	out, err := m.Forward(g, cv)
	if err != nil {
		t.Fatal(err)
	}
	if err := ad.Backward(ad.Sum(out)); err != nil {
		t.Fatal(err)
	}
	eval := func() float64 {
		o, err := m.Forward(g, ad.Const(cT))
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range o.Value.Data {
			s += v
		}
		return s
	}
	const h = 1e-5
	for _, k := range []int{0, 4, 7} {
		if k >= cT.Len() {
			continue
		}
		orig := cT.Data[k]
		cT.Data[k] = orig + h
		fp := eval()
		cT.Data[k] = orig - h
		fm := eval()
		cT.Data[k] = orig
		want := (fp - fm) / (2 * h)
		got := cv.Grad.Data[k]
		if math.Abs(got-want) > 1e-3*(1+math.Abs(want)) {
			t.Errorf("dC[%d]: got %g, want %g", k, got, want)
		}
	}
}

func TestFitReducesLoss(t *testing.T) {
	c := netlist.OTA2()
	g := buildGraph(t, c, 6)
	m := New(Config{Seed: 5, Hidden: 16, Layers: 2, RBFBins: 8})
	rng := rand.New(rand.NewSource(7))

	// Synthetic but guidance-dependent labels: a smooth function of C so the
	// model has something learnable.
	var samples []Sample
	for i := 0; i < 24; i++ {
		gd := guidance.Sample(len(c.Nets), rng, 2)
		ct := tensor.New(len(c.Nets), 3)
		copy(ct.Data, gd.Flat())
		var y [NumMetrics]float64
		sx, sy := 0.0, 0.0
		for n := 0; n < len(c.Nets); n++ {
			sx += ct.At(n, 0)
			sy += ct.At(n, 1)
		}
		y[0] = 100 * sx
		y[1] = 80 - sy
		y[2] = 50 + 3*sx - 2*sy
		y[3] = 35 + sy
		y[4] = 400 - 5*sx
		samples = append(samples, Sample{C: ct, Y: y})
	}
	rep, err := m.Fit(context.Background(), g, samples, TrainConfig{Epochs: 60, LR: 5e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if last := rep.TrainLoss[len(rep.TrainLoss)-1]; last > rep.TrainLoss[0]*0.5 {
		t.Errorf("training loss did not halve: %g -> %g", rep.TrainLoss[0], last)
	}
	if math.IsNaN(rep.FinalVal()) {
		t.Errorf("validation loss is NaN")
	}
}

func fitSamples(t *testing.T, g *hetgraph.Graph, n int) []Sample {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var samples []Sample
	for i := 0; i < n; i++ {
		gd := guidance.Sample(len(g.Circuit.Nets), rng, 2)
		ct := tensor.New(len(g.Circuit.Nets), 3)
		copy(ct.Data, gd.Flat())
		var y [NumMetrics]float64
		sx := 0.0
		for j := 0; j < len(g.Circuit.Nets); j++ {
			sx += ct.At(j, 0)
		}
		y = [NumMetrics]float64{100 * sx, 80 - sx, 50 + 3*sx, 35 + sx, 400 - 5*sx}
		samples = append(samples, Sample{C: ct, Y: y})
	}
	return samples
}

func TestFitBatchedWorkerCountInvariant(t *testing.T) {
	// Per-sample gradients inside a batch are computed on clones and reduced
	// in sample order, so training is bit-identical for any worker count.
	c := netlist.OTA1()
	g := buildGraph(t, c, 9)
	samples := fitSamples(t, g, 16)
	run := func(workers int) (*Model, *TrainReport) {
		m := New(Config{Seed: 5, Hidden: 12, Layers: 1, RBFBins: 6})
		rep, err := m.Fit(context.Background(), g, samples, TrainConfig{
			Epochs: 6, LR: 5e-3, Seed: 1, BatchSize: 4, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, rep
	}
	m1, r1 := run(1)
	m8, r8 := run(8)
	for e := range r1.TrainLoss {
		if r1.TrainLoss[e] != r8.TrainLoss[e] {
			t.Fatalf("epoch %d train loss differs: %g vs %g", e, r1.TrainLoss[e], r8.TrainLoss[e])
		}
		if r1.ValLoss[e] != r8.ValLoss[e] {
			t.Fatalf("epoch %d val loss differs: %g vs %g", e, r1.ValLoss[e], r8.ValLoss[e])
		}
	}
	p1, p8 := m1.Params(), m8.Params()
	for i := range p1 {
		for j := range p1[i].Value.Data {
			if p1[i].Value.Data[j] != p8[i].Value.Data[j] {
				t.Fatalf("param %d[%d] differs: %g vs %g", i, j, p1[i].Value.Data[j], p8[i].Value.Data[j])
			}
		}
	}
}

func TestFitBatchedReducesLoss(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 10)
	samples := fitSamples(t, g, 24)
	m := New(Config{Seed: 5, Hidden: 16, Layers: 2, RBFBins: 8})
	rep, err := m.Fit(context.Background(), g, samples, TrainConfig{Epochs: 40, LR: 5e-3, Seed: 1, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if last := rep.TrainLoss[len(rep.TrainLoss)-1]; last > rep.TrainLoss[0]*0.5 {
		t.Errorf("batched training loss did not halve: %g -> %g", rep.TrainLoss[0], last)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := New(Config{Seed: 3, Hidden: 8, Layers: 1, RBFBins: 4})
	m.YMean[0] = 42
	c := m.Clone()
	if c.YMean[0] != 42 {
		t.Errorf("clone lost normalization")
	}
	mp, cp := m.Params(), c.Params()
	if len(mp) != len(cp) {
		t.Fatalf("param counts differ: %d vs %d", len(mp), len(cp))
	}
	for i := range mp {
		if mp[i] == cp[i] {
			t.Fatalf("param %d shared between model and clone", i)
		}
		for j := range mp[i].Value.Data {
			if mp[i].Value.Data[j] != cp[i].Value.Data[j] {
				t.Fatalf("param %d[%d] differs after clone", i, j)
			}
		}
	}
	cp[0].Value.Data[0] += 1
	if mp[0].Value.Data[0] == cp[0].Value.Data[0] {
		t.Errorf("clone writes visible in source model")
	}
}

func TestNormalizeRoundTrip(t *testing.T) {
	m := New(Config{Seed: 6})
	m.YMean = [NumMetrics]float64{1, 2, 3, 4, 5}
	m.YStd = [NumMetrics]float64{2, 2, 2, 2, 2}
	y := [NumMetrics]float64{10, 20, 30, 40, 50}
	back := m.Denormalize(m.Normalize(y))
	for i := range y {
		if math.Abs(back[i]-y[i]) > 1e-12 {
			t.Errorf("round trip failed at %d: %g", i, back[i])
		}
	}
}

func TestFitRejectsTinyDataset(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 8)
	m := New(Config{Seed: 7})
	if _, err := m.Fit(context.Background(), g, []Sample{{C: uniformC(len(c.Nets))}}, TrainConfig{}); err == nil {
		t.Errorf("Fit must reject datasets below the minimum size")
	}
}

func TestDeterministicForward(t *testing.T) {
	c := netlist.OTA1()
	g := buildGraph(t, c, 9)
	m1 := New(Config{Seed: 11})
	m2 := New(Config{Seed: 11})
	cu := uniformC(len(c.Nets))
	y1, err := m1.Predict(g, cu)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := m2.Predict(g, cu)
	if err != nil {
		t.Fatal(err)
	}
	if y1 != y2 {
		t.Errorf("same seed models disagree: %v vs %v", y1, y2)
	}
}

func BenchmarkGNNForward(b *testing.B) {
	c := netlist.OTA1()
	g := buildGraph(b, c, 1)
	m := New(Config{Seed: 1})
	cu := uniformC(len(c.Nets))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(g, cu); err != nil {
			b.Fatal(err)
		}
	}
}
