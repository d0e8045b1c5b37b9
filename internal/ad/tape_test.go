package ad

import (
	"math"
	"math/rand"
	"testing"

	"analogfold/internal/tensor"
)

// buildExpr constructs a small but op-diverse scalar expression over the
// given leaves (x: [n×3] requires-grad, w: [3×3] weight, plus stable index
// slices and a fused spec). It is a pure function of its inputs, so the same
// call sequence replays exactly on a tape.
func buildExpr(x, w *Var, gIdx, sIdx []int, spec *FusedRBF) *Var {
	y := MatMul(x, w)                 // [n×3]
	y = Add(SiLU(y), Mul(Tanh(y), x)) // elementwise mix
	y = ScatterAdd(Gather(y, gIdx), sIdx, x.Value.Shape[0])
	y = ConcatCols(Cols(y, 0, 1), Cols(y, 1, 3)) // identity re-assembly
	y = AddConst(Scale(y, 0.5), 0.25)
	psi := RBFDist(x, spec) // fused cost-distance expansion
	d := Sqrt(AddConst(Square(Cols(y, 0, 1)), 1e-3))
	return Add(Add(Sum(y), Sum(RBF(d, spec.Mus, 2.0))), Sum(psi))
}

type exprFixture struct {
	n          int
	gIdx, sIdx []int
	spec       *FusedRBF
}

func newExprFixture(rng *rand.Rand, n int) exprFixture {
	gIdx := make([]int, n)
	sIdx := make([]int, n)
	for i := range gIdx {
		gIdx[i] = rng.Intn(n)
		sIdx[i] = rng.Intn(n)
	}
	e := 2 * n
	spec := &FusedRBF{
		Idx: make([]int, e), H: make([]float64, e), W: make([]float64, e), Z: make([]float64, e),
		Mus: []float64{0, 0.5, 1.5}, Gamma: 3,
	}
	for i := 0; i < e; i++ {
		spec.Idx[i] = rng.Intn(n)
		spec.H[i] = rng.Float64() * 2
		spec.W[i] = rng.Float64() * 2
		spec.Z[i] = rng.Float64()
	}
	return exprFixture{n: n, gIdx: gIdx, sIdx: sIdx, spec: spec}
}

// evalFresh computes (loss, dLoss/dx) with a brand-new tapeless graph.
func (fx exprFixture) evalFresh(xT, wT *tensor.Tensor) (float64, *tensor.Tensor) {
	x := Leaf(xT.Clone(), true)
	w := Leaf(wT.Clone(), true)
	out := buildExpr(x, w, fx.gIdx, fx.sIdx, fx.spec)
	if err := Backward(out); err != nil {
		panic(err)
	}
	return out.Value.Data[0], x.Grad.Clone()
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTapeReplayMatchesFresh drives many evaluations with changing inputs
// through one tape and checks every value and gradient is bit-identical to a
// fresh tapeless graph — the core equivalence the relaxation relies on.
func TestTapeReplayMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5
	fx := newExprFixture(rng, n)
	xT := tensor.New(n, 3)
	wT := tensor.New(3, 3).Randn(rng, 0.5)

	tp := NewTape()
	x := tp.Leaf(xT, true)
	w := tp.Leaf(wT, false) // frozen weights: shared, non-differentiable
	for pass := 0; pass < 6; pass++ {
		for i := range xT.Data {
			xT.Data[i] = 0.1 + rng.Float64()
		}
		tp.Reset()
		out := buildExpr(x, w, fx.gIdx, fx.sIdx, fx.spec)
		if err := Backward(out); err != nil {
			t.Fatal(err)
		}
		wantF, wantG := fx.evalFresh(xT, wT)
		if math.Float64bits(out.Value.Data[0]) != math.Float64bits(wantF) {
			t.Fatalf("pass %d: tape loss %.17g, fresh %.17g", pass, out.Value.Data[0], wantF)
		}
		if !sameFloats(x.Grad.Data, wantG.Data) {
			t.Fatalf("pass %d: tape gradient diverged from fresh graph", pass)
		}
	}
	hits, misses := tp.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats: hits=%d misses=%d — first pass must record, later passes must replay", hits, misses)
	}
	if wantHits := misses * 5; hits != wantHits {
		t.Errorf("stats: hits=%d misses=%d — every post-warmup pass should be all hits (want %d)", hits, misses, wantHits)
	}
}

// TestTapeSteadyStateAllocs pins the tentpole: a steady-state forward +
// backward on a fixed topology performs at most a handful of allocations
// (the recursion bookkeeping), not the per-op node/tensor/closure churn of a
// fresh graph.
func TestTapeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 6
	fx := newExprFixture(rng, n)
	xT := tensor.New(n, 3)
	for i := range xT.Data {
		xT.Data[i] = 0.1 + rng.Float64()
	}
	wT := tensor.New(3, 3).Randn(rng, 0.5)

	tp := NewTape()
	x := tp.Leaf(xT, true)
	w := tp.Leaf(wT, false)
	run := func() {
		tp.Reset()
		out := buildExpr(x, w, fx.gIdx, fx.sIdx, fx.spec)
		if err := Backward(out); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up records the tape and sizes every buffer
	run()
	allocs := testing.AllocsPerRun(50, run)
	if allocs > 4 {
		t.Errorf("steady-state forward+backward allocates %.1f objects, want ≤4", allocs)
	}
}

// TestTapeDivergenceRebuilds checks a tape is an optimization, not a
// constraint: building a different expression after Reset drops the stale
// suffix and still computes correct (fresh-graph-identical) results, and
// switching back re-records.
func TestTapeDivergenceRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 4
	fx := newExprFixture(rng, n)
	fx2 := newExprFixture(rng, n) // different indices → diverging graph
	xT := tensor.New(n, 3)
	for i := range xT.Data {
		xT.Data[i] = 0.2 + rng.Float64()
	}
	wT := tensor.New(3, 3).Randn(rng, 0.5)

	tp := NewTape()
	x := tp.Leaf(xT, true)
	w := tp.Leaf(wT, false)
	for pass, f := range []exprFixture{fx, fx2, fx, fx2} {
		tp.Reset()
		ZeroGrad(x)
		out := buildExpr(x, w, f.gIdx, f.sIdx, f.spec)
		if err := Backward(out); err != nil {
			t.Fatal(err)
		}
		wantF, wantG := f.evalFresh(xT, wT)
		if math.Float64bits(out.Value.Data[0]) != math.Float64bits(wantF) {
			t.Fatalf("pass %d: diverged tape loss %.17g, fresh %.17g", pass, out.Value.Data[0], wantF)
		}
		if !sameFloats(x.Grad.Data, wantG.Data) {
			t.Fatalf("pass %d: diverged tape gradient mismatch", pass)
		}
	}
}

// TestRepeatedBackwardGradReuse is the regression test for ZeroGrad/accum
// reallocating gradient tensors: across repeated ZeroGrad → forward →
// Backward cycles the parameter gradient buffer must be reused by pointer,
// and the cycle must not allocate new gradient tensors.
func TestRepeatedBackwardGradReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	xT := tensor.New(4, 3)
	for i := range xT.Data {
		xT.Data[i] = 0.3 + rng.Float64()
	}
	x := Leaf(xT, true)

	// Warm up: first backward allocates the buffer.
	if err := Backward(Sum(Square(x))); err != nil {
		t.Fatal(err)
	}
	buf := x.Grad
	for i := 0; i < 5; i++ {
		ZeroGrad(x)
		if err := Backward(Sum(Square(x))); err != nil {
			t.Fatal(err)
		}
		if x.Grad != buf {
			t.Fatalf("cycle %d: gradient buffer reallocated", i)
		}
	}

	// The tapeless graph still allocates nodes, but the leaf grad must not
	// contribute: pin that a full cycle stays well under the old
	// one-grad-tensor-per-node cost by comparing against a tape cycle, which
	// must do no grad allocation at all.
	tp := NewTape()
	tx := tp.Leaf(xT.Clone(), true)
	cycle := func() {
		tp.Reset()
		ZeroGrad(tx)
		if err := Backward(Sum(Square(tx))); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Errorf("tape ZeroGrad+Backward cycle allocates %.1f objects, want 0", allocs)
	}
}

// FuzzTapeReset drives random op DAGs through build → backward → reset →
// rebuild with mutated inputs, asserting the replayed tape graph matches a
// fresh tapeless graph bit-for-bit — values and input gradients — including
// occasional mid-sequence divergence to a second DAG.
func FuzzTapeReset(f *testing.F) {
	f.Add(int64(1), uint8(3), false)
	f.Add(int64(2), uint8(5), true)
	f.Add(int64(99), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, diverge bool) {
		n := 3 + int(size%5)
		rng := rand.New(rand.NewSource(seed))
		fx := newExprFixture(rng, n)
		fx2 := newExprFixture(rng, n)
		xT := tensor.New(n, 3)
		wT := tensor.New(3, 3).Randn(rng, 0.5)

		tp := NewTape()
		x := tp.Leaf(xT, true)
		w := tp.Leaf(wT, false)
		for pass := 0; pass < 4; pass++ {
			for i := range xT.Data {
				xT.Data[i] = 0.05 + rng.Float64()
			}
			cur := fx
			if diverge && pass%2 == 1 {
				cur = fx2
			}
			tp.Reset()
			out := buildExpr(x, w, cur.gIdx, cur.sIdx, cur.spec)
			if err := Backward(out); err != nil {
				t.Fatal(err)
			}
			wantF, wantG := cur.evalFresh(xT, wT)
			if math.Float64bits(out.Value.Data[0]) != math.Float64bits(wantF) {
				t.Fatalf("pass %d: tape loss %.17g, fresh %.17g", pass, out.Value.Data[0], wantF)
			}
			if !sameFloats(x.Grad.Data, wantG.Data) {
				t.Fatalf("pass %d: tape-reused gradient != fresh-graph gradient", pass)
			}
		}
	})
}
