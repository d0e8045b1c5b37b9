package optim

import (
	"math"
	"testing"

	"analogfold/internal/ad"
	"analogfold/internal/tensor"
)

func TestAdamQuadratic(t *testing.T) {
	x := ad.Leaf(tensor.FromSlice([]float64{-4, 8}, 1, 2), true)
	target := ad.Const(tensor.FromSlice([]float64{1, -2}, 1, 2))
	opt := NewAdam([]*ad.Var{x}, 0.1)
	for i := 0; i < 500; i++ {
		opt.ZeroGrad()
		loss := ad.Sum(ad.Square(ad.Sub(x, target)))
		if err := ad.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	if math.Abs(x.Value.Data[0]-1) > 1e-2 || math.Abs(x.Value.Data[1]+2) > 1e-2 {
		t.Errorf("x = %v", x.Value.Data)
	}
}

func TestStepSkipsNilGrad(t *testing.T) {
	x := ad.Leaf(tensor.FromSlice([]float64{5}, 1, 1), true)
	opt := NewAdam([]*ad.Var{x}, 0.1)
	opt.Step() // no gradient accumulated: must not panic or move
	if x.Value.Data[0] != 5 {
		t.Errorf("Step moved parameter without gradient")
	}
}

func TestLBFGSQuadratic(t *testing.T) {
	// f(x) = 0.5 xᵀ A x - bᵀ x with A = diag(1, 10, 100).
	a := []float64{1, 10, 100}
	b := []float64{1, 2, 3}
	obj := func(x []float64) (float64, []float64) {
		f := 0.0
		g := make([]float64, 3)
		for i := range x {
			f += 0.5*a[i]*x[i]*x[i] - b[i]*x[i]
			g[i] = a[i]*x[i] - b[i]
		}
		return f, g
	}
	res := LBFGS(obj, []float64{0, 0, 0}, 100, 8, 1e-10)
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations", res.Iterations)
	}
	for i := range res.X {
		want := b[i] / a[i]
		if math.Abs(res.X[i]-want) > 1e-6 {
			t.Errorf("x[%d] = %g, want %g", i, res.X[i], want)
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	// The classic banana function: hard for plain gradient descent, easy for
	// L-BFGS.
	obj := func(x []float64) (float64, []float64) {
		a, b := x[0], x[1]
		f := (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
		g := []float64{
			-2*(1-a) - 400*a*(b-a*a),
			200 * (b - a*a),
		}
		return f, g
	}
	res := LBFGS(obj, []float64{-1.2, 1}, 500, 10, 1e-8)
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Errorf("x = %v, want (1,1); f=%g iters=%d", res.X, res.F, res.Iterations)
	}
}

func TestLBFGSBeatsSteepestDescentOnIllConditioned(t *testing.T) {
	// On a condition-number-1e4 quadratic, L-BFGS should reach tolerance in
	// far fewer iterations than it would take first-order descent (which
	// needs O(cond) iterations).
	obj := func(x []float64) (float64, []float64) {
		f := 0.5*x[0]*x[0] + 0.5*1e4*x[1]*x[1]
		return f, []float64{x[0], 1e4 * x[1]}
	}
	res := LBFGS(obj, []float64{10, 10}, 200, 10, 1e-8)
	if !res.Converged {
		t.Fatalf("no convergence: f=%g", res.F)
	}
	if res.Iterations > 100 {
		t.Errorf("L-BFGS took %d iterations on a quadratic", res.Iterations)
	}
}

func TestLBFGSRespectsMaxIter(t *testing.T) {
	obj := func(x []float64) (float64, []float64) {
		return x[0] * x[0], []float64{2 * x[0]}
	}
	res := LBFGS(obj, []float64{100}, 1, 5, 1e-30)
	if res.Iterations > 1 {
		t.Errorf("exceeded maxIter: %d", res.Iterations)
	}
}

func TestLBFGSHandlesNaNGracefully(t *testing.T) {
	// Objective that blows up away from the barrier interior: line search
	// must back off rather than accept NaN.
	obj := func(x []float64) (float64, []float64) {
		if x[0] <= 0 {
			return math.Inf(1), []float64{0}
		}
		f := x[0] - math.Log(x[0])
		return f, []float64{1 - 1/x[0]}
	}
	res := LBFGS(obj, []float64{0.1}, 100, 5, 1e-10)
	if math.Abs(res.X[0]-1) > 1e-5 {
		t.Errorf("x = %v, want 1", res.X)
	}
}
