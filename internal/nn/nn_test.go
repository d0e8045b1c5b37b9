package nn

import (
	"math"
	"math/rand"
	"testing"

	"analogfold/internal/ad"
	"analogfold/internal/optim"
	"analogfold/internal/tensor"
)

func TestLinearShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(4, 7, rng)
	x := ad.Const(tensor.New(3, 4).Randn(rng, 1))
	y := l.Forward(x)
	if y.Value.Shape[0] != 3 || y.Value.Shape[1] != 7 {
		t.Fatalf("output shape %v", y.Value.Shape)
	}
	if len(l.Params()) != 2 {
		t.Errorf("Linear must expose W and B")
	}
}

func TestMLPWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, 5, 16, 16, 3)
	if len(m.Layers) != 3 {
		t.Fatalf("layer count %d", len(m.Layers))
	}
	x := ad.Const(tensor.New(2, 5).Randn(rng, 1))
	y := m.Forward(x)
	if y.Value.Shape[1] != 3 {
		t.Errorf("output width %d", y.Value.Shape[1])
	}
	n := 0
	for _, v := range m.Params() {
		n += v.Value.Len()
	}
	if n != 5*16+16+16*16+16+16*3+3 {
		t.Errorf("parameter count = %d", n)
	}
}

func TestMLPPanicsOnTooFewWidths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MLP with one width must panic")
		}
	}()
	NewMLP(rand.New(rand.NewSource(3)), 4)
}

func TestXavierScale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear(100, 100, rng)
	// Empirical std should be near sqrt(2/200) = 0.1.
	s := 0.0
	for _, v := range l.W.Value.Data {
		s += v * v
	}
	std := math.Sqrt(s / float64(len(l.W.Value.Data)))
	if std < 0.07 || std > 0.13 {
		t.Errorf("init std = %g, want ~0.1", std)
	}
	// Bias starts at zero.
	if l.B.Value.Norm() != 0 {
		t.Errorf("bias must start at zero")
	}
}

// TestMLPLearnsQuadratic trains a small MLP on y = x0² - x1 and checks the
// loss drops by 10x: the end-to-end sanity check for nn+ad+optim.
func TestMLPLearnsQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, 2, 24, 24, 1)
	n := 64
	xT := tensor.New(n, 2).Randn(rng, 1)
	yT := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		yT.Data[i] = xT.At(i, 0)*xT.At(i, 0) - xT.At(i, 1)
	}
	x := ad.Const(xT)
	y := ad.Const(yT)

	opt := optim.NewAdam(m.Params(), 1e-2)
	var first, last float64
	for ep := 0; ep < 300; ep++ {
		opt.ZeroGrad()
		loss := ad.MSE(m.Forward(x), y)
		if ep == 0 {
			first = loss.Value.Data[0]
		}
		last = loss.Value.Data[0]
		if err := ad.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	if last > first/10 {
		t.Errorf("training did not converge: %g -> %g", first, last)
	}
}

func TestActivationsApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMLP(rng, 2, 4, 1)
	m.Act = ActReLU
	x := ad.Const(tensor.FromSlice([]float64{1, -1}, 1, 2))
	_ = m.Forward(x) // must not panic
	m.Act = ActTanh
	m.OutAct = ActTanh
	y := m.Forward(x)
	if math.Abs(y.Value.Data[0]) > 1 {
		t.Errorf("tanh output out of range: %g", y.Value.Data[0])
	}
}
