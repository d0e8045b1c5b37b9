package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	a := New(3, 4)
	if a.Len() != 12 || a.Rows() != 3 || a.Cols() != 4 {
		t.Fatalf("shape accessors wrong: %v", a.Shape)
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("FromSlice must panic on length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSet(t *testing.T) {
	a := New(2, 3)
	a.Set(1, 2, 7)
	if a.At(1, 2) != 7 || a.Data[5] != 7 {
		t.Errorf("At/Set row-major layout broken")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, v := range c.Data {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTransposesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 3).Randn(rng, 1)
	b := New(4, 5).Randn(rng, 1)
	// aᵀ b via MatMulATBInto must equal explicit transpose + MatMul.
	at := New(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := MatMul(at, b)
	got := New(3, 5)
	MatMulATBInto(got, a, b)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
			t.Fatalf("MatMulATBInto mismatch at %d", i)
		}
	}

	c := New(5, 3).Randn(rng, 1)
	// a @ cᵀ (4x3 @ 3x5).
	ct := New(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			ct.Set(j, i, c.At(i, j))
		}
	}
	want2 := MatMul(a, ct)
	got2 := New(4, 5)
	MatMulABTInto(got2, a, c)
	for i := range want2.Data {
		if math.Abs(want2.Data[i]-got2.Data[i]) > 1e-12 {
			t.Fatalf("MatMulABTInto mismatch at %d", i)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MatMul must panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 1, 2)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Errorf("Clone must deep-copy")
	}
}

func TestNormAndMaxAbs(t *testing.T) {
	a := FromSlice([]float64{3, -4}, 1, 2)
	if math.Abs(a.Norm()-5) > 1e-12 {
		t.Errorf("Norm = %g", a.Norm())
	}
	if a.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %g", a.MaxAbs())
	}
}

func TestApply(t *testing.T) {
	a := FromSlice([]float64{1, 4, 9}, 1, 3)
	b := a.Apply(math.Sqrt)
	if b.Data[2] != 3 || a.Data[2] != 9 {
		t.Errorf("Apply must not mutate input")
	}
}

func TestMatMulLinearity(t *testing.T) {
	// Property: (a+b) @ c == a@c + b@c.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(3, 4).Randn(rng, 1)
		b := New(3, 4).Randn(rng, 1)
		c := New(4, 2).Randn(rng, 1)
		sum := a.Clone()
		for i := range sum.Data {
			sum.Data[i] += b.Data[i]
		}
		lhs := MatMul(sum, c)
		r1 := MatMul(a, c)
		r2 := MatMul(b, c)
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-r1.Data[i]-r2.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSameShape(t *testing.T) {
	if !SameShape(New(2, 3), New(2, 3)) || SameShape(New(2, 3), New(3, 2)) || SameShape(New(6), New(2, 3)) {
		t.Errorf("SameShape broken")
	}
}

func TestZeroFill(t *testing.T) {
	a := New(2, 2)
	a.Fill(3)
	if a.Data[3] != 3 {
		t.Errorf("Fill broken")
	}
	a.Zero()
	if a.Norm() != 0 {
		t.Errorf("Zero broken")
	}
}
