package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Mean(xs), 5, 1e-12) {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if !almost(Std(xs), 2, 1e-12) {
		t.Errorf("Std = %g", Std(xs))
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Std(nil)) {
		t.Errorf("empty input must give NaN")
	}
}

func TestPearsonExact(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if !almost(Pearson(a, b), 1, 1e-12) {
		t.Errorf("perfect positive correlation: %g", Pearson(a, b))
	}
	c := []float64{10, 8, 6, 4, 2}
	if !almost(Pearson(a, c), -1, 1e-12) {
		t.Errorf("perfect negative correlation: %g", Pearson(a, c))
	}
	flat := []float64{3, 3, 3, 3, 3}
	if Pearson(a, flat) != 0 {
		t.Errorf("degenerate input must give 0")
	}
	if Pearson(a, a[:2]) != 0 {
		t.Errorf("mismatched lengths must give 0")
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		r := Pearson(a, b)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform gives rank correlation 1.
	a := []float64{1, 2, 3, 4, 5, 6}
	b := make([]float64, len(a))
	for i, v := range a {
		b[i] = math.Exp(v) // nonlinear but monotone
	}
	if !almost(Spearman(a, b), 1, 1e-12) {
		t.Errorf("Spearman of monotone transform = %g", Spearman(a, b))
	}
}

func TestSpearmanTies(t *testing.T) {
	a := []float64{1, 2, 2, 3}
	b := []float64{10, 20, 20, 30}
	if !almost(Spearman(a, b), 1, 1e-12) {
		t.Errorf("tied ranks mishandled: %g", Spearman(a, b))
	}
}

func TestRanks(t *testing.T) {
	r := ranks([]float64{30, 10, 20, 10})
	want := []float64{4, 1.5, 3, 1.5}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}
