package guidance

import (
	"math/rand"
	"testing"
)

func TestUniform(t *testing.T) {
	s := Uniform(4)
	if len(s.PerNet) != 4 || s.CMax != DefaultCMax {
		t.Fatalf("Uniform = %+v", s)
	}
	for _, v := range s.PerNet {
		if v != (Vec{1, 1, 1}) {
			t.Errorf("non-neutral vec %v", v)
		}
	}
	if err := s.Validate(); err != nil {
		t.Errorf("uniform must be feasible: %v", err)
	}
}

func TestSampleFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		s := Sample(7, rng, 2)
		if err := s.Validate(); err != nil {
			t.Fatalf("sample %d infeasible: %v", i, err)
		}
	}
	// Zero cmax falls back to the default.
	s := Sample(2, rng, 0)
	if s.CMax != DefaultCMax {
		t.Errorf("CMax fallback broken: %g", s.CMax)
	}
}

func TestFlatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := Sample(5, rng, 2)
	back, err := FromFlat(s.Flat(), s.CMax)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.PerNet {
		if back.PerNet[i] != s.PerNet[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	if _, err := FromFlat([]float64{1, 2}, 2); err == nil {
		t.Errorf("non-multiple-of-3 flat must be rejected")
	}
}

func TestClampAndValidate(t *testing.T) {
	s := Uniform(2)
	s.PerNet[0] = Vec{-1, 5, 1}
	if err := s.Validate(); err == nil {
		t.Errorf("out-of-region set must fail validation")
	}
	s.Clamp(0.1)
	if err := s.Validate(); err != nil {
		t.Errorf("clamped set must validate: %v", err)
	}
	if s.PerNet[0][0] != 0.1 || s.PerNet[0][1] != DefaultCMax-0.1 {
		t.Errorf("clamp values wrong: %v", s.PerNet[0])
	}
}

func TestCloneIndependent(t *testing.T) {
	s := Uniform(2)
	c := s.Clone()
	c.PerNet[0][0] = 0.5
	if s.PerNet[0][0] != 1 {
		t.Errorf("Clone must deep-copy")
	}
}
