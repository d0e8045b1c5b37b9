// Package guidance defines the non-uniform routing guidance of the paper's
// Problem 2: per-net cost vectors C_i ∈ R^3 whose element C_i[d] scales the
// router's step cost along direction d ∈ {x, y, z}. Values below 1 encourage
// routing in that direction, values above 1 discourage it; the feasible
// region is 0 < C_i[d] < CMax (Eq. 8).
package guidance

import (
	"fmt"
	"math/rand"
)

// DefaultCMax is the default upper bound c_max of the feasible region.
const DefaultCMax = 2.0

// Vec is one net's guidance: cost multipliers for the x, y and z (layer)
// directions.
type Vec [3]float64

// Set assigns a guidance vector to every net of a design.
type Set struct {
	PerNet []Vec
	CMax   float64
}

// Uniform returns neutral guidance (all multipliers 1) for n nets.
func Uniform(n int) Set {
	s := Set{PerNet: make([]Vec, n), CMax: DefaultCMax}
	for i := range s.PerNet {
		s.PerNet[i] = Vec{1, 1, 1}
	}
	return s
}

// Sample draws guidance uniformly from the interior of the feasible region,
// margined away from the barrier singularities.
func Sample(n int, rng *rand.Rand, cmax float64) Set {
	if cmax <= 0 {
		cmax = DefaultCMax
	}
	const margin = 0.05
	s := Set{PerNet: make([]Vec, n), CMax: cmax}
	for i := range s.PerNet {
		for d := 0; d < 3; d++ {
			s.PerNet[i][d] = margin + rng.Float64()*(cmax-2*margin)
		}
	}
	return s
}

// Clone deep-copies the set.
func (s Set) Clone() Set {
	out := Set{PerNet: make([]Vec, len(s.PerNet)), CMax: s.CMax}
	copy(out.PerNet, s.PerNet)
	return out
}

// Clamp forces every element into [eps, CMax-eps], returning the receiver
// for chaining.
func (s Set) Clamp(eps float64) Set {
	for i := range s.PerNet {
		for d := 0; d < 3; d++ {
			if s.PerNet[i][d] < eps {
				s.PerNet[i][d] = eps
			}
			if s.PerNet[i][d] > s.CMax-eps {
				s.PerNet[i][d] = s.CMax - eps
			}
		}
	}
	return s
}

// Flat returns the guidance as a flat slice [net0x, net0y, net0z, net1x, ...],
// the layout the relaxation optimizer works in.
func (s Set) Flat() []float64 {
	out := make([]float64, 3*len(s.PerNet))
	for i, v := range s.PerNet {
		copy(out[3*i:], v[:])
	}
	return out
}

// FromFlat rebuilds a set from the flat layout.
func FromFlat(flat []float64, cmax float64) (Set, error) {
	if len(flat)%3 != 0 {
		return Set{}, fmt.Errorf("guidance: flat length %d not a multiple of 3", len(flat))
	}
	if cmax <= 0 {
		cmax = DefaultCMax
	}
	s := Set{PerNet: make([]Vec, len(flat)/3), CMax: cmax}
	for i := range s.PerNet {
		copy(s.PerNet[i][:], flat[3*i:3*i+3])
	}
	return s, nil
}

// Validate checks every element lies strictly inside the feasible region.
func (s Set) Validate() error {
	for i, v := range s.PerNet {
		for d := 0; d < 3; d++ {
			if v[d] <= 0 || v[d] >= s.CMax {
				return fmt.Errorf("guidance: net %d direction %d value %g outside (0,%g)",
					i, d, v[d], s.CMax)
			}
		}
	}
	return nil
}
