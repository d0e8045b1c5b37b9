// Package nn provides the neural-network building blocks for the 3DGNN: the
// Linear layer and the MLP stacks of Eq. (5), with principled initialization
// and parameter management.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"analogfold/internal/ad"
	"analogfold/internal/tensor"
)

// Activation selects an MLP nonlinearity.
type Activation int

// Supported activations. SiLU is the default: the relaxation step
// differentiates through the trained network w.r.t. its inputs, so smooth
// activations make the potential landscape well-behaved.
const (
	ActSiLU Activation = iota
	ActReLU
	ActTanh
	ActNone
)

func (a Activation) apply(v *ad.Var) *ad.Var {
	switch a {
	case ActSiLU:
		return ad.SiLU(v)
	case ActReLU:
		return ad.ReLU(v)
	case ActTanh:
		return ad.Tanh(v)
	default:
		return v
	}
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W *ad.Var
	B *ad.Var
}

// NewLinear initializes a layer with Xavier/Glorot scaling.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	std := math.Sqrt(2.0 / float64(in+out))
	w := tensor.New(in, out).Randn(rng, std)
	b := tensor.New(1, out)
	return &Linear{W: ad.Leaf(w, true), B: ad.Leaf(b, true)}
}

// Forward applies the layer.
func (l *Linear) Forward(x *ad.Var) *ad.Var {
	return ad.AddRow(ad.MatMul(x, l.W), l.B)
}

// Params returns the trainable parameters.
func (l *Linear) Params() []*ad.Var { return []*ad.Var{l.W, l.B} }

// Frozen returns an inference view of the layer: the same weight tensors
// wrapped as non-differentiable constants. Backward passes through a frozen
// view skip the parameters entirely, so any number of concurrent inference
// sessions can share one set of trained weights without racing on gradient
// accumulators — the reason relax no longer clones whole models per worker.
func (l *Linear) Frozen() *Linear {
	return &Linear{W: ad.Const(l.W.Value), B: ad.Const(l.B.Value)}
}

// MLP is a stack of Linear layers with a shared hidden activation; the final
// layer is linear (no activation) unless OutAct is set.
type MLP struct {
	Layers []*Linear
	Act    Activation
	OutAct Activation
}

// NewMLP builds an MLP with the given layer widths, e.g. NewMLP(rng, 16, 32, 8).
func NewMLP(rng *rand.Rand, widths ...int) *MLP {
	if len(widths) < 2 {
		panic(fmt.Sprintf("nn: MLP needs at least 2 widths, got %v", widths))
	}
	m := &MLP{Act: ActSiLU, OutAct: ActNone}
	for i := 0; i+1 < len(widths); i++ {
		m.Layers = append(m.Layers, NewLinear(widths[i], widths[i+1], rng))
	}
	return m
}

// Forward applies the stack.
func (m *MLP) Forward(x *ad.Var) *ad.Var {
	for i, l := range m.Layers {
		x = l.Forward(x)
		if i+1 < len(m.Layers) {
			x = m.Act.apply(x)
		} else {
			x = m.OutAct.apply(x)
		}
	}
	return x
}

// Frozen returns an inference view of the MLP sharing the trained weight
// tensors through non-differentiable constants (see Linear.Frozen).
func (m *MLP) Frozen() *MLP {
	f := &MLP{Act: m.Act, OutAct: m.OutAct}
	for _, l := range m.Layers {
		f.Layers = append(f.Layers, l.Frozen())
	}
	return f
}

// Params returns all trainable parameters.
func (m *MLP) Params() []*ad.Var {
	var ps []*ad.Var
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
