// Package extract is the parasitic extraction substrate standing in for
// Calibre PEX: it converts routed geometry into per-net resistance,
// capacitance to ground, and inter-net coupling capacitance (the paper's
// "R+C+CC" extraction). The downstream MNA engine consumes the result for
// post-layout simulation.
package extract

import (
	"sort"

	"analogfold/internal/geom"
	"analogfold/internal/grid"
	"analogfold/internal/route"
)

// NetParasitics summarizes one net's wiring parasitics.
type NetParasitics struct {
	R      float64 // total series wire+via resistance (ohm)
	C      float64 // total capacitance to ground (F)
	Length int     // planar wirelength (nm)
	Vias   int
}

// Parasitics is a full extraction result.
type Parasitics struct {
	Net []NetParasitics
	// Coupling maps an ordered net pair {lo, hi} to coupling capacitance (F).
	Coupling map[[2]int]float64
}

// SortedCouplingKeys returns the coupling keys in deterministic order, so
// downstream floating-point accumulations are reproducible run to run.
func (p *Parasitics) SortedCouplingKeys() [][2]int {
	keys := make([][2]int, 0, len(p.Coupling))
	for k := range p.Coupling {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	return keys
}

// TotalCoupling returns the sum of all coupling caps incident to net n.
func (p *Parasitics) TotalCoupling(n int) float64 {
	t := 0.0
	for _, k := range p.SortedCouplingKeys() {
		if k[0] == n || k[1] == n {
			t += p.Coupling[k]
		}
	}
	return t
}

// maxCouplingSep is the separation (in grid pitches) beyond which lateral
// coupling is ignored.
const maxCouplingSep = 4

// Extract computes parasitics for a routed solution.
func Extract(g *grid.Grid, res *route.Result) *Parasitics {
	tk := g.Tech
	p := &Parasitics{
		Net:      make([]NetParasitics, len(res.NetSegs)),
		Coupling: map[[2]int]float64{},
	}

	// Per-net R and C from segments.
	for ni, segs := range res.NetSegs {
		np := &p.Net[ni]
		for _, s := range segs {
			if s.IsVia() {
				hops := s.Len()
				np.Vias += hops
				lo := s.A.Z
				for h := 0; h < hops; h++ {
					if v, err := tk.ViaBetween(lo + h); err == nil {
						np.R += v.Res
						np.C += v.Cap
					}
				}
				continue
			}
			lenNm := s.Len() * g.Pitch
			np.Length += lenNm
			np.R += tk.WireRes(s.A.Z, lenNm)
			np.C += tk.WireCap(s.A.Z, lenNm)
		}
		// Pin pads contribute a fixed landing capacitance each.
		np.C += 2.0e-17 * float64(len(g.NetAPs[ni]))
	}

	// Coupling: same-layer parallel runs between different nets, bucketed by
	// layer and sorted by the orthogonal coordinate so only nearby segments
	// are compared.
	type seg struct {
		net int
		s   geom.Seg
	}
	for z := 0; z < tk.NumLayers(); z++ {
		var horiz, vert []seg
		for ni, segs := range res.NetSegs {
			for _, s := range segs {
				if s.IsVia() || s.A.Z != z {
					continue
				}
				if s.IsHorizontal() {
					horiz = append(horiz, seg{ni, s})
				} else {
					vert = append(vert, seg{ni, s})
				}
			}
		}
		couple := func(list []seg, ortho func(geom.Seg) int) {
			sort.Slice(list, func(a, b int) bool { return ortho(list[a].s) < ortho(list[b].s) })
			for i := range list {
				for j := i + 1; j < len(list); j++ {
					sep := ortho(list[j].s) - ortho(list[i].s)
					if sep > maxCouplingSep {
						break
					}
					if list[i].net == list[j].net {
						continue
					}
					run, sepG, ok := geom.ParallelRun(list[i].s, list[j].s)
					if !ok || sepG == 0 {
						continue
					}
					cc := tk.CouplingCap(z, run*g.Pitch, sepG*g.Pitch)
					if cc <= 0 {
						continue
					}
					a, b := list[i].net, list[j].net
					if a > b {
						a, b = b, a
					}
					p.Coupling[[2]int{a, b}] += cc
				}
			}
		}
		couple(horiz, func(s geom.Seg) int { return s.A.Y })
		couple(vert, func(s geom.Seg) int { return s.A.X })
	}
	return p
}

// Asymmetry quantifies the parasitic imbalance of a symmetric net pair — the
// quantity the offset-voltage and CMRR models are driven by. Two components
// matter: the explicit routed imbalance (Delta*) and the matching-limited
// imbalance that scales with the total parasitic magnitude (Sum*): even
// perfectly mirrored wires only match to a few percent in silicon, so longer
// or more heavily coupled symmetric nets carry proportionally more residual
// mismatch.
type Asymmetry struct {
	DeltaR float64 // |R_a - R_b| (ohm)
	DeltaC float64 // |C_a - C_b| including coupling (F)
	SumR   float64 // R_a + R_b (ohm)
	SumC   float64 // C_a + C_b including coupling (F)
}

// PairAsymmetry measures the imbalance between nets a and b.
func (p *Parasitics) PairAsymmetry(a, b int) Asymmetry {
	ca := p.Net[a].C + p.TotalCoupling(a)
	cb := p.Net[b].C + p.TotalCoupling(b)
	return Asymmetry{
		DeltaR: absF(p.Net[a].R - p.Net[b].R),
		DeltaC: absF(ca - cb),
		SumR:   p.Net[a].R + p.Net[b].R,
		SumC:   ca + cb,
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
