package gnn3d

import (
	"analogfold/internal/ad"
	"analogfold/internal/hetgraph"
	"analogfold/internal/nn"
	"analogfold/internal/tensor"
)

// constFn builds a non-differentiable graph input from a tensor. The
// transient Forward path passes ad.Const (fresh nodes every call, the legacy
// behavior); an InferSession passes its tape's Const so constant subgraphs
// replay instead of reallocating.
type constFn func(*tensor.Tensor) *ad.Var

// relEnv holds everything one edge relation needs to produce its Ψ(d_cost)
// expansion: message gather/scatter indices plus either a fused spec (the
// full model) or the extent constants of the unfused distance chain (the
// NoRBF / NoCostAware ablations and the guidance-free M-source relations).
type relEnv struct {
	src, dst []int // per-edge message indices (batch-offset when stacked)
	nDst     int   // scatter bucket count

	spec *ad.FusedRBF // fused Eq. (1)–(3) path; nil → chain below

	h, w, z *ad.Var // [n×1] extent columns for the unfused chain
	idx     []int   // guidance gather rows (unfused AP-source path; nil → C ≡ 1)

	// tile row-tiles guidance-independent per-edge results from the base edge
	// set to a stacked batch (see relation.messages); nil when b == 1 or the
	// expansion depends on C.
	tile []int
}

// psi builds the relation's distance expansion. The unfused chain is kept
// verbatim from the original edgeDistance/expand pair: the ablations exercise
// it, and the fused op's bit-identity is defined against it.
func (re *relEnv) psi(env *forwardEnv, cVar *ad.Var) *ad.Var {
	if re.spec != nil && cVar != nil {
		return ad.RBFDist(cVar, re.spec)
	}
	var d *ad.Var
	if cVar == nil || re.idx == nil {
		sum := ad.Add(ad.Add(ad.Square(re.h), ad.Square(re.w)), ad.Square(re.z))
		d = ad.Sqrt(sum)
	} else {
		ce := ad.Gather(cVar, re.idx) // [n × 3]
		c0 := ad.Cols(ce, 0, 1)
		c1 := ad.Cols(ce, 1, 2)
		c2 := ad.Cols(ce, 2, 3)
		sum := ad.Add(
			ad.Add(ad.Square(ad.Mul(c0, re.h)), ad.Square(ad.Mul(c1, re.w))),
			ad.Square(ad.Mul(c2, re.z)),
		)
		d = ad.Sqrt(sum)
	}
	if env.cfg.NoRBF {
		return ad.Scale(d, 1/env.cfg.DMax) // normalized raw distance
	}
	return ad.RBF(d, env.mus, env.cfg.RBFGamma)
}

// forwardEnv is the prebuilt, guidance-independent half of a forward pass:
// weights, graph constants, edge indices and fused specs. The transient
// Forward builds one per call; an InferSession builds one per (model, graph)
// pair and replays it; the batched forward builds one whose indices address a
// B-times stacked node set.
type forwardEnv struct {
	cfg Config
	mus []float64

	apEnc, mEnc, out, head *nn.MLP
	lays                   []*layer

	apNet          []int
	apFeat, mFeat  *ad.Var
	pp, mp, pm, mm relEnv

	// Readout: batch == 1 sums node embeddings with a ones-row matmul (the
	// original formulation); stacked instances scatter rows to their own
	// instance bucket instead — same additions in the same order per row.
	batch         int
	onesAP, onesM *ad.Var
	readAP, readM []int
	invN          float64

	// mTile row-tiles the metal encoder output to the stacked node set: M
	// features carry no guidance, so each instance's initial embeddings are
	// the same bits. Nil when batch == 1.
	mTile []int
}

// buildRel assembles one relation's environment. srcDomain/dstDomain are the
// per-instance node counts of the source and destination sets; nets is the
// per-instance guidance row count.
func (m *Model) buildRel(g *hetgraph.Graph, es *hetgraph.EdgeSet, srcIsAP bool, b, srcDomain, dstDomain, nets int, cf constFn) relEnv {
	n := es.Len()
	re := relEnv{nDst: b * dstDomain}
	if b == 1 {
		re.src, re.dst = es.Src, es.Dst
	} else {
		re.src = make([]int, b*n)
		re.dst = make([]int, b*n)
		for bi := 0; bi < b; bi++ {
			for e := 0; e < n; e++ {
				re.src[bi*n+e] = es.Src[e] + bi*srcDomain
				re.dst[bi*n+e] = es.Dst[e] + bi*dstDomain
			}
		}
	}
	useGuide := srcIsAP && !m.Cfg.NoCostAware
	if useGuide && !m.Cfg.NoRBF {
		// Fused path: Eq. (1)–(3) in one op, no per-edge intermediate tensors.
		spec := &ad.FusedRBF{
			Idx: make([]int, b*n), H: make([]float64, b*n),
			W: make([]float64, b*n), Z: make([]float64, b*n),
			Mus: m.mus, Gamma: m.Cfg.RBFGamma,
		}
		for bi := 0; bi < b; bi++ {
			for e := 0; e < n; e++ {
				i := bi*n + e
				spec.Idx[i] = g.APNet[es.Src[e]] + bi*nets
				spec.H[i] = es.H[e]
				spec.W[i] = es.W[e]
				if !m.Cfg.No3D {
					spec.Z[i] = es.Z[e]
				}
			}
		}
		re.spec = spec
		return re
	}
	if !useGuide {
		// Guidance-independent expansion: every stacked instance would compute
		// the same Ψ rows, so keep the extents at the base edge set and let
		// messages row-tile the rbf output instead (tile is nil when b == 1).
		col := func(src []float64, zero bool) *ad.Var {
			data := make([]float64, n)
			if !zero {
				copy(data, src)
			}
			return cf(tensor.FromSlice(data, n, 1))
		}
		re.h = col(es.H, false)
		re.w = col(es.W, false)
		re.z = col(es.Z, m.Cfg.No3D)
		if b > 1 {
			re.tile = tileIndex(b, n)
		}
		return re
	}
	tile := func(src []float64, zero bool) *ad.Var {
		data := make([]float64, b*n)
		if !zero {
			for bi := 0; bi < b; bi++ {
				copy(data[bi*n:(bi+1)*n], src)
			}
		}
		return cf(tensor.FromSlice(data, b*n, 1))
	}
	re.h = tile(es.H, false)
	re.w = tile(es.W, false)
	re.z = tile(es.Z, m.Cfg.No3D)
	re.idx = make([]int, b*n)
	for bi := 0; bi < b; bi++ {
		for e := 0; e < n; e++ {
			re.idx[bi*n+e] = g.APNet[es.Src[e]] + bi*nets
		}
	}
	return re
}

// buildEnv assembles the forward environment for b stacked guidance
// instances over graph g. With b == 1 it reproduces the original Forward's
// constants and indices exactly.
func (m *Model) buildEnv(g *hetgraph.Graph, b int, cf constFn) *forwardEnv {
	numAP, numM := g.NumAP(), g.NumM()
	nets := len(g.Circuit.Nets)
	env := &forwardEnv{
		cfg: m.Cfg, mus: m.mus,
		apEnc: m.apEnc, mEnc: m.mEnc, out: m.out, head: m.head, lays: m.lays,
		batch: b,
		invN:  1.0 / float64(numAP+numM),
	}
	if b == 1 {
		env.apNet = g.APNet
		env.apFeat = cf(g.APFeat)
		env.mFeat = cf(g.MFeat)
		env.onesAP = cf(onesRow(numAP))
		env.onesM = cf(onesRow(numM))
	} else {
		env.apNet = make([]int, b*numAP)
		for bi := 0; bi < b; bi++ {
			for i, r := range g.APNet {
				env.apNet[bi*numAP+i] = r + bi*nets
			}
		}
		env.apFeat = cf(tileRows(g.APFeat, b))
		env.mFeat = cf(g.MFeat)
		env.mTile = tileIndex(b, numM)
		env.readAP = instanceOf(b, numAP)
		env.readM = instanceOf(b, numM)
	}
	pmSet := hetgraph.EdgeSet{Src: g.MP.Dst, Dst: g.MP.Src, H: g.MP.H, W: g.MP.W, Z: g.MP.Z}
	env.pp = m.buildRel(g, &g.PP, true, b, numAP, numAP, nets, cf)
	env.mp = m.buildRel(g, &g.MP, false, b, numM, numAP, nets, cf)
	env.pm = m.buildRel(g, &pmSet, true, b, numAP, numM, nets, cf)
	env.mm = m.buildRel(g, &g.MM, false, b, numM, numM, nets, cf)
	return env
}

// tileRows stacks b copies of t along rows.
func tileRows(t *tensor.Tensor, b int) *tensor.Tensor {
	n, d := t.Shape[0], t.Shape[1]
	out := tensor.New(b*n, d)
	for bi := 0; bi < b; bi++ {
		copy(out.Data[bi*n*d:(bi+1)*n*d], t.Data)
	}
	return out
}

// instanceOf maps each of b×n stacked rows to its instance index.
func instanceOf(b, n int) []int {
	idx := make([]int, b*n)
	for bi := 0; bi < b; bi++ {
		for i := 0; i < n; i++ {
			idx[bi*n+i] = bi
		}
	}
	return idx
}

// tileIndex maps each of b×n stacked rows to its base row — the gather index
// that replicates an [n × d] result b times along rows.
func tileIndex(b, n int) []int {
	idx := make([]int, b*n)
	for bi := 0; bi < b; bi++ {
		for i := 0; i < n; i++ {
			idx[bi*n+i] = i
		}
	}
	return idx
}

// forwardCore runs the message-passing forward pass of Algorithm 1 over a
// prebuilt environment, returning the [batch × NumMetrics] normalized
// prediction. It is the single implementation behind Model.Forward (transient
// graph), InferSession.Forward (tape replay) and the batched candidate
// scoring; every op call here is in a fixed order, which is what lets a tape
// replay it allocation-free.
func forwardCore(env *forwardEnv, cVar *ad.Var) *ad.Var {
	// AP embeddings see their own net's guidance directly (concatenated to
	// the static features) in addition to the cost-aware distances below;
	// both paths are differentiable w.r.t. C for the relaxation.
	cAP := ad.Gather(cVar, env.apNet)
	vAP := env.apEnc.Forward(ad.ConcatCols(env.apFeat, cAP))
	vM := env.mEnc.Forward(env.mFeat)
	if env.mTile != nil {
		// Stacked batch: the M encoder ran once on the base node set (its
		// input carries no guidance); replicate its rows per instance.
		vM = ad.Gather(vM, env.mTile)
	}

	// Precompute per-relation distance expansions (they do not change across
	// rounds; messages do). Ψ is the RBF expansion of Eq. 3, or the raw
	// distance column under the NoRBF ablation.
	psiPP := env.pp.psi(env, cVar)
	psiMP := env.mp.psi(env, nil)
	// AP→M uses the AP side's guidance (the source of the message).
	psiPM := env.pm.psi(env, cVar)
	psiMM := env.mm.psi(env, nil)

	for _, l := range env.lays {
		// Update + aggregate (Algorithm 1): each relation computes messages
		// from gathered source embeddings, scatter-summed at receivers.
		aggAP := ad.ScatterAdd(l.pp.messages(ad.Gather(vAP, env.pp.src), psiPP, env.pp.tile), env.pp.dst, env.pp.nDst)
		aggAP = ad.Add(aggAP, ad.ScatterAdd(l.mp.messages(ad.Gather(vM, env.mp.src), psiMP, env.mp.tile), env.mp.dst, env.mp.nDst))
		aggM := ad.ScatterAdd(l.pm.messages(ad.Gather(vAP, env.pm.src), psiPM, env.pm.tile), env.pm.dst, env.pm.nDst)
		aggM = ad.Add(aggM, ad.ScatterAdd(l.mm.messages(ad.Gather(vM, env.mm.src), psiMM, env.mm.tile), env.mm.dst, env.mm.nDst))

		// Combine φv: v ← v + Σ messages.
		vAP = ad.Add(vAP, aggAP)
		vM = ad.Add(vM, aggM)
	}

	// Global readout φu = Σ MLP(v_i) per instance, then the FC head. The
	// stacked form scatter-sums each instance's rows (ascending, like the
	// ones-row matmul, so per-row results are bit-identical to batch == 1).
	var uAP, uM *ad.Var
	if env.batch == 1 {
		uAP = ad.MatMul(env.onesAP, env.out.Forward(vAP)) // [1 × H]
		uM = ad.MatMul(env.onesM, env.out.Forward(vM))
	} else {
		uAP = ad.ScatterAdd(env.out.Forward(vAP), env.readAP, env.batch)
		uM = ad.ScatterAdd(env.out.Forward(vM), env.readM, env.batch)
	}
	u := ad.Scale(ad.Add(uAP, uM), env.invN)
	return env.head.Forward(u) // [batch × NumMetrics]
}
