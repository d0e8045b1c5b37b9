// Package optim provides the optimizers used by the reproduction: Adam for
// 3DGNN training, plus the L-BFGS routine the paper's potential relaxation
// uses (Section 4.3).
package optim

import (
	"math"

	"analogfold/internal/ad"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step()
	ZeroGrad()
}

// Adam implements the Adam optimizer, with optional decoupled weight decay
// (AdamW) for regularization.
type Adam struct {
	Params      []*ad.Var
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t    int
	m, v [][]float64
}

// NewAdam creates an Adam optimizer with standard defaults.
func NewAdam(params []*ad.Var, lr float64) *Adam {
	a := &Adam{
		Params: params, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make([][]float64, len(params)), v: make([][]float64, len(params)),
	}
	for i, p := range params {
		a.m[i] = make([]float64, p.Value.Len())
		a.v[i] = make([]float64, p.Value.Len())
	}
	return a
}

// Step applies one update.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.Params {
		if !p.GradLive() {
			continue
		}
		m, v := a.m[i], a.v[i]
		for j := range p.Value.Data {
			g := p.Grad.Data[j]
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			p.Value.Data[j] -= a.LR * ((m[j]/c1)/(math.Sqrt(v[j]/c2)+a.Eps) + a.WeightDecay*p.Value.Data[j])
		}
	}
}

// ZeroGrad clears gradients.
func (a *Adam) ZeroGrad() { ad.ZeroGrad(a.Params...) }

// Objective evaluates a function and its gradient at x for L-BFGS.
type Objective func(x []float64) (f float64, grad []float64)

// LBFGSResult reports the outcome of an L-BFGS run.
type LBFGSResult struct {
	X          []float64
	F          float64
	Iterations int
	Converged  bool
}

// LBFGS minimizes obj starting from x0 using the two-loop recursion with a
// backtracking Armijo line search — the gradient-descent engine of the
// paper's potential relaxation.
func LBFGS(obj Objective, x0 []float64, maxIter, history int, tol float64) LBFGSResult {
	n := len(x0)
	x := append([]float64(nil), x0...)
	f, g := obj(x)

	var sList, yList [][]float64
	var rhoList []float64

	res := LBFGSResult{X: x, F: f}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		gnorm := norm(g)
		if gnorm < tol {
			res.Converged = true
			break
		}

		// Two-loop recursion for the search direction d = -H·g.
		q := append([]float64(nil), g...)
		alphas := make([]float64, len(sList))
		for i := len(sList) - 1; i >= 0; i-- {
			alphas[i] = rhoList[i] * dot(sList[i], q)
			axpy(q, yList[i], -alphas[i])
		}
		// Initial Hessian scaling.
		gammaK := 1.0
		if len(sList) > 0 {
			last := len(sList) - 1
			yy := dot(yList[last], yList[last])
			if yy > 0 {
				gammaK = dot(sList[last], yList[last]) / yy
			}
		}
		for i := range q {
			q[i] *= gammaK
		}
		for i := 0; i < len(sList); i++ {
			beta := rhoList[i] * dot(yList[i], q)
			axpy(q, sList[i], alphas[i]-beta)
		}
		d := q
		for i := range d {
			d[i] = -d[i]
		}

		// Weak-Wolfe line search (Lewis–Overton bisection): enforce both the
		// Armijo decrease and the curvature condition, so stored (s, y) pairs
		// always have positive curvature and the inverse-Hessian approximation
		// stays positive definite.
		dg := dot(d, g)
		if dg >= 0 {
			// Not a descent direction (numerical breakdown): restart with
			// steepest descent.
			sList, yList, rhoList = nil, nil, nil
			for i := range d {
				d[i] = -g[i]
			}
			dg = -dot(g, g)
		}
		const (
			c1 = 1e-4
			c2 = 0.9
		)
		step := 1.0
		loStep, hiStep := 0.0, math.Inf(1)
		var xNew []float64
		var fNew float64
		var gNew []float64
		ok := false
		for ls := 0; ls < 50; ls++ {
			xNew = make([]float64, n)
			for i := range xNew {
				xNew[i] = x[i] + step*d[i]
			}
			fNew, gNew = obj(xNew)
			switch {
			case math.IsNaN(fNew) || math.IsInf(fNew, 0) || fNew > f+c1*step*dg:
				hiStep = step
				step = 0.5 * (loStep + hiStep)
			case dot(gNew, d) < c2*dg:
				loStep = step
				if math.IsInf(hiStep, 0) {
					step *= 2
				} else {
					step = 0.5 * (loStep + hiStep)
				}
			default:
				ok = true
			}
			if ok {
				break
			}
			if hiStep-loStep < 1e-16*(1+loStep) {
				// Interval collapsed: fall back to the best Armijo point if
				// one exists.
				ok = !math.IsNaN(fNew) && !math.IsInf(fNew, 0) && fNew <= f+c1*step*dg
				break
			}
		}
		if !ok {
			break // line search failed; accept current point
		}

		s := make([]float64, n)
		y := make([]float64, n)
		for i := range s {
			s[i] = xNew[i] - x[i]
			y[i] = gNew[i] - g[i]
		}
		sy := dot(s, y)
		if sy > 1e-12 {
			sList = append(sList, s)
			yList = append(yList, y)
			rhoList = append(rhoList, 1/sy)
			if len(sList) > history {
				sList = sList[1:]
				yList = yList[1:]
				rhoList = rhoList[1:]
			}
		}
		x, f, g = xNew, fNew, gNew
		if math.Abs(dot(s, s)) < 1e-20 {
			res.Converged = true
			break
		}
	}
	res.X = x
	res.F = f
	return res
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(y, x []float64, a float64) {
	for i := range y {
		y[i] += a * x[i]
	}
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }
