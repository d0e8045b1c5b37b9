package extract

import (
	"testing"

	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/route"
	"analogfold/internal/tech"
)

func routed(t testing.TB, c *netlist.Circuit, seed int64) (*grid.Grid, *route.Result) {
	t.Helper()
	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: seed, Iterations: 2000})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	g, err := grid.Build(p, tech.Sim40())
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	res, err := route.Route(g, guidance.Uniform(len(c.Nets)), route.Config{})
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	return g, res
}

func TestExtractBasics(t *testing.T) {
	g, res := routed(t, netlist.OTA1(), 1)
	p := Extract(g, res)
	c := g.Place.Circuit
	if len(p.Net) != len(c.Nets) {
		t.Fatalf("extracted %d nets, want %d", len(p.Net), len(c.Nets))
	}
	for ni, np := range p.Net {
		if np.C <= 0 {
			t.Errorf("net %s has non-positive capacitance %g", c.Nets[ni].Name, np.C)
		}
		if np.R < 0 {
			t.Errorf("net %s has negative resistance", c.Nets[ni].Name)
		}
	}
}

func TestParasiticMagnitudes(t *testing.T) {
	// Wire parasitics must land in 40 nm-class ranges: tens of ohms to a few
	// kohm of resistance, femtofarads of capacitance.
	g, res := routed(t, netlist.OTA1(), 2)
	p := Extract(g, res)
	for ni, np := range p.Net {
		if np.Length == 0 {
			continue
		}
		if np.R < 0.5 || np.R > 2e4 {
			t.Errorf("net %d R = %g ohm out of plausible range (len %d nm)", ni, np.R, np.Length)
		}
		if np.C < 1e-17 || np.C > 1e-13 {
			t.Errorf("net %d C = %g F out of plausible range", ni, np.C)
		}
	}
}

func TestCouplingSymmetricAccess(t *testing.T) {
	g, res := routed(t, netlist.OTA1(), 3)
	p := Extract(g, res)
	for k, v := range p.Coupling {
		if k[0] >= k[1] {
			t.Errorf("coupling key %v not ordered", k)
		}
		if v <= 0 {
			t.Errorf("coupling %v = %g not positive", k, v)
		}
	}
}

func TestCouplingExists(t *testing.T) {
	// A routed OTA has adjacent wires; there must be some coupling extracted.
	g, res := routed(t, netlist.OTA1(), 4)
	p := Extract(g, res)
	if len(p.Coupling) == 0 {
		t.Errorf("no coupling extracted from a dense routed design")
	}
}

func TestLongerWireMoreParasitics(t *testing.T) {
	g, res := routed(t, netlist.OTA1(), 5)
	p := Extract(g, res)
	// Across nets, length and capacitance correlate: the longest net must
	// have more C than the shortest wired net.
	minI, maxI := -1, -1
	for ni, np := range p.Net {
		if np.Length == 0 {
			continue
		}
		if minI < 0 || np.Length < p.Net[minI].Length {
			minI = ni
		}
		if maxI < 0 || np.Length > p.Net[maxI].Length {
			maxI = ni
		}
	}
	if minI < 0 || maxI < 0 || minI == maxI {
		t.Skip("not enough wired nets")
	}
	if p.Net[maxI].C <= p.Net[minI].C {
		t.Errorf("longest net C %g not above shortest net C %g", p.Net[maxI].C, p.Net[minI].C)
	}
}

func TestPairAsymmetry(t *testing.T) {
	g, res := routed(t, netlist.OTA1(), 6)
	p := Extract(g, res)
	c := g.Place.Circuit
	for _, pr := range c.SymNetPairs {
		a := p.PairAsymmetry(pr[0], pr[1])
		if a.DeltaR < 0 || a.DeltaC < 0 {
			t.Errorf("asymmetry must be non-negative: %+v", a)
		}
		if p.PairAsymmetry(pr[1], pr[0]) != a {
			t.Errorf("asymmetry must be order-independent")
		}
	}
}

func TestTotalCoupling(t *testing.T) {
	p := &Parasitics{
		Net:      make([]NetParasitics, 3),
		Coupling: map[[2]int]float64{{0, 1}: 1e-15, {1, 2}: 2e-15},
	}
	if got := p.TotalCoupling(1); got < 2.99e-15 || got > 3.01e-15 {
		t.Errorf("TotalCoupling(1) = %g", got)
	}
	if got := p.TotalCoupling(0); got != 1e-15 {
		t.Errorf("TotalCoupling(0) = %g", got)
	}
}

func TestMirroredRoutingLowAsymmetry(t *testing.T) {
	// The symmetric input pair should extract with noticeably lower relative
	// capacitance asymmetry than a random pair of unrelated wired nets, thanks
	// to mirrored routing.
	g, res := routed(t, netlist.OTA1(), 7)
	p := Extract(g, res)
	c := g.Place.Circuit
	inp, _ := c.NetByName("VINP")
	inn, _ := c.NetByName("VINN")
	a := p.PairAsymmetry(inp, inn)
	cp := p.Net[inp].C + p.TotalCoupling(inp)
	rel := a.DeltaC / cp
	if rel > 0.5 {
		t.Errorf("input pair capacitance asymmetry %.2f%% unexpectedly high", rel*100)
	}
}
