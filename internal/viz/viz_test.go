package viz

import (
	"strings"
	"testing"

	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/route"
	"analogfold/internal/tech"
)

func routed(t *testing.T) (*grid.Grid, *route.Result) {
	t.Helper()
	c := netlist.OTA1()
	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: 1, Iterations: 1200})
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.Build(p, tech.Sim40())
	if err != nil {
		t.Fatal(err)
	}
	res, err := route.Route(g, guidance.Uniform(len(c.Nets)), route.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func TestRoutingSVG(t *testing.T) {
	g, res := routed(t)
	svg := RoutingSVG(g, res, "OTA1 AnalogFold")
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatalf("not an SVG document")
	}
	for _, frag := range []string{"OTA1 AnalogFold", "<line", "<rect", "MN1"} {
		if !strings.Contains(svg, frag) {
			t.Errorf("SVG missing %q", frag)
		}
	}
	// Placement-only rendering works too.
	if !strings.Contains(RoutingSVG(g, nil, "placement"), "<rect") {
		t.Errorf("placement-only SVG broken")
	}
}

func TestGuidanceCSV(t *testing.T) {
	g, _ := routed(t)
	gd := guidance.Uniform(len(g.Place.Circuit.Nets))
	csv := GuidanceCSV(g, gd)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(g.APs)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(g.APs)+1)
	}
	if !strings.HasPrefix(lines[0], "net,terminal") {
		t.Errorf("missing header: %q", lines[0])
	}
	if !strings.Contains(csv, "VINP") {
		t.Errorf("missing net names")
	}
}

func TestGuidanceSVG(t *testing.T) {
	g, _ := routed(t)
	gd := guidance.Uniform(len(g.Place.Circuit.Nets))
	gd.PerNet[0] = guidance.Vec{0.2, 1.8, 1.0}
	svg := GuidanceSVG(g, gd, "guides")
	if !strings.Contains(svg, "<line") || !strings.Contains(svg, "guides") {
		t.Errorf("guidance SVG incomplete")
	}
}
