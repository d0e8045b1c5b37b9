// Package viz renders placements, routed layouts (Figure 6), and the 3D
// non-uniform guidance point clouds (Figure 1b) to SVG and CSV.
package viz

import (
	"fmt"
	"strings"

	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/route"
)

// layerColors maps routing layers to SVG strokes.
var layerColors = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
}

// RoutingSVG renders a routed layout: device outlines, pin pads, and wire
// segments colored per layer.
func RoutingSVG(g *grid.Grid, res *route.Result, title string) string {
	p := g.Place
	scale := 0.02 // nm → px
	w := float64(p.Die.Hi.X) * scale
	h := float64(p.Die.Hi.Y) * scale
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n", w+20, h+40, w+20, h+40)
	fmt.Fprintf(&b, `<text x="10" y="16" font-family="monospace" font-size="12">%s</text>`+"\n", title)
	fmt.Fprintf(&b, `<g transform="translate(10,30)">`+"\n")
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%.1f" height="%.1f" fill="#fafafa" stroke="#999"/>`+"\n", w, h)

	// Device cells.
	for i, d := range p.Circuit.Devices {
		r := p.DeviceRect(i)
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#e8e8f0" stroke="#555" stroke-width="0.5"/>`+"\n",
			float64(r.Lo.X)*scale, h-float64(r.Hi.Y)*scale, float64(r.W())*scale, float64(r.H())*scale)
		c := r.Center()
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="monospace" font-size="5" text-anchor="middle">%s</text>`+"\n",
			float64(c.X)*scale, h-float64(c.Y)*scale, d.Name)
	}

	// Symmetry axis.
	fmt.Fprintf(&b, `<line x1="%.1f" y1="0" x2="%.1f" y2="%.1f" stroke="#cc0000" stroke-dasharray="4,3" stroke-width="0.6"/>`+"\n",
		float64(p.Axis)*scale, float64(p.Axis)*scale, h)

	// Wires.
	if res != nil {
		for _, segs := range res.NetSegs {
			for _, s := range segs {
				if s.IsVia() {
					pos := g.CellPos(s.A)
					fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="1.2" fill="#222"/>`+"\n",
						float64(pos.X)*scale, h-float64(pos.Y)*scale)
					continue
				}
				a := g.CellPos(s.A)
				bb := g.CellPos(s.B)
				col := layerColors[s.A.Z%len(layerColors)]
				fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1.0" stroke-linecap="round"/>`+"\n",
					float64(a.X)*scale, h-float64(a.Y)*scale,
					float64(bb.X)*scale, h-float64(bb.Y)*scale, col)
			}
		}
	}

	// Pin pads.
	for _, ap := range g.APs {
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="1.6" height="1.6" fill="#333"/>`+"\n",
			float64(ap.Pos.X)*scale-0.8, h-float64(ap.Pos.Y)*scale-0.8)
	}
	b.WriteString("</g>\n</svg>\n")
	return b.String()
}

// GuidanceCSV dumps the Figure-1b point cloud: one line per access point with
// its position and its net's guidance vector.
func GuidanceCSV(g *grid.Grid, gd guidance.Set) string {
	var b strings.Builder
	b.WriteString("net,terminal,x_nm,y_nm,layer,cx,cy,cz\n")
	for _, ap := range g.APs {
		v := gd.PerNet[ap.Net]
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d,%.4f,%.4f,%.4f\n",
			g.Place.Circuit.Nets[ap.Net].Name, ap.Terminal,
			ap.Pos.X, ap.Pos.Y, ap.Cell.Z, v[0], v[1], v[2])
	}
	return b.String()
}

// GuidanceSVG renders the non-uniform guidance as per-AP glyphs: each access
// point draws a cross whose horizontal arm is long when x routing is cheap
// (C[0] small) and vertical arm long when y routing is cheap — Figure 1(a).
func GuidanceSVG(g *grid.Grid, gd guidance.Set, title string) string {
	p := g.Place
	scale := 0.02
	w := float64(p.Die.Hi.X) * scale
	h := float64(p.Die.Hi.Y) * scale
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n", w+20, h+40, w+20, h+40)
	fmt.Fprintf(&b, `<text x="10" y="16" font-family="monospace" font-size="12">%s</text>`+"\n", title)
	fmt.Fprintf(&b, `<g transform="translate(10,30)">`+"\n")
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%.1f" height="%.1f" fill="#fafafa" stroke="#999"/>`+"\n", w, h)
	for i := range p.Circuit.Devices {
		r := p.DeviceRect(i)
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#bbb" stroke-width="0.4"/>`+"\n",
			float64(r.Lo.X)*scale, h-float64(r.Hi.Y)*scale, float64(r.W())*scale, float64(r.H())*scale)
	}
	for _, ap := range g.APs {
		v := gd.PerNet[ap.Net]
		cx := float64(ap.Pos.X) * scale
		cy := h - float64(ap.Pos.Y)*scale
		// Arm length inversely proportional to cost: cheap direction = long.
		ax := 6.0 / (0.3 + v[0])
		ay := 6.0 / (0.3 + v[1])
		zShade := int(200 - 80*v[2])
		col := fmt.Sprintf("rgb(%d,60,%d)", 255-zShade, zShade)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="0.9"/>`+"\n",
			cx-ax, cy, cx+ax, cy, col)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="0.9"/>`+"\n",
			cx, cy-ay, cx, cy+ay, col)
	}
	b.WriteString("</g>\n</svg>\n")
	return b.String()
}
