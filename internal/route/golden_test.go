package route_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"analogfold/internal/circuit"
	"analogfold/internal/extract"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/obs"
	"analogfold/internal/place"
	"analogfold/internal/route"
	"analogfold/internal/tech"
)

// The golden-equivalence suite pins the router's exact output on every OTA
// benchmark: the routed cell set (as an FNV-1a digest), the Result totals,
// and the Table-2 metrics obtained through the extract → simulate chain.
// The file testdata/golden_route.json was recorded from the pre-optimization
// router, so any divergence means a hot-path change altered behavior instead
// of just speed. Regenerate deliberately with:
//
//	go test ./internal/route/ -run TestGoldenEquivalence -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_route.json from the current router")

// goldenEntry is one benchmark's pinned routing outcome.
type goldenEntry struct {
	WirelengthNm int    `json:"wirelength_nm"`
	Vias         int    `json:"vias"`
	Iterations   int    `json:"iterations"`
	CellsDigest  string `json:"cells_digest"` // FNV-1a64 over per-net sorted cell indices
	NumCells     int    `json:"num_cells"`

	// Table-2 metrics through extract → simulate on the routed layout.
	OffsetUV     float64 `json:"offset_uv"`
	CMRRdB       float64 `json:"cmrr_db"`
	BandwidthMHz float64 `json:"bandwidth_mhz"`
	GainDB       float64 `json:"gain_db"`
	NoiseUVrms   float64 `json:"noise_uvrms"`
}

func goldenPath() string { return filepath.Join("testdata", "golden_route.json") }

// goldenGrid places one benchmark at profile A (seed 1) and builds its grid:
// the fixed input every golden entry routes on.
func goldenGrid(t testing.TB, name string, c *netlist.Circuit) *grid.Grid {
	t.Helper()
	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: 1, Iterations: 2000})
	if err != nil {
		t.Fatalf("%s: place: %v", name, err)
	}
	g, err := grid.Build(p, tech.Sim40())
	if err != nil {
		t.Fatalf("%s: grid: %v", name, err)
	}
	return g
}

// routeGoldenEntry routes one benchmark with uniform guidance and digests
// the outcome.
func routeGoldenEntry(t testing.TB, name string, c *netlist.Circuit) goldenEntry {
	t.Helper()
	g := goldenGrid(t, name, c)
	res, err := route.Route(g, guidance.Uniform(len(c.Nets)), route.Config{})
	if err != nil {
		t.Fatalf("%s: route: %v", name, err)
	}
	return digestGolden(t, name, g, res)
}

// digestGolden digests a routed result. Result cells are emitted in
// ascending index order by the router, so hashing every net's cell indices
// in net order is exact and deterministic — any added, removed, or moved
// cell changes the digest.
func digestGolden(t testing.TB, name string, g *grid.Grid, res *route.Result) goldenEntry {
	t.Helper()
	c := g.Place.Circuit
	h := fnv.New64a()
	total := 0
	var buf [8]byte
	for ni, cells := range res.NetCells {
		buf[0], buf[1], buf[2], buf[3] = byte(ni), byte(ni>>8), 0xfe, 0xca
		h.Write(buf[:4])
		for _, cell := range cells {
			idx := uint64(g.CellIndex(cell))
			for b := 0; b < 8; b++ {
				buf[b] = byte(idx >> (8 * b))
			}
			h.Write(buf[:])
			total++
		}
	}

	par := extract.Extract(g, res)
	m, merr := circuit.Evaluate(c, par)
	if merr != nil {
		t.Fatalf("%s: evaluate: %v", name, merr)
	}
	return goldenEntry{
		WirelengthNm: res.WirelengthNm,
		Vias:         res.Vias,
		Iterations:   res.Iterations,
		CellsDigest:  fmt.Sprintf("%016x", h.Sum64()),
		NumCells:     total,
		OffsetUV:     m.OffsetUV,
		CMRRdB:       m.CMRRdB,
		BandwidthMHz: m.BandwidthMHz,
		GainDB:       m.GainDB,
		NoiseUVrms:   m.NoiseUVrms,
	}
}

func goldenBenchmarks() map[string]*netlist.Circuit {
	return map[string]*netlist.Circuit{
		"OTA1": netlist.OTA1(),
		"OTA2": netlist.OTA2(),
		"OTA3": netlist.OTA3(),
		"OTA4": netlist.OTA4(),
	}
}

// TestGoldenEquivalence asserts the router reproduces the pinned pre-change
// outputs bit-for-bit on OTA1–OTA4 with the default config.
func TestGoldenEquivalence(t *testing.T) {
	got := map[string]goldenEntry{}
	for name, c := range goldenBenchmarks() {
		got[name] = routeGoldenEntry(t, name, c)
	}
	checkGolden(t, goldenPath(), got)
}

// guidedDraw is one seeded guidance.Sample draw of the random-guidance
// golden, routed under cfg.
type guidedDraw struct {
	seed int64
	cfg  route.Config
}

// guidedDraws are routed on every OTA. Random guidance exercises what
// uniform guidance cannot: per-net multipliers, per-axis cost asymmetry and
// a heuristic scale below 1. The MaxIters 1 draw stops negotiation while
// conflicts remain, so the hard (foreign cells blocked) post-pass runs.
var guidedDraws = []guidedDraw{
	{seed: 1},
	{seed: 2},
	{seed: 3, cfg: route.Config{MaxIters: 1}},
}

// TestGoldenRandomGuidance pins the router's exact output under seeded
// random guidance draws, the regime dataset labeling runs in. The file
// testdata/golden_route_guided.json is regenerated like golden_route.json:
//
//	go test ./internal/route/ -run TestGoldenRandomGuidance -update-golden
func TestGoldenRandomGuidance(t *testing.T) {
	got := map[string]goldenEntry{}
	postPasses := 0
	for name, c := range goldenBenchmarks() {
		g := goldenGrid(t, name, c)
		for _, d := range guidedDraws {
			key := fmt.Sprintf("%s/seed%d/maxiters%d", name, d.seed, d.cfg.MaxIters)
			gd := guidance.Sample(len(c.Nets), rand.New(rand.NewSource(d.seed)), guidance.DefaultCMax)
			tel := obs.New(obs.Options{Seed: 1})
			res, err := route.RouteCtx(obs.WithTelemetry(context.Background(), tel), g, gd, d.cfg)
			if err != nil {
				t.Fatalf("%s: route: %v", key, err)
			}
			for _, e := range tel.Recorder().Snapshot() {
				if e.Name == "route.post" {
					postPasses++
					break
				}
			}
			got[key] = digestGolden(t, key, g, res)
		}
	}
	if postPasses == 0 {
		t.Fatal("no draw reached the hard post-pass; the golden would not cover it")
	}
	checkGolden(t, guidedGoldenPath(), got)
}

func guidedGoldenPath() string { return filepath.Join("testdata", "golden_route_guided.json") }

// checkGolden compares got against the golden file at path, or rewrites the
// file under -update-golden.
func checkGolden(t *testing.T, path string, got map[string]goldenEntry) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden %s has %d entries, run produced %d", path, len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from run", name)
			continue
		}
		if g.CellsDigest != w.CellsDigest || g.NumCells != w.NumCells {
			t.Errorf("%s: routed cells diverged: digest %s/%d cells, want %s/%d",
				name, g.CellsDigest, g.NumCells, w.CellsDigest, w.NumCells)
		}
		if g.WirelengthNm != w.WirelengthNm || g.Vias != w.Vias || g.Iterations != w.Iterations {
			t.Errorf("%s: totals diverged: wl=%d vias=%d iters=%d, want wl=%d vias=%d iters=%d",
				name, g.WirelengthNm, g.Vias, g.Iterations, w.WirelengthNm, w.Vias, w.Iterations)
		}
		for _, m := range []struct {
			label     string
			got, want float64
		}{
			{"offset_uv", g.OffsetUV, w.OffsetUV},
			{"cmrr_db", g.CMRRdB, w.CMRRdB},
			{"bandwidth_mhz", g.BandwidthMHz, w.BandwidthMHz},
			{"gain_db", g.GainDB, w.GainDB},
			{"noise_uvrms", g.NoiseUVrms, w.NoiseUVrms},
		} {
			if math.Abs(m.got-m.want) > 1e-9*math.Max(1, math.Abs(m.want)) {
				t.Errorf("%s: Table-2 metric %s = %.12g, want %.12g", name, m.label, m.got, m.want)
			}
		}
	}
}
