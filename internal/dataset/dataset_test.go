package dataset

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/netlist"
	"analogfold/internal/place"
	"analogfold/internal/route"
	"analogfold/internal/tech"
)

func buildGrid(t testing.TB, c *netlist.Circuit, seed int64) *grid.Grid {
	t.Helper()
	p, err := place.Place(c, place.Config{Profile: place.ProfileA, Seed: seed, Iterations: 1500})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	g, err := grid.Build(p, tech.Sim40())
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g
}

func TestGenerateSmall(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 1)
	ds, err := Generate(context.Background(), g, Config{Samples: 6, Seed: 1, IncludeUniform: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Entries) < 4 {
		t.Fatalf("too few entries: %d", len(ds.Entries))
	}
	if ds.NumNets != len(g.Place.Circuit.Nets) {
		t.Errorf("NumNets = %d", ds.NumNets)
	}
	for i, e := range ds.Entries {
		if len(e.C) != ds.NumNets*3 {
			t.Fatalf("entry %d guidance size %d", i, len(e.C))
		}
		if e.Y[2] <= 0 { // bandwidth must be positive
			t.Errorf("entry %d has bandwidth %g", i, e.Y[2])
		}
		if e.Y[4] <= 0 { // noise must be positive
			t.Errorf("entry %d has noise %g", i, e.Y[4])
		}
	}
}

func TestLabelsDependOnGuidance(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 2)
	n := len(g.Place.Circuit.Nets)
	y1, err := Label(context.Background(), g, guidance.Uniform(n), route.Config{})
	if err != nil {
		t.Fatal(err)
	}
	skew := guidance.Uniform(n)
	for i := range skew.PerNet {
		skew.PerNet[i] = guidance.Vec{1.8, 0.2, 1.5}
	}
	y2, err := Label(context.Background(), g, skew, route.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if y1 == y2 {
		t.Errorf("labels identical under different guidance: %v", y1)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := buildGrid(t, netlist.OTA2(), 3)
	ds, err := Generate(context.Background(), g, Config{Samples: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Circuit != ds.Circuit || len(back.Entries) != len(ds.Entries) {
		t.Fatalf("round trip mismatch")
	}
	if back.Entries[0].Y != ds.Entries[0].Y {
		t.Errorf("labels corrupted in round trip")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestLoadRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(path, `{"circuit":"x","num_nets":3,"entries":[{"c":[1,2],"y":[0,0,0,0,0]}]}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Errorf("corrupt dataset must be rejected")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Errorf("missing file must error")
	}
}

func TestSamplesConversion(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 4)
	ds, err := Generate(context.Background(), g, Config{Samples: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ss := ds.Samples()
	if len(ss) != len(ds.Entries) {
		t.Fatalf("sample count %d", len(ss))
	}
	for _, s := range ss {
		if s.C.Shape[0] != ds.NumNets || s.C.Shape[1] != 3 {
			t.Fatalf("sample C shape %v", s.C.Shape)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 5)
	d1, err := Generate(context.Background(), g, Config{Samples: 4, Seed: 9, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(context.Background(), g, Config{Samples: 4, Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Entries) != len(d2.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(d1.Entries), len(d2.Entries))
	}
	for i := range d1.Entries {
		if d1.Entries[i].Y != d2.Entries[i].Y {
			t.Errorf("entry %d labels differ across worker counts", i)
		}
	}
}

// routerRecordBytes is the size of the router's per-cell search record, a
// lower bound on one Router's lattice footprint per cell.
const routerRecordBytes = 48

// TestRouterReuseAllocs pins Router reuse across the samples of a shard: with
// one worker, each sample beyond the fourth may allocate less than one
// Router's lattice, so no sample builds its own Router. Reuse must not change
// a label either: every entry equals a fresh-Router Label of its guidance.
func TestRouterReuseAllocs(t *testing.T) {
	g := buildGrid(t, netlist.OTA1(), 1)
	allocated := func(samples int) (uint64, *Dataset) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds, err := Generate(context.Background(), g, Config{Samples: samples, Seed: 3, Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, ds
	}
	a4, _ := allocated(4)
	a8, ds := allocated(8)
	footprint := uint64(g.NumCells() * routerRecordBytes)
	if perSample := (a8 - a4) / 4; perSample >= footprint {
		t.Errorf("each extra sample allocates %d bytes, want < %d (one Router's lattice)", perSample, footprint)
	}

	if ds.Dropped != 0 {
		t.Fatalf("%d samples dropped; entries no longer line up with sample indices", ds.Dropped)
	}
	cfg := Config{Samples: 8, Seed: 3}.withDefaults()
	for i, e := range ds.Entries {
		y, err := Label(context.Background(), g, guideAt(cfg, ds.NumNets, i), route.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if y != e.Y {
			t.Errorf("sample %d: reused-Router label %v, fresh-Router label %v", i, e.Y, y)
		}
	}
}
