// Package dataset generates the 3DGNN training data: the paper collects
// samples by routing a target design under many guidance assignments and
// measuring post-layout performance of each (2000 samples over 5 hosts). The
// reproduction does the same loop — sample C → guided route → extract
// parasitics → MNA simulation → labels — fanned out over goroutines, and can
// serialize datasets to JSON for reuse.
//
// The sample index space is deterministic and position-independent: sample i
// draws its guidance from a private splitmix64-derived RNG keyed on (seed, i),
// never from a shared sequential stream. That is what makes the corpus
// shardable — any contiguous index range can be generated on any machine and
// the ranges merge bit-identical to a single-process run (shard.go), which the
// cluster tier exploits for distributed generation with crash-safe resume
// (manifest.go, internal/cluster).
package dataset

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"

	"analogfold/internal/atomicfile"
	"analogfold/internal/circuit"
	"analogfold/internal/extract"
	"analogfold/internal/fault"
	"analogfold/internal/gnn3d"
	"analogfold/internal/grid"
	"analogfold/internal/guidance"
	"analogfold/internal/parallel"
	"analogfold/internal/route"
	"analogfold/internal/tensor"
)

// Entry is one serializable sample.
type Entry struct {
	C []float64                 `json:"c"` // flat guidance, [numNets*3]
	Y [gnn3d.NumMetrics]float64 `json:"y"` // offset µV, CMRR dB, BW MHz, gain dB, noise µVrms
}

// Dataset is a labeled corpus for one (circuit, placement).
type Dataset struct {
	Circuit string  `json:"circuit"`
	NumNets int     `json:"num_nets"`
	CMax    float64 `json:"c_max"`
	Entries []Entry `json:"entries"`
	// Dropped counts samples whose labeling failed and were left out of
	// Entries — the corpus degraded rather than aborting.
	Dropped int `json:"dropped,omitempty"`
	// Digest is the content digest written by Save and verified by Load, so a
	// torn or bit-rotted cache file is rejected instead of silently trained
	// on. Legacy digest-less files still load.
	Digest string `json:"digest,omitempty"`
}

// Config controls generation.
type Config struct {
	Samples  int
	Workers  int // 0: GOMAXPROCS (the paper's "5 hosts" becomes worker goroutines)
	Seed     int64
	CMax     float64
	RouteCfg route.Config
	// IncludeUniform adds one neutral-guidance sample (the unguided
	// baseline's operating point) to anchor the dataset. It occupies sample
	// index 0 of the deterministic index space.
	IncludeUniform bool
	// ShardSize is the sample count per shard for the sharded/resumable and
	// distributed generation paths (0: 32). Plain Generate ignores it — the
	// merged output is bit-identical for every shard size by construction.
	ShardSize int
}

// DefaultShardSize is the shard granularity when Config.ShardSize is zero.
const DefaultShardSize = 32

func (c Config) withDefaults() Config {
	if c.Samples == 0 {
		c.Samples = 64
	}
	c.Workers = parallel.Workers(c.Workers)
	if c.CMax == 0 {
		c.CMax = guidance.DefaultCMax
	}
	if c.ShardSize <= 0 {
		c.ShardSize = DefaultShardSize
	}
	return c
}

// sampleSalt decorrelates the dataset's per-index RNG streams from every
// other consumer of parallel.SeedFor running under the same experiment seed
// (relaxation restarts, Monte Carlo draws).
const sampleSalt = 0x64617461736574 // "dataset"

// guideAt returns sample i's guidance draw: the uniform anchor at index 0
// when configured, otherwise an independent draw from a private RNG keyed on
// (seed, i). Pure function of (cfg, numNets, i) — the property every shard
// and resume invariant rests on.
func guideAt(cfg Config, numNets, i int) guidance.Set {
	if cfg.IncludeUniform && i == 0 {
		return guidance.Uniform(numNets)
	}
	rng := rand.New(rand.NewSource(parallel.SeedFor(cfg.Seed^sampleSalt, i)))
	return guidance.Sample(numNets, rng, cfg.CMax)
}

// Label routes the design under gd on a fresh Router and measures the five
// metrics.
func Label(ctx context.Context, g *grid.Grid, gd guidance.Set, rcfg route.Config) ([gnn3d.NumMetrics]float64, error) {
	r, err := route.NewRouter(g, rcfg)
	if err != nil {
		return [gnn3d.NumMetrics]float64{}, fmt.Errorf("dataset: route: %w", err)
	}
	return labelWith(ctx, r, g, gd)
}

// labelWith is Label on a caller-owned Router over g. RunCtx resets the
// Router's routing state, so a reused Router labels exactly like a fresh one.
func labelWith(ctx context.Context, r *route.Router, g *grid.Grid, gd guidance.Set) ([gnn3d.NumMetrics]float64, error) {
	var y [gnn3d.NumMetrics]float64
	res, err := r.RunCtx(ctx, gd)
	if err != nil {
		return y, fmt.Errorf("dataset: route: %w", err)
	}
	par := extract.Extract(g, res)
	m, err := circuit.Evaluate(g.Place.Circuit, par)
	if err != nil {
		return y, fmt.Errorf("dataset: simulate: %w", err)
	}
	return [gnn3d.NumMetrics]float64{m.OffsetUV, m.CMRRdB, m.BandwidthMHz, m.GainDB, m.NoiseUVrms}, nil
}

// finiteLabels reports whether every metric is a finite number. A NaN or ±Inf
// label is numeric poison: one such sample propagates into every training
// loss it participates in, so Generate drops it and Load rejects it.
func finiteLabels(y [gnn3d.NumMetrics]float64) bool {
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Generate builds a dataset for the placement behind g. Labeling observes
// ctx: cancellation or a deadline aborts the fan-out and surfaces as a typed
// fault; individual routing failures degrade the corpus instead of killing
// it, up to the half-empty threshold enforced by MergeShards. Structurally it
// is the one-shard special case of the distributed path — generate the full
// index range, merge — which is what pins distributed output to it
// bit-for-bit.
func Generate(ctx context.Context, g *grid.Grid, cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	sr, err := GenerateShard(ctx, g, cfg, ShardSpec{Index: 0, Lo: 0, Hi: cfg.Samples})
	if err != nil {
		return nil, err
	}
	return MergeShards(cfg.Samples, []*ShardResult{sr})
}

// Samples converts the dataset into gnn3d training samples.
func (d *Dataset) Samples() []gnn3d.Sample {
	out := make([]gnn3d.Sample, len(d.Entries))
	for i, e := range d.Entries {
		out[i] = gnn3d.Sample{
			C: tensor.FromSlice(append([]float64(nil), e.C...), d.NumNets, 3),
			Y: e.Y,
		}
	}
	return out
}

// digestPayload is the digest-covered projection of a dataset: every field
// except the digest itself, in a fixed order.
type digestPayload struct {
	Circuit string  `json:"circuit"`
	NumNets int     `json:"num_nets"`
	CMax    float64 `json:"c_max"`
	Entries []Entry `json:"entries"`
	Dropped int     `json:"dropped"`
}

// marshalCompact renders the canonical (compact JSON) digest payload of v.
func marshalCompact(v any) ([]byte, error) {
	return json.Marshal(v)
}

// fnvDigest formats the repo's content-digest string: FNV-1a 64 over b as
// "fnv1a:<16 hex>".
func fnvDigest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// digestOf renders the canonical content digest: FNV-1a 64 over the compact
// JSON of the digest payload.
func digestOf(p digestPayload) (string, error) {
	b, err := marshalCompact(p)
	if err != nil {
		return "", err
	}
	return fnvDigest(b), nil
}

// ComputeDigest returns the dataset's content digest (the value Save stores
// in Digest and Load verifies).
func (d *Dataset) ComputeDigest() (string, error) {
	return digestOf(digestPayload{
		Circuit: d.Circuit, NumNets: d.NumNets, CMax: d.CMax,
		Entries: d.Entries, Dropped: d.Dropped,
	})
}

// Marshal renders the dataset exactly as Save writes it (digest stamped,
// indented JSON). The coordinator's /v1/dataset endpoint serves these same
// bytes, so a dataset fetched over the cluster and one generated locally are
// byte-identical files.
func (d *Dataset) Marshal() ([]byte, error) {
	dg, err := d.ComputeDigest()
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	d.Digest = dg
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return b, nil
}

// Save writes the dataset as JSON, atomically (temp + rename), so a crash
// mid-save never leaves a torn dataset for LoadOrGenerateDataset to reject.
// The content digest is stamped into the file for Load to verify.
func (d *Dataset) Save(path string) error {
	b, err := d.Marshal()
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// validate checks a deserialized dataset's internal consistency: digest (when
// present), shape of every guidance vector, and label finiteness. Shared by
// Load and the shard-file loader.
func (d *Dataset) validate(path string) error {
	if d.NumNets <= 0 {
		return fault.New(fault.StageDatabase, fault.ErrInvalidInput,
			"dataset: num_nets = %d, want > 0", d.NumNets)
	}
	if d.Digest != "" {
		want, err := d.ComputeDigest()
		if err != nil {
			return fault.Wrap(fault.StageDatabase, fault.ErrInvalidInput, err, "dataset: %s", path)
		}
		if d.Digest != want {
			return fault.New(fault.StageDatabase, fault.ErrInvalidInput,
				"dataset: %s: content digest mismatch: file says %s, content is %s", path, d.Digest, want)
		}
	}
	for i, e := range d.Entries {
		// Validated here with TryFromSlice so Samples (which has no error
		// path) can use the panicking constructor on already-checked data.
		if _, err := tensor.TryFromSlice(e.C, d.NumNets, 3); err != nil {
			return fault.Wrap(fault.StageDatabase, fault.ErrInvalidInput, err,
				"dataset: entry %d", i)
		}
		if !finiteLabels(e.Y) {
			return fault.New(fault.StageDatabase, fault.ErrInvalidInput,
				"dataset: entry %d carries a non-finite label %v", i, e.Y)
		}
	}
	return nil
}

// Load reads a dataset from JSON, verifying the content digest when the file
// carries one (legacy digest-less files still load) and rejecting non-finite
// labels — a torn, bit-rotted or hand-poisoned cache file surfaces as a typed
// fault instead of training garbage.
func Load(path string) (*Dataset, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var d Dataset
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fault.Wrap(fault.StageDatabase, fault.ErrInvalidInput, err, "dataset: %s", path)
	}
	if err := d.validate(path); err != nil {
		return nil, err
	}
	return &d, nil
}
