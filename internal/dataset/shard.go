package dataset

import (
	"context"
	"fmt"
	"math"
	"sort"

	"analogfold/internal/fault"
	"analogfold/internal/fault/inject"
	"analogfold/internal/grid"
	"analogfold/internal/parallel"
	"analogfold/internal/route"
)

// ShardSpec names one contiguous slice [Lo, Hi) of the deterministic sample
// index space. Because every index draws its guidance from a private RNG
// (guideAt), a spec fully determines its samples — any machine can generate
// any shard and the results merge bit-identical to a single-process run.
type ShardSpec struct {
	Index int `json:"index"` // shard ordinal, 0-based
	Lo    int `json:"lo"`    // first sample index, inclusive
	Hi    int `json:"hi"`    // last sample index, exclusive
}

// Samples returns the shard's sample count.
func (s ShardSpec) Samples() int { return s.Hi - s.Lo }

// Shards partitions [0, samples) into contiguous shards of at most shardSize
// samples (the last shard may be short). shardSize <= 0 selects
// DefaultShardSize.
func Shards(samples, shardSize int) []ShardSpec {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	var out []ShardSpec
	for lo := 0; lo < samples; lo += shardSize {
		hi := lo + shardSize
		if hi > samples {
			hi = samples
		}
		out = append(out, ShardSpec{Index: len(out), Lo: lo, Hi: hi})
	}
	return out
}

// ShardResult is one labeled shard — both the wire format of the
// /v1/dataset/shard endpoint and the on-disk format of the resumable
// generator's shard files. Entries holds the successfully labeled samples of
// [Lo, Hi) in index order; Dropped counts the ones that failed. Digest is the
// content digest over everything else, so a torn shard file or a corrupt
// replica response is detected before it can merge into a corpus.
type ShardResult struct {
	Circuit string  `json:"circuit"`
	NumNets int     `json:"num_nets"`
	CMax    float64 `json:"c_max"`
	Index   int     `json:"index"`
	Lo      int     `json:"lo"`
	Hi      int     `json:"hi"`
	Entries []Entry `json:"entries"`
	Dropped int     `json:"dropped"`
	Digest  string  `json:"digest"`
}

// Spec returns the shard's index-space coordinates.
func (sr *ShardResult) Spec() ShardSpec {
	return ShardSpec{Index: sr.Index, Lo: sr.Lo, Hi: sr.Hi}
}

// ComputeDigest returns the shard's content digest (same construction as the
// dataset digest: FNV-1a 64 over the compact JSON of every field but Digest).
func (sr *ShardResult) ComputeDigest() (string, error) {
	shadow := *sr
	shadow.Digest = ""
	b, err := marshalCompact(shadow)
	if err != nil {
		return "", err
	}
	return fnvDigest(b), nil
}

// SealDigest stamps the shard's content digest into Digest.
func (sr *ShardResult) SealDigest() error {
	dg, err := sr.ComputeDigest()
	if err != nil {
		return fmt.Errorf("dataset: shard %d: %w", sr.Index, err)
	}
	sr.Digest = dg
	return nil
}

// VerifyDigest recomputes the shard's content digest and checks it against
// the stamped one, returning fault.ErrShardCorrupt on mismatch. A shard with
// no stamped digest fails verification too — every producer in this codebase
// seals shards, so a missing digest means truncation or tampering.
func (sr *ShardResult) VerifyDigest() error {
	want, err := sr.ComputeDigest()
	if err != nil {
		return fault.Wrap(fault.StageDatabase, fault.ErrShardCorrupt, err,
			"dataset: shard %d [%d,%d)", sr.Index, sr.Lo, sr.Hi)
	}
	if sr.Digest != want {
		return fault.New(fault.StageDatabase, fault.ErrShardCorrupt,
			"dataset: shard %d [%d,%d): digest mismatch: header says %q, content is %q",
			sr.Index, sr.Lo, sr.Hi, sr.Digest, want)
	}
	return nil
}

// validate checks a deserialized shard's internal consistency beyond the
// digest: coordinates, guidance shapes, label finiteness.
func (sr *ShardResult) validate() error {
	if sr.NumNets <= 0 {
		return fault.New(fault.StageDatabase, fault.ErrInvalidInput,
			"dataset: shard %d: num_nets = %d, want > 0", sr.Index, sr.NumNets)
	}
	if sr.Lo < 0 || sr.Hi < sr.Lo {
		return fault.New(fault.StageDatabase, fault.ErrInvalidInput,
			"dataset: shard %d: bad range [%d,%d)", sr.Index, sr.Lo, sr.Hi)
	}
	if len(sr.Entries)+sr.Dropped != sr.Spec().Samples() {
		return fault.New(fault.StageDatabase, fault.ErrShardCorrupt,
			"dataset: shard %d [%d,%d): %d entries + %d dropped != %d samples",
			sr.Index, sr.Lo, sr.Hi, len(sr.Entries), sr.Dropped, sr.Spec().Samples())
	}
	for i, e := range sr.Entries {
		if len(e.C) != sr.NumNets*3 {
			return fault.New(fault.StageDatabase, fault.ErrInvalidInput,
				"dataset: shard %d entry %d: guidance length %d, want %d",
				sr.Index, i, len(e.C), sr.NumNets*3)
		}
		if !finiteLabels(e.Y) {
			return fault.New(fault.StageDatabase, fault.ErrInvalidInput,
				"dataset: shard %d entry %d carries a non-finite label %v", sr.Index, i, e.Y)
		}
	}
	return nil
}

// Verify runs the full trust check a shard must pass before merging:
// structural validation plus digest verification.
func (sr *ShardResult) Verify() error {
	if err := sr.validate(); err != nil {
		return err
	}
	return sr.VerifyDigest()
}

// GenerateShard labels the samples of one shard. Per-sample routing failures
// and non-finite labels degrade the shard (Dropped) rather than failing it;
// cancellation and deadlines abort it with a typed fault. The result is a
// pure function of (placement, cfg, sp) — identical on every machine — and
// arrives digest-sealed.
func GenerateShard(ctx context.Context, g *grid.Grid, cfg Config, sp ShardSpec) (*ShardResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	c := g.Place.Circuit
	numNets := len(c.Nets)
	n := sp.Samples()
	if sp.Lo < 0 || n <= 0 || sp.Hi > cfg.Samples {
		return nil, fault.New(fault.StageDatabase, fault.ErrInvalidInput,
			"dataset: shard %d: range [%d,%d) outside [0,%d)", sp.Index, sp.Lo, sp.Hi, cfg.Samples)
	}

	// Fan the labeling out over the shared pool. Per-sample failures are
	// recorded, not returned: an adversarial guidance draw must not abort the
	// shard, so the pool only sees nil errors here — except cancellation,
	// which must stop the remaining work.
	//
	// Each Router holds a few MB of per-cell lattice state, so building one
	// per sample dominated the shard's allocations. Routers are reused
	// instead: idle ones wait in a free list with room for one per worker,
	// and they are garbage once the shard returns.
	entries := make([]Entry, n)
	failed := make([]bool, n)
	idle := make(chan *route.Router, cfg.Workers)
	if err := parallel.ForEach(ctx, cfg.Workers, n, func(k int) error {
		gd := guideAt(cfg, numNets, sp.Lo+k)
		if inject.Fire(inject.DatasetLabelFail) {
			failed[k] = true
			return nil
		}
		var r *route.Router
		select {
		case r = <-idle:
		default:
			var err error
			if r, err = route.NewRouter(g, cfg.RouteCfg); err != nil {
				failed[k] = true
				return nil
			}
		}
		y, err := labelWith(ctx, r, g, gd)
		idle <- r
		if err != nil {
			if fault.IsTimeout(err) {
				return err
			}
			failed[k] = true
			return nil
		}
		if inject.Fire(inject.DatasetLabelNaN) {
			y[0] = math.NaN()
		}
		if !finiteLabels(y) {
			// A NaN/Inf label is dropped at the source: one poisoned sample
			// would otherwise propagate into every training loss it joins.
			failed[k] = true
			return nil
		}
		entries[k] = Entry{C: gd.Flat(), Y: y}
		return nil
	}); err != nil {
		return nil, fault.FromContext(fault.StageDatabase, err)
	}

	sr := &ShardResult{
		Circuit: c.Name, NumNets: numNets, CMax: cfg.CMax,
		Index: sp.Index, Lo: sp.Lo, Hi: sp.Hi,
	}
	for k := 0; k < n; k++ {
		if failed[k] {
			// Individual routing failures (rare, from adversarial guidance)
			// are dropped rather than aborting the shard, matching how data
			// collection farms tolerate failed runs.
			sr.Dropped++
			continue
		}
		sr.Entries = append(sr.Entries, entries[k])
	}
	if err := sr.SealDigest(); err != nil {
		return nil, err
	}
	return sr, nil
}

// MergeShards assembles verified shards into a dataset. The shards must tile
// [0, samples) exactly — contiguous, no gap, no overlap — and agree on their
// header fields; each shard's digest is re-verified so a corrupt shard caught
// here surfaces as fault.ErrShardCorrupt rather than a corrupt corpus. The
// half-empty degradation threshold (fewer than half the samples labeled →
// fault.ErrInfeasible) is enforced on the merged whole, exactly as the
// single-process generator always has.
func MergeShards(samples int, shards []*ShardResult) (*Dataset, error) {
	if len(shards) == 0 {
		return nil, fault.New(fault.StageDatabase, fault.ErrInvalidInput,
			"dataset: merge of zero shards")
	}
	ordered := append([]*ShardResult(nil), shards...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Lo < ordered[j].Lo })

	first := ordered[0]
	ds := &Dataset{Circuit: first.Circuit, NumNets: first.NumNets, CMax: first.CMax}
	next := 0
	for _, sr := range ordered {
		if err := sr.Verify(); err != nil {
			return nil, err
		}
		if sr.Circuit != ds.Circuit || sr.NumNets != ds.NumNets || sr.CMax != ds.CMax {
			return nil, fault.New(fault.StageDatabase, fault.ErrInvalidInput,
				"dataset: shard %d header (%s, %d nets, cmax %g) disagrees with shard %d (%s, %d nets, cmax %g)",
				sr.Index, sr.Circuit, sr.NumNets, sr.CMax, first.Index, first.Circuit, first.NumNets, first.CMax)
		}
		if sr.Lo != next {
			return nil, fault.New(fault.StageDatabase, fault.ErrInvalidInput,
				"dataset: shard coverage broken at sample %d: next shard starts at %d", next, sr.Lo)
		}
		next = sr.Hi
		ds.Entries = append(ds.Entries, sr.Entries...)
		ds.Dropped += sr.Dropped
	}
	if next != samples {
		return nil, fault.New(fault.StageDatabase, fault.ErrInvalidInput,
			"dataset: shards cover [0,%d), want [0,%d)", next, samples)
	}
	if len(ds.Entries) < samples/2 {
		return nil, fault.New(fault.StageDatabase, fault.ErrInfeasible,
			"dataset: only %d/%d samples succeeded", len(ds.Entries), samples)
	}
	return ds, nil
}
