package serve

import (
	"context"
	"sync"
	"time"

	"analogfold/internal/core"
	"analogfold/internal/fault"
	"analogfold/internal/hetgraph"
	"analogfold/internal/obs"
	"analogfold/internal/relax"
)

// batcher coalesces concurrent model-path /v1/guidance requests for the same
// benchmark into scoring waves. Each member still runs its own relaxation
// concurrently (seeds and restart budgets differ per request, and relaxation
// dominates the latency), but the final candidate-scoring pass — one
// PredictBatch per request on the unbatched path — runs once per wave over
// every member's stacked candidates.
//
// Wave composition cannot change any response: ForwardBatch is
// row-independent, so each member's prediction rows are bit-identical to
// scoring that member alone (-batch-window=0 is the pinned reference path).
//
// Lifecycle: the first joiner creates the wave and its runner goroutine; the
// wave admits members until BatchWindow elapses or BatchMax is reached, then
// closes, waits for every member's relaxation, scores once, and broadcasts.
// Identical concurrent requests never reach the batcher — the result cache's
// singleflight collapses them first — so waves hold only distinct work.
type batcher struct {
	s     *Server
	mu    sync.Mutex
	waves map[string]*wave // open wave per benchmark key
}

// wave is one scoring cohort. members is appended under batcher.mu until the
// wave closes (also under batcher.mu), after which the runner goroutine owns
// the slice; each member's res/err fields are written by its request goroutine
// before derives.Done() and read by the runner after derives.Wait().
type wave struct {
	key      string
	hg       *hetgraph.Graph
	members  []*waveMember
	derives  sync.WaitGroup
	full     chan struct{} // closed when BatchMax members joined
	scored   chan struct{} // closed once shared scoring completed
	scoreErr error
	closed   bool
}

// waveMember carries one request's relaxation outcome across the barrier,
// plus the observability state captured at join time: the request's stage
// breakdown (shared scoring time is attributed to every member) and its
// trace position (the wave's background span parents under the first traced
// member so batch-wave scoring stays causally linked in a merged trace).
type waveMember struct {
	res    *relax.Result
	err    error
	stages *obs.StageBreakdown
	tc     obs.TraceContext
	tcOK   bool
}

func newBatcher(s *Server) *batcher {
	return &batcher{s: s, waves: make(map[string]*wave)}
}

// join adds a member to the benchmark's open wave, creating one (and its
// runner) if none is accepting.
func (b *batcher) join(key string, hg *hetgraph.Graph) (*wave, *waveMember) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wv := b.waves[key]
	if wv == nil {
		wv = &wave{key: key, hg: hg, full: make(chan struct{}), scored: make(chan struct{})}
		b.waves[key] = wv
		go b.s.runWave(wv)
	}
	m := &waveMember{}
	wv.members = append(wv.members, m)
	wv.derives.Add(1)
	if len(wv.members) >= b.s.cfg.BatchMax {
		b.closeWaveLocked(wv)
	}
	return wv, m
}

// closeWave stops admission into wv; later joins for the key start a new wave.
func (b *batcher) closeWave(wv *wave) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !wv.closed {
		b.closeWaveLocked(wv)
	}
}

func (b *batcher) closeWaveLocked(wv *wave) {
	wv.closed = true
	if b.waves[wv.key] == wv {
		delete(b.waves, wv.key)
	}
	close(wv.full)
}

// runWave is the wave's runner: wait out the admission window (or a full
// wave), close admission, wait for every member's relaxation, score all
// members' candidates through one PredictBatch, and broadcast.
func (s *Server) runWave(wv *wave) {
	timer := time.NewTimer(s.cfg.BatchWindow)
	select {
	case <-timer.C:
	case <-wv.full:
		timer.Stop()
	}
	s.batch.closeWave(wv)
	wv.derives.Wait()
	var rs []*relax.Result
	for _, m := range wv.members {
		if m.err == nil && m.res != nil {
			rs = append(rs, m.res)
		}
	}
	if len(rs) > 0 {
		// The runner outlives any single request, so scoring runs on a
		// background context carrying only the daemon's telemetry; members
		// whose own deadlines expire stop waiting without wedging the wave.
		ctx := obs.WithTelemetry(context.Background(), s.cfg.Telemetry)
		// The wave span parents under the first traced member, so background
		// scoring stays attached to that request's distributed trace instead
		// of floating as an orphan root.
		for _, m := range wv.members {
			if m.tcOK {
				ctx = obs.WithRemoteParent(ctx, m.tc)
				break
			}
		}
		ctx, span := obs.StartSpan(ctx, "serve.batch.wave")
		scoreStart := time.Now()
		wv.scoreErr = core.ScoreGuidanceResults(ctx, s.model, wv.hg, rs)
		scoreDur := time.Since(scoreStart)
		span.Arg("members", len(wv.members)).Arg("scored", len(rs)).End()
		n := 0
		for _, r := range rs {
			n += len(r.Guides)
		}
		// Shared scoring time is real wall time on every member's critical
		// path (all members block on wv.scored), so each gets the full
		// duration in its score stage.
		for _, m := range wv.members {
			m.stages.Add(obs.StageScore, scoreDur)
		}
		s.met.batchCandidates.Add(int64(n))
	}
	s.met.batchWaves.Inc()
	// The size histogram reuses the duration-bucketed obs histogram with the
	// documented convention 1ms == 1 member, so the le_Nms buckets read as
	// member-count buckets and MeanMS as the mean wave size.
	s.met.batchSize.Observe(time.Duration(len(wv.members)) * time.Millisecond)
	close(wv.scored)
}

// buildGuidanceWave is the model path of /v1/guidance when batching is on:
// relaxation runs request-scoped, then the wave barrier scores every member
// at once. The (result, error) pair feeding finishGuidanceResponse is
// identical to what BuildGuidanceResponse's solo scoring would have produced,
// so bodies match the unbatched path byte for byte.
func (s *Server) buildGuidanceWave(ctx context.Context, f *core.Flow, hg *hetgraph.Graph, req GuidanceRequest) (*GuidanceResponse, error) {
	rf := requestOptions(f, req.Seed, req.Restarts, req.NDerive)
	resp := &GuidanceResponse{
		Bench: f.Name(),
		Seed:  rf.Opts.Seed,
		Rung:  string(core.RungElite),
	}
	wv, m := s.batch.join(f.Name(), hg)
	m.stages = obs.StagesFrom(ctx)
	m.tc, m.tcOK = obs.ActiveTraceContext(ctx)
	m.res, m.err = rf.DeriveGuidanceWarm(ctx, s.model, hg)
	wv.derives.Done()
	waitStart := time.Now()
	select {
	case <-wv.scored:
	case <-ctx.Done():
		return nil, fault.FromContext(fault.StageServe, ctx.Err())
	}
	// Time parked at the wave barrier beyond this member's own share of the
	// scoring work is batch-wave wait.
	if wait := time.Since(waitStart) - m.stages.Get(obs.StageScore); wait > 0 {
		m.stages.Add(obs.StageBatchWait, wait)
	}
	rres, err := m.res, m.err
	if err == nil && wv.scoreErr != nil {
		// A shared-scoring failure degrades every healthy member exactly as
		// a request-scoped scoring failure would: uniform rung, same event.
		rres, err = nil, wv.scoreErr
	}
	return finishGuidanceResponse(rf, resp, rres, err)
}
