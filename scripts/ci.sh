#!/usr/bin/env sh
# CI gate: build + vet + full test suite, then a short race-detector pass
# over the packages that run work concurrently (worker pool, relaxation,
# Monte Carlo, training, dataset generation).
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "FAIL: gofmt -l lists unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go test =="
go test ./...

echo "== go test -race (parallel-touching packages) =="
# ad and tensor are in the list because relax workers share a frozen model's
# weight tensors across concurrent tape sessions — the race detector proves
# the read-only sharing contract.
go test -race -count=1 \
    ./internal/obs/ \
    ./internal/parallel/ \
    ./internal/relax/ \
    ./internal/circuit/ \
    ./internal/gnn3d/ \
    ./internal/ad/ \
    ./internal/tensor/ \
    ./internal/dataset/ \
    ./internal/route/ \
    ./internal/servecache/ \
    ./internal/serve/ \
    ./internal/cluster/

echo "== chaos: go test -race -tags faultinject (fault-injection suite) =="
# The faultinject build tag compiles the deterministic fault scheduler into
# the injection points (NaN model output, router failures, stage latency);
# the chaos tests assert every injected fault recovers or surfaces a typed
# error — never a panic, never a hang past its deadline.
go test -race -count=1 -tags faultinject \
    ./internal/fault/... \
    ./internal/parallel/ \
    ./internal/relax/ \
    ./internal/route/ \
    ./internal/core/ \
    ./internal/serve/ \
    ./internal/dataset/

echo "== trace-merge golden gate (cross-process span stitching) =="
# The distributed-tracing invariant: span summaries imported from a replica
# are remapped into a collision-free ID namespace with their parent edges
# intact, and an end-to-end coordinator run (forced failover + sharded dataset
# job) yields ONE merged Chrome trace where every replica-side span descends
# from the coordinator root. Named runs so a stitching regression fails loudly
# here rather than inside the larger suites.
go test -count=1 -run 'TestImportSpansRemap|TestTraceparentRoundTrip' ./internal/obs/
go test -count=1 -run 'TestMergedTraceAcrossProcesses' ./internal/cluster/

echo "== shard-merge bit-identity gate =="
# The load-bearing invariant of distributed generation: a corpus assembled
# from independently generated shards (any shard size) must be byte-identical
# to an uninterrupted single-process run, and a journal-resumed run must be
# byte-identical to a fresh one. Named runs so a regression fails loudly here
# rather than inside the larger suites.
go test -count=1 -run 'TestShardMergeBitIdentity|TestResumeEqualsFresh' ./internal/dataset/

echo "== cluster chaos: replica-kill suite (coordinator fault tolerance) =="
# Kills replicas mid-drain, mid-request and mid-hedge under concurrent load:
# zero client transport errors, bit-identical answers while any healthy
# replica exists, accepted == answered + shed, no leaked goroutines after the
# coordinator drains. Also covers dataset shard leases: holders killed
# mid-shard, heartbeat-expired leases, and digest-forged answers must all
# re-dispatch with dispatched == completed + redispatched.
go test -race -count=1 -tags faultinject ./internal/cluster/

echo "== fuzz smoke (10s per target) =="
# Short native-fuzz budgets: enough to catch a freshly introduced panic or
# untyped error on the input-facing surfaces (netlist builder, tensor
# constructors), cheap enough to run every time.
go test -run '^$' -fuzz FuzzNetlistBuild -fuzztime 10s ./internal/netlist/
go test -run '^$' -fuzz FuzzTensorTryFromSlice -fuzztime 10s ./internal/tensor/
go test -run '^$' -fuzz FuzzTapeReset -fuzztime 10s ./internal/ad/

echo "== benchmark smoke (router hot path compiles and runs) =="
# One iteration of the routing benchmark: catches benchmarks that rot
# (compile errors, panics) without paying for a real measurement run.
go test -run=NONE -bench=RouteOTA1 -benchtime=1x .
go test -run=NONE -bench='BenchmarkAstarCore|BenchmarkRouteNegotiation$' -benchtime=1x ./internal/route/

echo "== model inference perf gate (writes BENCH_model.json) =="
# BenchmarkModelReport gates the tape arena internally: the steady-state
# session Forward+Backward cycle must stay within its allocs-per-run pin and
# at >= 5x fewer allocations than the transient path (wall-time assertions
# are skipped on degenerate hosts).
go test -run=NONE -bench=BenchmarkModelReport -benchtime=1x .

echo "== serving throughput gate (writes BENCH_serve.json) =="
# BenchmarkServeThroughput gates batch-first serving internally: cache misses
# must equal the unique keys of the duplicate-heavy mix (duplicates collapse
# or hit, never re-execute), every micro-batch wave must cost exactly one
# PredictBatch (waves == relax score-wave counter), and wave scoring must
# allocate >= 2x less than sequential per-member scoring. Wall-clock gates
# (>= 5x duplicate-heavy speedup) are skipped on degenerate hosts.
go test -run=NONE -bench=BenchmarkServeThroughput -benchtime=1x .

echo "== unchecked-error grep =="
./scripts/errcheck.sh

echo "== stray-print grep (instrumented packages log via internal/obs) =="
# The pipeline's hot packages must report through the telemetry layer
# (spans/events/slog), not ad-hoc stdout/stderr prints that bypass both the
# flight recorder and -log-format. Test files are exempt.
if grep -rn 'fmt\.Print' \
    --include='*.go' --exclude='*_test.go' \
    internal/route/ internal/relax/ internal/gnn3d/ internal/serve/; then
  echo "FAIL: fmt.Print* in instrumented packages — use obs spans/events or slog" >&2
  exit 1
fi

echo "== handler-span grep (every work handler opens a span) =="
# Every HTTP work/proxy handler must open an obs span so per-request latency
# attribution and cross-process trace merging see every hop; health probes and
# metrics scrapes are exempt. The awk pass extracts each handler body (first
# column-0 closing brace ends it) and requires an obs.StartSpan call inside.
if ! awk '
  /^func .*handle(Guidance|Route|DatasetShard|Work|Dataset)\(/ { name = $0; in_fn = 1; ok = 0; next }
  in_fn && /obs\.StartSpan/ { ok = 1 }
  in_fn && /^}/ { if (!ok) { printf "missing obs.StartSpan in: %s\n", name; bad = 1 } in_fn = 0 }
  END { exit bad }
' internal/serve/server.go internal/serve/dataset.go \
  internal/cluster/cluster.go internal/cluster/datagen.go; then
  echo "FAIL: work handler without a span — every HTTP work endpoint must call obs.StartSpan" >&2
  exit 1
fi

echo "== stage-clock grep (core phases are timed only by withPhase) =="
# core.withPhase is the flow's one stage clock: its return feeds StageTimes,
# the Figure-5 breakdown and Outcome.Runtime, alongside the span and the
# request stage histograms. A second time.Now/time.Since in the package would
# measure a phase twice and let the copies drift. The awk pass skips the
# withPhase body (first column-0 closing brace ends it) and flags any other
# clock read in non-test core files.
if ! awk '
  FNR == 1 { in_fn = 0 }
  /^func withPhase\(/ { in_fn = 1 }
  !in_fn && /time\.(Now|Since)\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0; bad = 1 }
  in_fn && /^}/ { in_fn = 0 }
  END { exit bad }
' $(ls internal/core/*.go | grep -v '_test\.go$'); then
  echo "FAIL: clock outside core.withPhase — time a stage through withPhase's return" >&2
  exit 1
fi

echo "CI OK"
