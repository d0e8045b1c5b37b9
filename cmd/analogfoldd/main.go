// Command analogfoldd is the AnalogFold guidance-serving daemon: it loads a
// trained 3DGNN checkpoint once, keeps per-benchmark placed flows warm, and
// serves relaxation-derived guidance and full guided-routing runs over HTTP.
//
//	analogfoldd -model model.json -addr :8080 -warm OTA1-A
//
//	POST /v1/guidance  {"bench":"OTA1-A","seed":7}   → guidance sets
//	POST /v1/route     {"bench":"OTA1-A"}            → routed result + metrics
//	GET  /healthz /readyz /metrics /debug/flight /debug/slo
//
// With -debug-addr a second listener serves net/http/pprof, /debug/vars and
// the flight recorder, kept off the service port so profiling endpoints are
// never exposed to clients by accident.
//
// Robustness: a bounded admission queue sheds overload with 503+Retry-After,
// a circuit breaker around model evaluation degrades responses down the
// elite→uniform→MagicalRoute ladder while open, handler panics become typed
// 500s, and SIGTERM drains in-flight requests before exit.
//
// With -coordinator, the same binary runs as the cluster front door instead
// of a worker: it shards requests across the -replicas set by netlist-digest
// rendezvous hashing, fails over with jittered backoff, hedges slow requests
// after a latency-percentile budget, and — when every replica is down —
// answers from an embedded nil-model degradation ladder:
//
//	analogfoldd -coordinator -replicas http://r1:8080,http://r2:8080 -addr :8000
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"analogfold/internal/cliutil"
	"analogfold/internal/cluster"
	"analogfold/internal/gnn3d"
	"analogfold/internal/obs"
	"analogfold/internal/serve"
)

func main() {
	fs := flag.NewFlagSet("analogfoldd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	debugAddr := fs.String("debug-addr", "", "separate diagnostics listener (pprof, /debug/vars, /debug/flight); empty disables")
	model := fs.String("model", "model.json", "3DGNN checkpoint (from `analogfold train`)")
	warm := fs.String("warm", "", "comma-separated benchmarks to place before serving (e.g. OTA1-A,OTA2-B)")
	queue := fs.Int("queue", 4, "admission queue capacity (concurrently executing requests)")
	backlog := fs.Int("backlog", 0, "admission waiting-room bound (0 = 4x queue)")
	admissionTO := fs.Duration("admission-timeout", time.Second, "max wait for a queue slot before shedding with 503")
	requestTO := fs.Duration("request-timeout", 5*time.Minute, "per-request pipeline deadline")
	drainTO := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on SIGTERM")
	brkThreshold := fs.Int("breaker-threshold", 3, "consecutive model faults that open the circuit breaker")
	brkCooldown := fs.Duration("breaker-cooldown", 30*time.Second, "open interval before a half-open probe")
	cacheEntries := fs.Int("cache-entries", 1024, "content-addressed result cache bound (0 disables caching)")
	batchWindow := fs.Duration("batch-window", 2*time.Millisecond, "guidance micro-batch admission window (0 disables batching)")
	batchMax := fs.Int("batch-max", 8, "max requests coalesced into one guidance scoring wave")
	coordinator := fs.Bool("coordinator", false, "run as the cluster coordinator instead of a worker daemon")
	replicas := fs.String("replicas", "", "comma-separated replica base URLs (coordinator mode)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "replica health probe period (coordinator mode)")
	attemptTO := fs.Duration("attempt-timeout", 2*time.Minute, "per-replica attempt deadline (coordinator mode)")
	hedgeAfter := fs.Duration("hedge-after", 250*time.Millisecond, "static hedge budget before latency samples accumulate (coordinator mode)")
	hedgePct := fs.Float64("hedge-percentile", 0.95, "latency percentile driving the adaptive hedge budget; <0 pins the static -hedge-after (coordinator mode)")
	maxHedges := fs.Int("max-hedges", 1, "max hedged attempts per request (coordinator mode)")
	retryBackoff := fs.Duration("retry-backoff", 5*time.Millisecond, "base failover backoff, doubled per attempt with hash-deterministic jitter (coordinator mode)")
	busyDepth := fs.Int64("busy-queue-depth", 16, "replica queue depth, read from its /readyz body, that grades it degraded (coordinator mode)")
	leaseTTL := fs.Duration("lease-ttl", 5*time.Minute, "dataset shard lease tenure before the shard is re-dispatched (coordinator mode)")
	datasetDir := fs.String("dataset-dir", "", "crash-safe dataset manifest journal root; empty disables resume (coordinator mode)")
	datasetShardSize := fs.Int("dataset-shard-size", 0, "default samples per dataset shard (0 = 32, coordinator mode)")
	sloLatencyMS := fs.Int("slo-latency-ms", 0, "latency SLO target in milliseconds for the /debug/slo burn-rate engine (0 disables the latency objective)")
	sloAvailability := fs.Float64("slo-availability", 0, "availability SLO objective, e.g. 0.999 (0 disables; both 0 turns /debug/slo off)")
	opts := cliutil.OptionsFlags(fs)
	logf := cliutil.LogFlags(fs)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	lg, err := logf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "analogfoldd:", err)
		os.Exit(2)
	}
	o := opts()
	// The daemon's telemetry is always on: the flight recorder backs the
	// /debug/flight endpoint, so there is no trace file to opt into.
	tel := obs.New(obs.Options{Seed: o.Seed, Logger: lg})
	if *coordinator {
		if err := runCoordinator(*addr, *warm, cluster.Config{
			Replicas:         splitList(*replicas),
			ProbeInterval:    *probeInterval,
			AttemptTimeout:   *attemptTO,
			HedgeAfter:       *hedgeAfter,
			HedgePercentile:  *hedgePct,
			MaxHedges:        *maxHedges,
			RetryBackoff:     *retryBackoff,
			BusyQueueDepth:   *busyDepth,
			DrainTimeout:     *drainTO,
			LeaseTTL:         *leaseTTL,
			DatasetDir:       *datasetDir,
			DatasetShardSize: *datasetShardSize,
			Logger:           lg,
			Telemetry:        tel,
			SLOLatency:       time.Duration(*sloLatencyMS) * time.Millisecond,
			SLOAvailability:  *sloAvailability,
		}, serve.Config{Opts: o, Logger: lg, Telemetry: tel}); err != nil {
			lg.Error("analogfoldd coordinator exiting", "err", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*addr, *debugAddr, *model, *warm, serve.Config{
		QueueCapacity:    *queue,
		QueueBacklog:     *backlog,
		AdmissionTimeout: *admissionTO,
		RequestTimeout:   *requestTO,
		DrainTimeout:     *drainTO,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		CacheEntries:     *cacheEntries,
		BatchWindow:      *batchWindow,
		BatchMax:         *batchMax,
		SLOLatency:       time.Duration(*sloLatencyMS) * time.Millisecond,
		SLOAvailability:  *sloAvailability,
		Opts:             o,
		Logger:           lg,
		Telemetry:        tel,
	}); err != nil {
		lg.Error("analogfoldd exiting", "err", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// runCoordinator is the -coordinator entrypoint: no checkpoint is loaded —
// replicas own the model — but a nil-model local server (warmed from -warm)
// is embedded as the last-ditch degradation rung for a full replica outage.
func runCoordinator(addr, warm string, cfg cluster.Config, localCfg serve.Config) error {
	if len(cfg.Replicas) == 0 {
		return fmt.Errorf("coordinator mode needs at least one -replicas URL")
	}
	local := serve.New(nil, localCfg)
	for _, b := range splitList(warm) {
		localCfg.Logger.Info("warming local fallback benchmark", "bench", b)
		if err := local.Warm([]string{b}); err != nil {
			return fmt.Errorf("warm local fallback %s: %w", b, err)
		}
	}
	cfg.Local = local
	c := cluster.New(cfg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return c.ListenAndServe(ctx, addr)
}

func run(addr, debugAddr, modelPath, warm string, cfg serve.Config) error {
	m, err := gnn3d.Load(modelPath)
	if err != nil {
		return fmt.Errorf("load checkpoint: %w", err)
	}
	s := serve.New(m, cfg)
	if warm != "" {
		for _, b := range strings.Split(warm, ",") {
			b = strings.TrimSpace(b)
			if b == "" {
				continue
			}
			cfg.Logger.Info("warming benchmark", "bench", b)
			if err := s.Warm([]string{b}); err != nil {
				return fmt.Errorf("warm %s: %w", b, err)
			}
		}
	}
	// SIGTERM/SIGINT cancel the context; Serve drains and returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if debugAddr != "" {
		dbg := &http.Server{Addr: debugAddr, Handler: s.DebugHandler()}
		go func() {
			cfg.Logger.Info("debug listener starting", "addr", debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				cfg.Logger.Error("debug listener failed", "err", err)
			}
		}()
		defer func() {
			shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = dbg.Shutdown(shCtx)
		}()
	}
	return s.ListenAndServe(ctx, addr)
}
