// Command e2ebench is analogfold's end-to-end benchmark. One command runs one
// workload against the real public entry points, checks every output, and
// prints its metrics by name and unit:
//
//	bash e2ebench/run.sh --workload flow_cold --seed 1 --seconds 30 --trace 0
//
// Workloads (README.md says why each was chosen):
//
//   - flow_cold: the paper's cold AnalogFold flow (core.NewFlowCtx, then
//     Flow.RunAnalogFold) over OTA1-A through OTA4-A, one pass per run.
//   - route_serve: warm /v1/route requests through an in-process
//     cluster.Coordinator in front of two serve.Server replicas; every request
//     is a distinct (bench, seed) pair, so the result cache is bypassed.
//   - guidance_mix: /v1/guidance requests to the same deployment; four in
//     five repeat one of a few popular keys.
//
// With --trace 0 the run measures with tracing off and reports the end-to-end
// metrics. With --trace 1 it makes an untraced run, a traced run and a second
// untraced run over the same inputs and reports the per-layer metrics
// instead. The last line of standard output is the result object; the line
// before it carries provenance and the totals behind derived rows.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"analogfold/internal/core"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// config is one invocation's parsed arguments plus the problem scale.
type config struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	scale    scale
}

// scale sizes every workload. The benchmark runs at quickScale; the
// self-test uses shortScale so that all workloads finish in seconds.
type scale struct {
	opts        core.Options // flow options; Seed and Workers are set per run
	flowBenches []string     // the cold-flow benchmark set
	small       string       // small routing grid for the serving workloads
	large       string       // large routing grid for the serving workloads
	setupReps   int          // set-ups per run; setup_s is their median
	qualityReqs int          // route_serve: request prefix averaged for quality
	hotKeys     int          // guidance_mix: popular keys
}

var quickScale = scale{
	opts: core.Options{
		Samples: 16, TrainEpochs: 8, RelaxRestarts: 4, NDerive: 2,
		PlaceIters: 1500, TrainBatch: 4, Seed: 1,
	},
	flowBenches: []string{"OTA1-A", "OTA2-A", "OTA3-A", "OTA4-A"},
	small:       "OTA1-A",
	large:       "OTA3-A",
	setupReps:   3,
	qualityReqs: 8,
	hotKeys:     4,
}

var shortScale = scale{
	opts: core.Options{
		Samples: 4, TrainEpochs: 1, RelaxRestarts: 1, NDerive: 1,
		PlaceIters: 200, TrainBatch: 4, Seed: 1,
	},
	flowBenches: []string{"OTA1-A"},
	small:       "OTA1-A",
	large:       "OTA1-B",
	setupReps:   1,
	qualityReqs: 2,
	hotKeys:     2,
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config, *report) error{
	"flow_cold":    runFlowCold,
	"route_serve":  runRouteServe,
	"guidance_mix": runGuidanceMix,
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "flow_cold | route_serve | guidance_mix")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "measurement duration in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	short := fs.Bool("short", false, "tiny problem sizes (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload flow_cold|route_serve|guidance_mix, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		scale:    quickScale,
	}
	if *short {
		cfg.scale = shortScale
	}
	cfg.scale.opts.Workers = nproc()

	rep := newReport(stderr)
	if err := runner(ctx, cfg, rep); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if rep.attempted == 0 {
		fmt.Fprintf(stderr, "e2ebench: %s: no operation completed\n", cfg.workload)
		return 1
	}
	rep.detail["provenance"] = provenance(cfg)
	return rep.print(stdout, stderr)
}

// nproc is the CPU count the benchmark sizes its clients and workers by.
func nproc() int { return runtime.NumCPU() }

// provenance records what a result was measured on.
func provenance(cfg config) map[string]any {
	p := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.measure.Seconds(),
		"trace":      cfg.trace,
		"nproc":      nproc(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value == "true"
			}
		}
	}
	return p
}

// metric is one named measurement in the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's operation counts, metrics and detail.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	detail            map[string]any
	log               io.Writer
}

func newReport(log io.Writer) *report {
	return &report{metrics: map[string]metric{}, detail: map[string]any{}, log: log}
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(r.log, "e2ebench: failed operation: %v\n", err)
		}
	}
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// print writes the detail line and the result line. A metric that is not a
// finite number fails the run rather than being printed.
func (r *report) print(stdout, stderr io.Writer) int {
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "e2ebench: metric %s is not finite\n", name)
			return 1
		}
	}
	detail, err := json.Marshal(map[string]any{"detail": r.detail})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: detail: %v\n", err)
		return 1
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", detail, res)
	return 0
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the latency at the highest percentile with at least ten samples
// beyond it. With ten or fewer samples no such percentile exists and the
// maximum is reported instead (percentile 100, nothing beyond it).
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	i := n - 11
	return tail{Value: s[i], Percentile: 100 * float64(i+1) / float64(n), Samples: n, Beyond: n - 1 - i}
}

// peakRSSMB is the benchmark process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// retainedHeapMB collects the garbage and returns the size of the heap
// objects still reachable: the memory the program holds at rest. It
// collects twice, because what the first collection's finalizers let go is
// only freed by the second. Unlike the peak resident set size, it carries
// no slack from where the collector's cycles happened to fall, which moves
// the peak by up to a sixth from run to run on like requests, and it does
// not depend on how the live objects lie across the heap's pages, which
// moves the resident set size after a collection by a tenth when only the
// order of the work changes.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// timeReps runs fn n times and returns the median duration in seconds; the
// first error stops it.
func timeReps(n int, fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite reports an error naming the first non-finite value.
func finite(names []string, vals ...float64) error {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is %v", names[i], v)
		}
	}
	return nil
}

// setEndToEnd writes the metrics every workload reports with --trace 0.
// retainedMB is what retainedHeapMB read with the timed part's state held.
func (r *report) setEndToEnd(setupS float64, lat []float64, elapsed time.Duration, q quality, retainedMB float64) {
	r.set("setup_s", "s", setupS)
	r.set("latency_p50_ms", "ms", median(lat))
	t := tailOf(lat)
	r.set("latency_tail_ms", "ms", t.Value)
	r.detail["latency_tail"] = t
	r.set("throughput_per_s", "1/s", float64(len(lat))/elapsed.Seconds())
	r.set("offset_uv", "uV", q.offsetUV)
	r.set("cmrr_db", "dB", q.cmrrDB)
	r.set("wirelength_um", "um", q.wirelengthUM)
	r.detail["quality_layouts"] = q.n
	r.set("retained_heap_mb", "MB", retainedMB)
	r.detail["peak_rss_mb"] = peakRSSMB()
}

// quality is the mean post-layout quality of a set of routed layouts.
type quality struct {
	offsetUV, cmrrDB, wirelengthUM float64
	n                              int
}

func (q *quality) add(offsetUV, cmrrDB float64, wirelengthNm int) {
	q.offsetUV += offsetUV
	q.cmrrDB += cmrrDB
	q.wirelengthUM += float64(wirelengthNm) / 1000
	q.n++
}

func (q quality) mean() quality {
	if q.n == 0 {
		return q
	}
	k := float64(q.n)
	return quality{q.offsetUV / k, q.cmrrDB / k, q.wirelengthUM / k, q.n}
}
