// Command perfbench is the repository benchmark. It drives zenport
// from outside, through its public functions, on one of three
// workloads (campaign, blocks, serve) and prints one JSON result line:
// end-to-end metrics with -trace 0, the per-layer split with -trace 1.
// README.md explains the workloads, the metrics and how to read a
// trace; run.py builds this program and checks its output.
//
// Usage:
//
//	perfbench -workload campaign|blocks|serve -seed N -seconds S -trace 0|1 [-root DIR]
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// goldenSeed is the seed the committed mapping.json was inferred at;
// the campaign must reproduce that file byte for byte at this seed.
const goldenSeed = 2600

// setupRepeats is how many times each workload builds its set-up; the
// median is reported as setup_s and the last one is used.
const setupRepeats = 11

// e2eUnits and layerUnits list every metric the program prints with
// its unit: the end-to-end set with -trace 0, the per-layer set with
// -trace 1. Both must match BENCHMARK.json (run.py checks).
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"wall_s":       "s",
	"cpu_s":        "s",
	"truth_mape":   "frac",
	"blocks_per_s": "1/s",
	"mape":         "frac",
	"req_per_s":    "1/s",
	"p50_us":       "us",
	"p99_us":       "us",
	"peak_rss_mb":  "MB",
	"ok_frac":      "frac",
}

var layerUnits = map[string]string{
	"core.stage1_s":              "s",
	"core.stage2_s":              "s",
	"core.stage3_s":              "s",
	"core.stage4_s":              "s",
	"core.cegar_rounds":          "count",
	"core.anomalies":             "count",
	"core.unresolved":            "count",
	"engine.submitted":           "count",
	"engine.executed":            "count",
	"engine.processor_calls":     "count",
	"engine.reuse_ratio":         "frac",
	"engine.batch_wall_s":        "s",
	"engine.stage3_batch_wall_s": "s",
	"engine.quarantined":         "count",
	"zensim.calls":               "count",
	"zensim.busy_s":              "s",
	"zensim.ns_per_call":         "ns",
	"smt.queries":                "count",
	"smt.theory_iterations":      "count",
	"smt.lemmas":                 "count",
	"smt.solve_s":                "s",
	"sat.conflicts":              "count",
	"sat.decisions":              "count",
	"sat.propagations":           "count",
	"sat.restarts":               "count",
	"sat.props_per_s":            "1/s",
	"persist.journal_mb":         "MB",
	"persist.close_s":            "s",
	"portmodel.predict_ns":       "ns",
	"serve.handler_p50_us":       "us",
	"serve.handler_p99_us":       "us",
	"serve.transport_p50_us":     "us",
	"serve.cache_hit_ratio":      "frac",
	"serve.evaluations":          "count",
	"serve.coalesced":            "count",
	"serve.shed":                 "count",
	"serve.reloads":              "count",
	"serve.reload_ms":            "ms",
	"load.late_p99_us":           "us",
	"load.open_p50_us":           "us",
	"load.open_p99_us":           "us",
	"gc.cycles":                  "count",
	"gc.pause_ms":                "ms",
	"gc.alloc_mb":                "MB",
	"gc.cpu_frac":                "frac",
	"trace.overhead_frac":        "frac",
}

// config is what every workload receives: where the checkout is, the
// workload seed, the measuring time and the worker budget.
type config struct {
	root    string // checkout root holding mapping.json
	work    string // the benchmark's working directory inside the checkout
	seed    int64
	seconds time.Duration
	workers int // engine workers, clients and connections (nproc)
}

// outcome is one pass of a workload: operations attempted and failed,
// the gate failures behind them, its metrics, and a digest of its
// outputs that a second pass of the same seed must reproduce.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
	digest    string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed correctness gate covering n operations.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(cfg config, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"campaign": runCampaign,
	"blocks":   runBlocks,
	"serve":    runServe,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: campaign, blocks or serve")
	seed := flag.Int64("seed", goldenSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer split")
	root := flag.String("root", ".", "checkout root holding mapping.json")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want campaign, blocks or serve)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	cfg := config{
		root:    *root,
		work:    filepath.Join(*root, ".bench_build", "perfbench"),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workers: runtime.NumCPU(),
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}

	res := result{Metrics: map[string]metric{}}
	var o *outcome
	if *trace == 0 {
		var err error
		if o, err = wl(cfg, nil); err != nil {
			return err
		}
		o.e2e["peak_rss_mb"] = peakRSSMB()
		o.e2e["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
		for k, unit := range e2eUnits {
			v, ok := o.e2e[k]
			if !ok {
				return fmt.Errorf("workload %s did not measure %s", *name, k)
			}
			res.Metrics[k] = metric{Value: v, Unit: unit}
		}
	} else {
		// The traced pass follows an untraced pass of the same seed:
		// their difference is the tracing overhead, and their outputs
		// must agree bit for bit (telemetry never changes a result).
		plain, err := wl(cfg, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		if o, err = wl(cfg, tr); err != nil {
			return err
		}
		o.attempted += plain.attempted
		o.failed += plain.failed
		o.problems = append(o.problems, plain.problems...)
		if o.digest != plain.digest {
			o.fail(1, "traced output digest %s differs from untraced %s", o.digest, plain.digest)
		}
		o.layer["trace.overhead_frac"] = o.e2e["wall_s"]/plain.e2e["wall_s"] - 1
		path := filepath.Join(cfg.work, "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
		tr.printSelfTimes(os.Stderr)
		for k, unit := range layerUnits {
			res.Metrics[k] = metric{Value: o.layer[k], Unit: unit}
		}
	}
	if err := checkState(cfg, *name, o); err != nil {
		return err
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", p)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", k)
		}
	}
	res.Attempted, res.Failed = o.attempted, o.failed
	res.Correct = o.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkState is the cross-run determinism gate: the first run of a
// (workload, seed) records its output digest under the working
// directory, and every later run of that pair must reproduce it.
func checkState(cfg config, name string, o *outcome) error {
	dir := filepath.Join(cfg.work, "state")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, cfg.seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		if got := strings.TrimSpace(string(prev)); got != o.digest {
			o.fail(1, "output digest %s differs from an earlier run of this seed (%s)", o.digest, got)
		}
		return nil
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(o.digest+"\n"), 0o644)
	default:
		return err
	}
}

// digestOf hashes byte slices into a short hex digest.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcSnap is a point-in-time reading of the Go runtime's GC counters.
type gcSnap struct {
	cycles, pauseNs, allocBytes uint64
	gcCPU, totalCPU             float64
}

func readGC() gcSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return gcSnap{
		cycles: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs, allocBytes: ms.TotalAlloc,
		gcCPU: samples[0].Value.Float64(), totalCPU: samples[1].Value.Float64(),
	}
}

// addGC stores the GC work between two snapshots as per-layer metrics.
func (o *outcome) addGC(a, b gcSnap) {
	o.layer["gc.cycles"] = float64(b.cycles - a.cycles)
	o.layer["gc.pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
	o.layer["gc.alloc_mb"] = float64(b.allocBytes-a.allocBytes) / (1 << 20)
	if d := b.totalCPU - a.totalCPU; d > 0 {
		o.layer["gc.cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
}

// mean returns the mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile of xs by linear interpolation
// between closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// timedSetups runs build setupRepeats times, closing every result but
// the last, and returns the last with the median set-up time. Each
// build starts after a full GC and runs with the collector paused, so
// its time is its own work and does not depend on whether a GC cycle
// happens to fall inside it.
func timedSetups[T any](build func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		t0 := time.Now()
		v, err := build()
		d := time.Since(t0)
		debug.SetGCPercent(gcPercent)
		if err != nil {
			return last, 0, err
		}
		times = append(times, d.Seconds())
		if i > 0 {
			closeFn(last)
		}
		last = v
	}
	return last, median(times), nil
}
