// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload through the entry points users call — a local sweep
// (mobisim.RunSweep), the simd daemon over loopback HTTP (pkg/simclient),
// or the paper reproduction (internal/experiments) — for a fixed wall
// time, checks every output, and prints one JSON result line.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload sweep-local --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run records spans around every layer call and the
// result carries the per-layer metrics instead; the full span dump and
// the workload-specific layer metrics go to
// .bench_build/trace/<workload>-seed<n>.json. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// processStart anchors setup_s at process start (package initialization
// runs before main).
var processStart = time.Now()

// setupReps is how many times each workload repeats its set-up; setup_s
// reports the median so one slow repetition does not move it.
const setupReps = 5

// hardLimit bounds a whole run; the benchmark must exit well within
// 180 seconds even when the system under test hangs.
const hardLimit = 170 * time.Second

// workDir holds everything the benchmark writes, inside the checkout.
const workDir = ".bench_build"

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

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int
	// failures describes each failed check, for stderr.
	failures []string
	// preSetup is process start to the first set-up repetition; setups
	// are the set-up repetitions' durations.
	preSetup time.Duration
	setups   []time.Duration
	// e2e are the end-to-end metrics every workload reports besides
	// setup_s and rss_mb; notes are workload-specific figures printed to
	// standard error.
	e2e   map[string]metric
	notes map[string]metric
	// layers are per-layer metrics (traced runs), including the
	// workload-specific ones that only go to the trace report.
	layers map[string]metric
	// unmeasured names layer metrics this run could not measure, with
	// the reason.
	unmeasured map[string]string
	spans      []span
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) layer(name, unit string, v float64) {
	if o.layers == nil {
		o.layers = make(map[string]metric)
	}
	o.layers[name] = metric{Value: v, Unit: unit}
}

// endToEnd sets the end-to-end metrics every workload shares from the
// host seconds of its main stream's ops: cells_per_s, the cells
// completed per host second (cellsPerOp cells per op), and p50_ms, the
// median op latency as the user waiting on it sees it.
func (o *outcome) endToEnd(cellsPerOp int, opSecs []float64) {
	var total float64
	for _, s := range opSecs {
		total += s
	}
	o.e2e = map[string]metric{
		"cells_per_s": {Value: float64(cellsPerOp*len(opSecs)) / total, Unit: "1/s"},
		"p50_ms":      {Value: median(opSecs) * 1e3, Unit: "ms"},
	}
}

func (o *outcome) note(name, unit string, v float64) {
	if o.notes == nil {
		o.notes = make(map[string]metric)
	}
	o.notes[name] = metric{Value: v, Unit: unit}
}

// layerMedian reports the median of xs, or marks the metric unmeasured
// when the run made no such call.
func (o *outcome) layerMedian(name, unit string, xs []float64) {
	if len(xs) == 0 {
		o.unmeasure(name, "no such call in this run")
		return
	}
	o.layer(name, unit, median(xs))
}

func (o *outcome) unmeasure(name, why string) {
	if o.unmeasured == nil {
		o.unmeasured = make(map[string]string)
	}
	o.unmeasured[name] = why
}

// repeatSetup runs set-up setupReps times, recording each duration and
// the time from process start to the first repetition. Every repetition
// but the last is torn down by the workload inside fn (last is false).
func (o *outcome) repeatSetup(fn func(last bool) error) error {
	o.preSetup = time.Since(processStart)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := fn(i == setupReps-1); err != nil {
			return err
		}
		o.setups = append(o.setups, time.Since(start))
	}
	return nil
}

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"sweep-local": runSweepLocal,
	"serve-mixed": runServeMixed,
	"paper-repro": runPaperRepro,
}

// perLayer lists the per-layer metrics every traced run prints, in the
// order of BENCHMARK.json. Counts and shares of a layer the workload
// does not use read 0; every timing here is measured on every workload.
var perLayer = []struct{ name, unit string }{
	{"sim.scalar_ns_per_step", "ns"},
	{"sim.lane_ns_per_step.w1", "ns"},
	{"sim.lane_ns_per_step.w8", "ns"},
	{"thermal.batch_step_ns_per_lane", "ns"},
	{"power.leakage_ns", "ns"},
	{"appaware.control_us", "us"},
	{"sched.assign_ns", "ns"},
	{"trace.overhead_share", "share"},
	{"trace.self_sum_share", "share"},
	{"mobisim.cells", "count"},
	{"mobisim.units", "count"},
	{"mobisim.warm_units", "count"},
	{"mobisim.lanes_per_unit", "count"},
	{"mobisim.prefix_shared_share", "share"},
	{"sweep.worker_busy_share", "share"},
	{"simd.cache.hit_ratio", "share"},
	{"simd.cache.disk_hits", "count"},
	{"simd.cache.stores", "count"},
	{"simd.sched.computed", "count"},
	{"simd.sched.warm_computed", "count"},
	{"simd.sched.deduped", "count"},
	{"simd.sched.duplicate_computes", "count"},
	{"simd.sched.lanes_per_batch", "count"},
	{"simd.queue.depth_max", "count"},
	{"simd.refused", "count"},
	{"simd.result_kb", "kB"},
	{"simclient.retries", "count"},
}

// timeUnits are the units whose metrics must be measured, never filled
// with 0 for an idle layer.
var timeUnits = map[string]bool{"ns": true, "us": true, "ms": true, "s": true}

func main() {
	var cfg config
	var seconds int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep-local, serve-mixed or paper-repro")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 20, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds > 0, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	// The context bounds every blocking call; this is the backstop for
	// one that ignores it.
	watchdog := time.AfterFunc(hardLimit+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	out, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED CHECK:", f)
	}
	for _, n := range sortedKeys(out.notes) {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s = %.4f %s\n", cfg.workload, n, out.notes[n].Value, out.notes[n].Unit)
	}
	res, err := buildResult(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// buildResult assembles the result line: end-to-end metrics untraced,
// per-layer metrics traced (with the trace report written to disk).
func buildResult(cfg config, out *outcome) (*result, error) {
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no op completed in the window")
	}
	if !cfg.trace {
		setups := make([]float64, len(out.setups))
		for i, d := range out.setups {
			setups[i] = d.Seconds()
		}
		if len(out.e2e) == 0 {
			return nil, fmt.Errorf("no op of the window succeeded, so nothing was timed")
		}
		res.Metrics["setup_s"] = metric{Value: out.preSetup.Seconds() + median(setups), Unit: "s"}
		res.Metrics["rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
		for k, v := range out.e2e {
			res.Metrics[k] = v
		}
	} else {
		worst, err := checkSelfSums(out.spans)
		if err != nil {
			return nil, err
		}
		out.layer("trace.self_sum_share", "share", worst)
		report := &traceReport{Workload: cfg.workload, Seed: cfg.seed, Metrics: out.layers,
			Unmeasured: out.unmeasured, Layers: layerStats(out.spans), Spans: out.spans}
		for _, pl := range perLayer {
			m, ok := out.layers[pl.name]
			if !ok {
				if timeUnits[pl.unit] {
					return nil, fmt.Errorf("per-layer timing %s was not measured", pl.name)
				}
				// A layer this workload never calls did no work.
				m = metric{Value: 0, Unit: pl.unit}
				if _, why := out.unmeasured[pl.name]; !why {
					report.idle(pl.name)
				}
			}
			if m.Unit != pl.unit {
				return nil, fmt.Errorf("per-layer metric %s has unit %s, want %s", pl.name, m.Unit, pl.unit)
			}
			res.Metrics[pl.name] = m
		}
		path, err := report.write(workDir + "/trace")
		if err != nil {
			return nil, fmt.Errorf("write trace report: %w", err)
		}
		printLayers(report, path)
	}
	for k, m := range res.Metrics {
		if !allFinite(m.Value) {
			return nil, fmt.Errorf("metric %s is not finite", k)
		}
	}
	return res, nil
}

// checkSelfSums verifies that every op's track-0 self times add up to
// its wall time within selfSumTolerance, and returns the sum farthest
// from the wall time, as a share of it.
func checkSelfSums(spans []span) (float64, error) {
	worst := 1.0
	for _, c := range opCoverage(spans) {
		if math.Abs(c-1) > math.Abs(worst-1) {
			worst = c
		}
	}
	if math.Abs(worst-1) > selfSumTolerance {
		return 0, fmt.Errorf("an op's layer self times sum to %.4f of its wall time, outside 1 ± %g", worst, selfSumTolerance)
	}
	return worst, nil
}

// printLayers writes a readable summary of the traced run to stderr.
func printLayers(r *traceReport, path string) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s traced, %d spans, report %s\n", r.Workload, len(r.Spans), path)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range sortedKeys(r.Unmeasured) {
		fmt.Fprintf(os.Stderr, "  %-36s unmeasured: %s\n", n, r.Unmeasured[n])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// peakRSSMB is the process's peak resident set size (getrusage maxrss,
// reported by Linux in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
