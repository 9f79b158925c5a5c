// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public packages, checks every output,
// and prints each metric by name with its unit and sample count, ending
// with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end numbers a user waits on;
// with -trace 1 a separate traced run replays the same work with spans
// around each layer call and reports per-layer self times, span coverage,
// tracing overhead and the exact work counters. Run it from the repository
// root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload fleet-cold --seed 1 --seconds 30 --trace 0
//
// See perfbench/README.md for the workloads and what each metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric of the JSON result line.
type metricDef struct{ name, unit string }

// endToEnd are the -trace 0 metrics, reported for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"sims_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the -trace 1 metrics, reported for every workload.
var perLayer = []metricDef{
	{"workload.trace_gen_ms", "ms"},
	{"faultmodel.build_ms", "ms"},
	{"gpu.new_ms_per_sim", "ms"},
	{"gpu.new_alloc_kb_per_sim", "KiB"},
	{"gpu.run_ms_per_sim", "ms"},
	{"engine.ns_per_event", "ns"},
	{"engine.events_per_sim", "count"},
	{"cache.l2_accesses_per_sim", "count"},
	{"cache.l2_miss_ratio", "ratio"},
	{"cache.l1_hit_ratio", "ratio"},
	{"killi.ecc_accesses_per_sim", "count"},
	{"protection.corrected_reads_per_sim", "count"},
	{"killi.lines_disabled_per_sim", "count"},
	{"simcache.hit_ratio", "ratio"},
	{"simserver.jobs_coalesced", "count"},
	{"simserver.jobs_rejected", "count"},
	{"simserver.retained_hits", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ms", "ms"},
}

// workloadSpec is one named workload: measure is the untraced run that
// yields the end-to-end metrics, trace the traced run that yields the
// per-layer ones.
type workloadSpec struct {
	name    string
	measure func(ctx context.Context, e *env, r *report) error
	trace   func(ctx context.Context, e *env, r *report) error
}

var workloads = []workloadSpec{
	{"fleet-cold", measureFleetCold, traceFleetCold},
	{"sweep-all-schemes", measureSweep, traceSweep},
	{"simd-mixed", measureSimd, traceSimd},
}

// workers is the benchmark's concurrency: the campaign and sweep
// parallelism, the job server's worker pool, the closed-loop client count
// and the replays' pools. It matches the two CPUs the benchmark was tuned
// on, so the numbers measure the program rather than the scheduler.
const workers = 2

// env is one run's inputs and scratch space.
type env struct {
	seed   uint64
	budget time.Duration
	dir    string // scratch directory, removed when the run ends
	outDir string // where the span file lands
}

// tempDir creates a fresh directory under the run's scratch space.
func (e *env) tempDir(name string) (string, error) {
	return os.MkdirTemp(e.dir, name+"-")
}

// report collects a run's metrics and failure tally, printing each metric
// as a human-readable line when it is recorded.
type report struct {
	tally
	out     io.Writer
	metrics map[string]float64
}

// metric records one value; n is its sample count and how says what the
// value summarizes.
func (r *report) metric(name, unit string, value float64, n int, how string) {
	r.metrics[name] = value
	fmt.Fprintf(r.out, "%-36s %14.6g %-6s n=%-6d %s\n", name, value, unit, n, how)
}

// note prints an informational line.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "how long the untraced run measures, in seconds")
	traced := fs.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	switch {
	case spec == nil:
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: -seconds must be >= 1, got %d\n", *seconds)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}

	if *seed == 0 {
		*seed = 1 // the programs read seed 0 as their default, 1
	}

	outDir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, dir: dir, outDir: outDir}
	r := &report{out: stdout, metrics: map[string]float64{}}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", spec.name, *seed, *seconds, *traced)

	ctx := context.Background()
	want := endToEnd
	if *traced == 1 {
		want = perLayer
		err = spec.trace(ctx, e, r)
	} else {
		err = spec.measure(ctx, e, r)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	r.metric("failed_ratio", "ratio", r.ratio(), r.attempted, "failed or wrong-output operations / attempted")
	if r.firstErr != "" {
		r.note("first failure: %s", r.firstErr)
	}
	line, err := resultLine(r, want)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// resultLine renders the final JSON object with exactly the wanted
// metrics; a missing or non-finite one is a benchmark bug.
func resultLine(r *report, want []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	var missing []string
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.name)
			continue
		}
		metrics[m.name] = value{v, m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("metrics missing or not finite: %s", strings.Join(missing, ", "))
	}
	if r.attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	return string(buf), err
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current resident set, so the next readPeakRSSMB covers
// only what ran in between. It reports whether the reset took; where it
// cannot (not Linux), the mark stays process-wide.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// freshCall collects the garbage earlier calls left and resets the
// high-water mark, so every timed call starts from the same heap state
// and its peak is its own. It reports whether the mark was reset.
func freshCall() bool {
	runtime.GC()
	return resetPeakRSS()
}

// readPeakRSSMB returns the resident-set high-water mark in MiB: VmHWM
// from /proc/self/status, or the process-wide ru_maxrss where that file
// does not exist.
func readPeakRSSMB() float64 {
	if buf, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// calls holds the timed calls of one run.
type calls struct {
	walls  []float64 // seconds
	peaks  []float64 // resident-set high-water mark during each call, MiB
	perRun bool      // the marks could not be reset, so each is process-wide
}

// report records the end-to-end metrics of the timed calls: opsPerCall
// operations and sims[i] simulations ran in call i.
func (c *calls) report(r *report, opName string, opsPerCall int, sims []int, call string) {
	ops := make([]float64, len(c.walls))
	simRates := make([]float64, len(c.walls))
	ms := make([]float64, len(c.walls))
	for i, w := range c.walls {
		ops[i] = float64(opsPerCall) / w
		simRates[i] = float64(sims[i]) / w
		ms[i] = w * 1000
	}
	r.metric("ops_per_s", "1/s", median(ops), len(ops),
		fmt.Sprintf("median %s/s over %s calls of %d %s", opName, call, opsPerCall, opName))
	r.metric("sims_per_s", "1/s", median(simRates), len(simRates), "median simulations executed per second, per call")
	r.metric("p50_ms", "ms", median(ms), len(ms), "median "+call+" wall time")
	c.reportPeak(r, "timed call")
}

// reportPeak records peak_rss_mb as the median of the high-water marks,
// each taken over one interval (per names it).
func (c *calls) reportPeak(r *report, per string) {
	how := "median resident-set high-water mark per " + per
	if c.perRun {
		how = "resident-set high-water mark of the whole process"
	}
	r.metric("peak_rss_mb", "MB", median(c.peaks), len(c.peaks), how)
}

// repeatSetup runs a workload's set-up n times, each after a collection,
// and records the median as setup_s; the last repetition's state is the
// one the run keeps.
func repeatSetup(r *report, n int, fn func(last bool) error) error {
	times := make([]float64, n)
	for i := range times {
		runtime.GC()
		start := time.Now()
		if err := fn(i == n-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times[i] = time.Since(start).Seconds()
	}
	r.metric("setup_s", "s", median(times), n, "median set-up wall time")
	return nil
}

// timeLoop calls fn until the budget has elapsed, at least once, and
// returns every call's wall time and resident-set high-water mark. fn
// returns the duration of its timed part; its error aborts the run: it is
// reserved for failures of the benchmark itself, while the program's
// failures go to the report's tally.
func timeLoop(budget time.Duration, fn func(i int) (time.Duration, error)) (*calls, error) {
	c := &calls{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		c.perRun = !freshCall()
		d, err := fn(i)
		if err != nil {
			return nil, err
		}
		c.walls = append(c.walls, d.Seconds())
		c.peaks = append(c.peaks, readPeakRSSMB())
	}
	return c, nil
}

// writeSpans stores the tracer's spans and reports where they went.
func writeSpans(e *env, r *report, t *tracer, workload string) error {
	path := filepath.Join(e.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, e.seed))
	if err := t.write(path); err != nil {
		return err
	}
	r.note("%d spans written to %s", len(t.spans), path)
	return nil
}
