// killi-bench measures the simulator core and records the numbers in a
// tracked JSON baseline (BENCH_core.json), so performance regressions show
// up in review like any other diff.
//
// Captured metrics:
//
//   - engine ns/event and allocs/event: a steady-state event-queue
//     microbenchmark over the engine's pop loop (reused engine and sink,
//     100 events per iteration) via testing.Benchmark;
//   - single_run_seconds: wall-clock (best of 3) for one simulation —
//     xsbench × killi-1:64 at 0.625xVDD, 2500 requests per CU;
//   - sweep_seconds: wall-clock for the serial (-parallel 1) four-workload
//     Figure 4/5 sweep at 0.625xVDD with 2500 requests per CU, no cache;
//   - sweep_cold_seconds: the same sweep writing a fresh result cache
//     (simulate everything, persist every task result);
//   - sweep_warm_seconds: the same sweep again over that cache (every
//     task served from disk);
//   - single_run_cycles and single_run_serial_timestamps: the tracked
//     run's deterministic scheduling ledger — simulated cycles and the
//     engine's distinct event timestamps. Pure functions of the
//     simulation, so they gate exactly on any host;
//   - server_cold_rps and server_hot_rps: requests per second through the
//     killi-simd job API (internal/simserver over HTTP) — cold drives
//     distinct jobs that all simulate, hot replays them against the warm
//     result cache. Cold stays ungated (machine- and load-shape-dependent);
//     hot gates as a loose 2x floor, because warm-request latency on a
//     shared 1-core host swings ±35% run to run but a halving means the
//     warm path stopped being warm (e.g. a cache-bypass bug drops it to
//     cold throughput, three orders of magnitude below the floor);
//   - campaign_dies_per_second: die throughput of a small serial
//     internal/campaign Monte Carlo fleet (12 dies × two schemes × a
//     two-point grid, 1200 requests per CU), the shared-state resolve +
//     streaming-aggregation path killi-fleet runs. Gated as a 1.5x
//     throughput floor — compute-bound like the sweeps, but measured once
//     over ~a second on a possibly shared core, so it gets more headroom
//     than their 15%; the failures it exists to catch (rebuilding fault
//     maps per voltage, losing trace sharing) are 2x or worse;
//   - campaign_warm_dies_per_second: the same campaign re-run against a
//     warm die cache (whole-die records streamed from disk — no fault
//     maps, no simulation). Gated relative to the same run's cold rate
//     (>= 10x) instead of the baseline, so host speed cancels out; a warm
//     run below 10x cold means the die cache stopped being hit.
//
// When the output file already exists, its "baseline" entry is preserved
// and only "current" is rewritten; delete the file to rebase the baseline.
//
// With -enforce, the run exits nonzero when the fresh measurement regresses
// against the file's baseline entry (15% on ns_per_event,
// single_run_seconds, and sweep_seconds; 1.5x on the fsync-bound
// sweep_cold_seconds; 2x on the ms-scale, I/O-bound sweep_warm_seconds;
// throughput floors of 1.5x on
// campaign_dies_per_second and 2x on server_hot_rps; a 10x relative floor
// on campaign_warm_dies_per_second against the same run's cold rate), when
// allocs_per_event is nonzero, or when any gated baseline field is zero —
// a zero baseline means the gate would silently pass, so it is an error,
// not a skip.
// The deterministic scheduling gates are exact: cycles and serial
// timestamps must match the baseline bit-for-bit (a change means the
// simulation's semantics moved — rebase deliberately, with the goldens).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"killi/internal/campaign"
	"killi/internal/engine"
	"killi/internal/experiments"
	"killi/internal/gpu"
	"killi/internal/killi"
	"killi/internal/protection"
	"killi/internal/simserver"
)

type point struct {
	NsPerEvent       float64 `json:"ns_per_event"`
	AllocsPerEvent   float64 `json:"allocs_per_event"`
	SingleRunSeconds float64 `json:"single_run_seconds"`
	SweepSeconds     float64 `json:"sweep_seconds"`
	SweepColdSeconds float64 `json:"sweep_cold_seconds"`
	SweepWarmSeconds float64 `json:"sweep_warm_seconds"`
	ServerColdRPS    float64 `json:"server_cold_rps"`
	ServerHotRPS     float64 `json:"server_hot_rps"`
	// CampaignDiesPerSecond is the die throughput of the fixed serial
	// benchmark campaign (higher is better; gated as a floor).
	CampaignDiesPerSecond float64 `json:"campaign_dies_per_second"`
	// CampaignWarmDiesPerSecond is the same campaign re-run against a warm
	// die cache: every die streamed from disk, no fault maps, no
	// simulation. Gated relative to the same run's cold rate (>= 10x), so
	// host speed cancels out of the gate.
	CampaignWarmDiesPerSecond float64 `json:"campaign_warm_dies_per_second"`
	// Deterministic scheduling ledger of the tracked single run: exact
	// integers stored as float64 so the struct stays comparable and the
	// JSON stays uniform. Identical on every host at a given commit.
	SingleRunCycles           float64 `json:"single_run_cycles"`
	SingleRunSerialTimestamps float64 `json:"single_run_serial_timestamps"`
}

type report struct {
	Baseline point `json:"baseline"`
	Current  point `json:"current"`
}

const eventsPerIter = 100

// sinkFunc adapts a function to engine.EventSink.
type sinkFunc func(kind uint8, a, b uint64)

func (f sinkFunc) OnEvent(kind uint8, a, b uint64) { f(kind, a, b) }

// benchEngine measures the engine's pop loop — the path every simulation
// runs on — with a self-rescheduling sink that keeps the queue warm.
func benchEngine() (nsPerEvent, allocsPerEvent float64) {
	res := testing.Benchmark(func(b *testing.B) {
		s := engine.New(1)
		d := s.Domain(0)
		d.Bind(sinkFunc(func(kind uint8, a, bb uint64) {
			if a%2 == 0 {
				d.After(d.Now()%13, kind, a+1, bb)
			}
		}))
		for i := 0; i < 128; i++ {
			d.After(uint64(i%13), 0, uint64(i), 0)
		}
		s.Run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < eventsPerIter; j++ {
				d.After(uint64(j%13), 0, uint64(j), 0)
			}
			s.Run()
		}
	})
	return float64(res.NsPerOp()) / eventsPerIter,
		float64(res.AllocsPerOp()) / eventsPerIter
}

// sweepConfig is the fixed benchmark sweep; cacheDir == "" disables the
// result cache.
func sweepConfig(cacheDir string) experiments.Config {
	return experiments.Config{
		Voltage:       0.625,
		RequestsPerCU: 2500,
		Seed:          1,
		Workloads:     []string{"nekbone", "quicksilver", "xsbench", "fft"},
		Parallelism:   1,
		CacheDir:      cacheDir,
	}
}

func benchSweep(cacheDir string) (float64, error) {
	start := time.Now()
	if _, err := experiments.Run(context.Background(), sweepConfig(cacheDir)); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// benchSingle measures one simulation's wall-clock (best of three) — the
// sweep's memory-bound cell, xsbench × killi-1:64 — and returns the run's
// result, whose Sched ledger carries the deterministic timestamp counter.
func benchSingle() (float64, gpu.Result, error) {
	cfg := experiments.Config{
		Voltage:       0.625,
		RequestsPerCU: 2500,
		Seed:          1,
	}
	newScheme := func() protection.Scheme { return killi.New(killi.Config{Ratio: 64}) }
	best := 0.0
	var res gpu.Result
	for i := 0; i < 3; i++ {
		start := time.Now()
		r, err := experiments.RunOne(context.Background(), cfg, "xsbench", newScheme, cfg.Voltage)
		if err != nil {
			return 0, gpu.Result{}, err
		}
		res = r
		if s := time.Since(start).Seconds(); i == 0 || s < best {
			best = s
		}
	}
	return best, res, nil
}

// benchServer measures request throughput through the killi-simd job API:
// a simserver behind a real HTTP listener, driven cold (serverJobs distinct
// run jobs, all submitted at once so the worker pool is saturated, every
// one simulating) and then hot (serverHotN sequential replays of the same
// jobs, every one a cache hit — 1/latency of a warm request).
func benchServer() (coldRPS, hotRPS float64, err error) {
	cacheDir, err := os.MkdirTemp("", "killi-bench-server-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(cacheDir)
	svc, err := simserver.New(simserver.Config{CacheDir: cacheDir, QueueDepth: serverJobs})
	if err != nil {
		return 0, 0, err
	}
	defer svc.Close(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(seed int) error {
		body := fmt.Sprintf(
			`{"kind":"run","workload":"xsbench","scheme":"killi-1:64","requests_per_cu":2500,"seed":%d}`, seed)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("job seed %d: status %d", seed, resp.StatusCode)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make([]error, serverJobs)
	start := time.Now()
	for i := 0; i < serverJobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = post(1 + i)
		}(i)
	}
	wg.Wait()
	coldRPS = serverJobs / time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}

	start = time.Now()
	for i := 0; i < serverHotN; i++ {
		if err := post(1 + i%serverJobs); err != nil {
			return 0, 0, err
		}
	}
	hotRPS = serverHotN / time.Since(start).Seconds()
	return coldRPS, hotRPS, nil
}

const (
	serverJobs = 16  // distinct cold jobs (and the hot phase's key set)
	serverHotN = 200 // sequential warm requests
)

// benchCampaign measures fleet-campaign die throughput: a fixed serial
// internal/campaign run — per-die fault-map build and per-voltage resolve,
// baseline + scheme×voltage cell simulations, streaming aggregation — sized
// to land around a second on a 1-core host. Best of two, because the noise
// on a shared core is purely additive slowdown. cacheDir == "" disables the
// die cache (the cold configuration campaign_dies_per_second tracks).
func benchCampaign(cacheDir string) (diesPerSecond float64, err error) {
	best := 0.0
	for i := 0; i < 2; i++ {
		res, err := campaign.Run(context.Background(), campaign.Config{
			Workloads:     []string{"xsbench"},
			Schemes:       []string{"killi-1:64", "msecc"},
			Voltages:      []float64{0.600, 0.625},
			Dies:          campaignDies,
			Seed:          1,
			RequestsPerCU: 1200,
			Parallelism:   1,
			CacheDir:      cacheDir,
		})
		if err != nil {
			return 0, err
		}
		if res.DiesPerSecond > best {
			best = res.DiesPerSecond
		}
	}
	return best, nil
}

// benchCampaignWarm measures the whole-die cache fast path: one pass over a
// fresh cache dir populates it with die records (and warms the page cache),
// then the best of two fully warm passes is the tracked rate — every die
// streamed from disk, no fault maps, no simulation.
func benchCampaignWarm() (float64, error) {
	dir, err := os.MkdirTemp("", "killi-bench-campaign-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	if _, err := benchCampaign(dir); err != nil {
		return 0, err
	}
	return benchCampaign(dir)
}

const campaignDies = 12

// enforce compares a fresh measurement against the committed baseline and
// returns the violations (empty = within budget). Latency metrics gate
// at 15%; the ms-scale, I/O-bound warm-cache sweep gates loosely at 2x;
// throughput metrics (campaign dies/s, warm-request RPS) gate as floors;
// allocs_per_event gates absolutely at zero (any nonzero measurement means
// a hot path grew an allocation, e.g. an instrumentation hook escaping its
// nil-observer guard). A zero-valued baseline on any gated field is itself
// a violation: it means the committed file never captured that metric and
// the ratio gate would silently pass forever.
func enforce(baseline, cur point) []string {
	var bad []string
	for _, g := range []struct {
		name      string
		base, cur float64
		maxRatio  float64
	}{
		{"ns_per_event", baseline.NsPerEvent, cur.NsPerEvent, 1.15},
		{"single_run_seconds", baseline.SingleRunSeconds, cur.SingleRunSeconds, 1.15},
		{"sweep_seconds", baseline.SweepSeconds, cur.SweepSeconds, 1.15},
		// The cold sweep adds a per-entry write+fsync to the compute the
		// 15%-gated sweep_seconds already covers, and fsync latency on a
		// shared host swings ~30% run to run (measured 1.09s..1.39s against
		// a 1.06s baseline). A real cache-write regression — serialized
		// fsyncs, double writes — is 2x or worse, so 1.5x separates the two.
		{"sweep_cold_seconds", baseline.SweepColdSeconds, cur.SweepColdSeconds, 1.5},
		{"sweep_warm_seconds", baseline.SweepWarmSeconds, cur.SweepWarmSeconds, 2.0},
	} {
		if g.base == 0 {
			bad = append(bad, fmt.Sprintf("%s baseline is 0 — the gate cannot fire; rebase the baseline (delete the file and rerun)", g.name))
			continue
		}
		if g.cur > g.base*g.maxRatio {
			bad = append(bad, fmt.Sprintf("%s %.4f exceeds baseline %.4f by more than %d%%",
				g.name, g.cur, g.base, int((g.maxRatio-1)*100+0.5)))
		}
	}
	// Throughput floors: higher is better, so these gate downward. The
	// ratios differ because the noise does — campaign throughput is
	// compute-bound (1.5x floor), warm-request RPS on a shared host swings
	// ±35% run to run, so only a halving (the shape of a cache-bypass bug)
	// fails it.
	for _, g := range []struct {
		name      string
		base, cur float64
		minRatio  float64
	}{
		{"campaign_dies_per_second", baseline.CampaignDiesPerSecond, cur.CampaignDiesPerSecond, 1.5},
		{"server_hot_rps", baseline.ServerHotRPS, cur.ServerHotRPS, 2.0},
	} {
		if g.base == 0 {
			bad = append(bad, fmt.Sprintf("%s baseline is 0 — the gate cannot fire; rebase the baseline (delete the file and rerun)", g.name))
			continue
		}
		if g.cur < g.base/g.minRatio {
			bad = append(bad, fmt.Sprintf("%s %.2f fell below baseline %.2f by more than %.1fx",
				g.name, g.cur, g.base, g.minRatio))
		}
	}
	// The warm campaign gates against the same run's cold rate, not the
	// baseline, so host speed cancels out: a warm re-run below 10x cold
	// means the die cache stopped answering (a key or schema drift quietly
	// recomputing every cell), which is a different regime, not noise.
	if cur.CampaignWarmDiesPerSecond < 10*cur.CampaignDiesPerSecond {
		bad = append(bad, fmt.Sprintf("campaign_warm_dies_per_second %.2f is not >= 10x the cold rate %.2f — the die cache is not being hit",
			cur.CampaignWarmDiesPerSecond, cur.CampaignDiesPerSecond))
	}
	if cur.AllocsPerEvent > 0 {
		bad = append(bad, fmt.Sprintf("allocs_per_event %.2f, want 0 (steady state must stay allocation-free)",
			cur.AllocsPerEvent))
	}
	// Deterministic scheduling gates: these counters are pure functions of
	// the simulation, so they compare exactly, not by ratio.
	for _, g := range []struct {
		name      string
		base, cur float64
	}{
		{"single_run_cycles", baseline.SingleRunCycles, cur.SingleRunCycles},
		{"single_run_serial_timestamps", baseline.SingleRunSerialTimestamps, cur.SingleRunSerialTimestamps},
	} {
		if g.base == 0 {
			bad = append(bad, fmt.Sprintf("%s baseline is 0 — rebase the baseline (delete the file and rerun)", g.name))
		} else if g.cur != g.base {
			bad = append(bad, fmt.Sprintf("%s %.0f differs from baseline %.0f — simulation semantics moved; rebase deliberately, with the goldens",
				g.name, g.cur, g.base))
		}
	}
	return bad
}

func main() {
	out := flag.String("o", "BENCH_core.json", "output file for the benchmark report")
	gate := flag.Bool("enforce", false, "exit nonzero on regression against the file's baseline entry (15% latency, 2x warm cache, 1.5x/2x throughput floors), nonzero allocs_per_event, or a zero-valued gated baseline field")
	flag.Parse()

	ns, allocs := benchEngine()
	fmt.Fprintf(os.Stderr, "engine: %.1f ns/event, %.2f allocs/event\n", ns, allocs)

	single, res, err := benchSingle()
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: single run: %v\n", err)
		os.Exit(1)
	}
	cycles, serialStamps := res.Cycles, res.Sched.Timestamps
	fmt.Fprintf(os.Stderr, "single: %.3f s (xsbench x killi-1:64, 2500 req/CU, best of 3; %d cycles, %d event timestamps)\n",
		single, cycles, serialStamps)

	sweep, err := benchSweep("")
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: sweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "sweep:  %.3f s (4 workloads, 2500 req/CU, serial, no cache)\n", sweep)

	cacheDir, err := os.MkdirTemp("", "killi-bench-cache-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(cacheDir)
	cold, err := benchSweep(cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: cold sweep: %v\n", err)
		os.Exit(1)
	}
	warm, err := benchSweep(cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: warm sweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cache:  cold %.3f s -> warm %.3f s (%.1f%% of cold)\n",
		cold, warm, 100*warm/cold)

	coldRPS, hotRPS, err := benchServer()
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: server: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "server: cold %.1f req/s -> hot %.1f req/s (%d jobs via the killi-simd API)\n",
		coldRPS, hotRPS, serverJobs)

	diesPerSec, err := benchCampaign("")
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: campaign: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "fleet:  %.2f dies/s (%d dies, 2 schemes x 2 voltages, 1200 req/CU, serial)\n",
		diesPerSec, campaignDies)

	warmDies, err := benchCampaignWarm()
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: warm campaign: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "fleet:  warm %.2f dies/s (%.0fx cold, whole-die cache)\n",
		warmDies, warmDies/diesPerSec)

	cur := point{
		NsPerEvent:                ns,
		AllocsPerEvent:            allocs,
		SingleRunSeconds:          single,
		SweepSeconds:              sweep,
		SweepColdSeconds:          cold,
		SweepWarmSeconds:          warm,
		ServerColdRPS:             coldRPS,
		ServerHotRPS:              hotRPS,
		CampaignDiesPerSecond:     diesPerSec,
		CampaignWarmDiesPerSecond: warmDies,
		SingleRunCycles:           float64(cycles),
		SingleRunSerialTimestamps: float64(serialStamps),
	}
	rep := report{Baseline: cur, Current: cur}
	if prev, err := os.ReadFile(*out); err == nil {
		var old report
		if json.Unmarshal(prev, &old) == nil && old.Baseline != (point{}) {
			rep.Baseline = old.Baseline
			// Fields the committed baseline predates start at the current
			// measurement instead of a meaningless zero.
			if rep.Baseline.ServerColdRPS == 0 {
				rep.Baseline.ServerColdRPS = cur.ServerColdRPS
			}
			if rep.Baseline.ServerHotRPS == 0 {
				rep.Baseline.ServerHotRPS = cur.ServerHotRPS
			}
			if rep.Baseline.CampaignDiesPerSecond == 0 {
				rep.Baseline.CampaignDiesPerSecond = cur.CampaignDiesPerSecond
			}
			if rep.Baseline.CampaignWarmDiesPerSecond == 0 {
				rep.Baseline.CampaignWarmDiesPerSecond = cur.CampaignWarmDiesPerSecond
			}
			if rep.Baseline.SingleRunCycles == 0 {
				rep.Baseline.SingleRunCycles = cur.SingleRunCycles
				rep.Baseline.SingleRunSerialTimestamps = cur.SingleRunSerialTimestamps
			}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "killi-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (baseline sweep %.3fs -> current %.3fs, %.2fx; single %.3fs; warm cache %.3fs)\n",
		*out, rep.Baseline.SweepSeconds, rep.Current.SweepSeconds,
		rep.Baseline.SweepSeconds/rep.Current.SweepSeconds, single, warm)

	if *gate {
		if bad := enforce(rep.Baseline, cur); len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintf(os.Stderr, "killi-bench: REGRESSION: %s\n", b)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "killi-bench: within baseline budget")
	}
}
