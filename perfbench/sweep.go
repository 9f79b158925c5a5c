package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"killi/internal/experiments"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/protection"
)

// The sweep shape: two compute-bound and two memory-bound workloads, the
// fault-free baseline plus every catalog scheme, one warmup kernel so the
// measured kernel runs the trained-DFH steady state.
var sweepWorkloads = []string{"nekbone", "quicksilver", "xsbench", "fft"}

const (
	sweepRequests = 4000
	sweepWarmup   = 1
	sweepVoltage  = 0.625
	// sweepSetups set-ups (about 6 ms each) are timed for setup_s.
	sweepSetups = 51
)

func sweepConfig(seed uint64) experiments.Config {
	return experiments.Config{
		Voltage:       sweepVoltage,
		RequestsPerCU: sweepRequests,
		Seed:          seed,
		Workloads:     sweepWorkloads,
		WarmupKernels: sweepWarmup,
		Parallelism:   workers,
	}
}

// sweepSims is the number of simulations one sweep runs.
func sweepSims() int { return len(sweepWorkloads) * (1 + len(experiments.Schemes())) }

// rowsDigest hashes the sweep rows at %.17g, in workload order and sorted
// scheme order.
func rowsDigest(rows []experiments.Row) string {
	h := sha256.New()
	for _, row := range rows {
		fmt.Fprintf(h, "%s %d %d %.17g\n", row.Workload, row.Class, row.BaselineCycles, row.BaselineMPKI)
		for _, s := range row.SchemeNames() {
			fmt.Fprintf(h, "  %s %.17g %.17g %d\n", s, row.Normalized[s], row.MPKI[s], row.Disabled[s])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func measureSweep(ctx context.Context, e *env, r *report) error {
	cfg := sweepConfig(e.seed)
	if err := repeatSetup(r, sweepSetups, func(bool) error {
		_, err := genTraces(nil, 0, cfg.Workloads, cfg.RequestsPerCU, experiments.KernelSeeds(cfg.Seed, cfg.WarmupKernels))
		return err
	}); err != nil {
		return err
	}
	dc := &digestCheck{workload: "sweep-all-schemes", seed: e.seed}
	var sims []int
	timed, err := timeLoop(e.budget, func(int) (time.Duration, error) {
		start := time.Now()
		rows, err := experiments.Run(ctx, cfg)
		d := time.Since(start)
		switch {
		case err != nil:
			r.fail(sweepSims(), "experiments.Run: %v", err)
		default:
			msg := dc.check(rowsDigest(rows))
			r.check(sweepSims(), msg == "", "%s", msg)
		}
		sims = append(sims, sweepSims())
		return d, nil
	})
	if err != nil {
		return err
	}
	timed.report(r, "sims", sweepSims(), sims, "experiments.Run")
	return nil
}

// traceSweep runs experiments.Run untraced (twice: the first call warms
// the heap, the second is the reference), then replays the same
// sweep through the calls experiments.Run makes — trace generation, the
// two shared fault maps, one construction and run per task — with spans,
// and checks every task's result against the untraced rows.
func traceSweep(ctx context.Context, e *env, r *report) error {
	cfg := sweepConfig(e.seed)
	seeds := experiments.KernelSeeds(cfg.Seed, cfg.WarmupKernels)
	t := newTracer()
	setup := t.begin(setupSpan, 0, "")
	if _, err := genTraces(t, setup, cfg.Workloads, cfg.RequestsPerCU, seeds); err != nil {
		return err
	}
	t.end(setup)

	// The first untraced call warms the heap; the second is the reference.
	var rows []experiments.Row
	var wallU time.Duration
	for i := 0; i < 2; i++ {
		start := time.Now()
		var err error
		rows, err = experiments.Run(ctx, cfg)
		wallU = time.Since(start)
		if err != nil {
			return fmt.Errorf("experiments.Run: %w", err)
		}
	}
	if msg := (&digestCheck{workload: "sweep-all-schemes", seed: e.seed}).check(rowsDigest(rows)); msg != "" {
		r.fail(sweepSims(), "%s", msg)
	}

	counts := &simCounts{}
	start := time.Now()
	results, err := replaySweep(ctx, t, cfg, seeds, counts)
	wallT := time.Since(start)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	specs := experiments.Schemes()
	for wi, row := range rows {
		base := results[wi*(1+len(specs))]
		for si, s := range specs {
			res := results[wi*(1+len(specs))+1+si]
			got := []float64{float64(res.Cycles) / float64(base.Cycles), res.MPKI(), float64(res.DisabledLines)}
			want := []float64{row.Normalized[s.Name], row.MPKI[s.Name], float64(row.Disabled[s.Name])}
			r.check(1, got[0] == want[0] && got[1] == want[1] && got[2] == want[2],
				"%s", mismatch(row.Workload+"/"+s.Name+" (normalized, mpki, disabled)", got, want))
		}
		r.check(1, base.Cycles == row.BaselineCycles && base.MPKI() == row.BaselineMPKI,
			"%s", mismatch(row.Workload+" baseline (cycles, mpki)", []any{base.Cycles, base.MPKI()}, []any{row.BaselineCycles, row.BaselineMPKI}))
	}

	sum := summarize(t.spans)
	reportLayers(r, sum, counts, float64(wallT-wallU)/1e6)
	r.metric("simcache.hit_ratio", "ratio", 0, 0, "no cache on this workload")
	noService(r)
	return writeSpans(e, r, t, "sweep-all-schemes")
}

// replaySweep mirrors experiments.Run: traces for every workload, one
// fault map at nominal and one at the LV point, then every task (per
// workload the baseline, then each catalog scheme) on the worker pool.
// Results come back in task order. Each task is a root span; the shared
// preparation is one more.
func replaySweep(ctx context.Context, t *tracer, cfg experiments.Config, seeds []uint64, counts *simCounts) ([]gpu.Result, error) {
	prep := t.begin("experiments.prepare", 0, "sweep")
	traces, err := genTraces(t, prep, cfg.Workloads, cfg.RequestsPerCU, seeds)
	if err != nil {
		return nil, err
	}
	base := gpu.DefaultConfig()
	gBase, gLV := base, base
	gBase.Voltage = 1.0
	gLV.Voltage = cfg.Voltage
	build := func(g gpu.Config) *gpu.SharedFaults {
		sp := t.begin("faultmodel.build", prep, "sweep")
		defer t.end(sp)
		return gpu.BuildSharedFaults(g)
	}
	faultsBase, faultsLV := build(gBase), build(gLV)
	t.end(prep)
	classes, err := faultmodel.ParseClassSpec(cfg.FaultClasses)
	if err != nil {
		return nil, err
	}
	specs := experiments.Schemes()
	per := 1 + len(specs)
	results := make([]gpu.Result, len(cfg.Workloads)*per)
	err = forEach(len(results), func(i int) error {
		wi, si := i/per, i%per-1
		g := base
		var newScheme protection.Factory
		var faults *gpu.SharedFaults
		name := "none"
		if si < 0 {
			g.Voltage = 1.0
			newScheme = func() protection.Scheme { return protection.NewNone() }
			faults = faultsBase
		} else {
			g.Voltage = cfg.Voltage
			g.Classes = classes
			newScheme, name = specs[si].New, specs[si].Name
			faults = faultsLV
		}
		op := "cell=" + cfg.Workloads[wi] + "/" + name
		task := t.begin("experiments.task", 0, op)
		defer t.end(task)
		res, err := simulate(ctx, t, task, op, g, newScheme, faults, traces[wi], counts)
		results[i] = res
		return err
	})
	return results, err
}
