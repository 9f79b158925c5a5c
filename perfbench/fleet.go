package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"killi/internal/campaign"
	"killi/internal/experiments"
	"killi/internal/faultmodel"
	"killi/internal/gpu"
	"killi/internal/protection"
	"killi/internal/workload"
)

// The fleet shape: a memory-bound workload (xsbench, L2 MPKI ~430), Killi
// at its mid ECC ratio beside an OLSC codec, short traces and no warmup —
// per-die work dominated by fault-map, construction and event-queue cost.
const (
	fleetDies     = 8
	fleetRequests = 1200
	// fleetSetups set-ups (about 0.3 ms each) are timed for setup_s.
	fleetSetups = 101
)

var (
	fleetSchemes = []string{"killi-1:64", "msecc"}
	coldGrid     = []float64{0.600, 0.625}
)

// fleetConfig returns the normalized campaign config, every default
// explicit.
func fleetConfig(seed uint64, grid []float64) campaign.Config {
	c, err := campaign.Config{
		Workloads:     []string{"xsbench"},
		Schemes:       fleetSchemes,
		Voltages:      grid,
		Dies:          fleetDies,
		Seed:          seed,
		RequestsPerCU: fleetRequests,
		Parallelism:   workers,
	}.Normalized()
	if err != nil {
		panic(err) // the shape is fixed; only a program change can reject it
	}
	return c
}

// simsPerDie is the number of simulation cells one die evaluates.
func simsPerDie(c campaign.Config) int {
	return len(c.Workloads) * (1 + len(c.Schemes)*len(c.FaultClasses)*len(c.Voltages))
}

// executedSims counts the simulations a campaign actually ran: every cell
// of every die, less the whole dies and cells the cache served.
func executedSims(c campaign.Config, res *campaign.Result) int {
	per := simsPerDie(c)
	return res.Dies*per - res.CachedDies*per - int(res.CellCacheHits)
}

// fleetInputs is a fleet campaign's set-up: validating the config and
// generating its traces, as campaign.Run does before its first die.
func fleetInputs(t *tracer, parent int, cfg campaign.Config) ([]*workload.TraceSet, error) {
	if _, err := cfg.Normalized(); err != nil {
		return nil, err
	}
	return genTraces(t, parent, cfg.Workloads, cfg.RequestsPerCU, experiments.KernelSeeds(cfg.Seed, cfg.WarmupKernels))
}

// campaignDigest hashes the campaign's table and CSV renderings — the
// bytes killi-fleet prints.
func campaignDigest(res *campaign.Result) (string, error) {
	h := sha256.New()
	if err := res.WriteTable(h); err != nil {
		return "", err
	}
	if err := res.WriteCSV(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkCampaign records one campaign.Run call's outcome: an error or a
// wrong output fails all of its dies.
func checkCampaign(r *report, dc *digestCheck, dies int, res *campaign.Result, err error) {
	if err != nil {
		r.fail(dies, "campaign.Run: %v", err)
		return
	}
	digest, err := campaignDigest(res)
	if err != nil {
		r.fail(dies, "rendering campaign output: %v", err)
		return
	}
	if msg := dc.check(digest); msg != "" {
		r.fail(dies, "%s", msg)
		return
	}
	r.ok(dies)
}

func measureFleetCold(ctx context.Context, e *env, r *report) error {
	cfg := fleetConfig(e.seed, coldGrid)
	if err := repeatSetup(r, fleetSetups, func(bool) error {
		_, err := fleetInputs(nil, 0, cfg)
		return err
	}); err != nil {
		return err
	}
	dc := &digestCheck{workload: "fleet-cold", seed: e.seed}
	var sims []int
	timed, err := timeLoop(e.budget, func(int) (time.Duration, error) {
		start := time.Now()
		res, err := campaign.Run(ctx, cfg)
		d := time.Since(start)
		checkCampaign(r, dc, cfg.Dies, res, err)
		if err == nil {
			sims = append(sims, executedSims(cfg, res))
		} else {
			sims = append(sims, 0)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	timed.report(r, "dies", cfg.Dies, sims, "campaign.Run")
	return nil
}

// traceFleetCold runs campaign.Run untraced (twice: the first call warms
// the heap, the second is the reference), then replays the same campaign
// die by die through the public calls campaign.Run makes, with spans, and
// checks that the replay's per-cell results aggregate to the untraced
// campaign's cells exactly.
func traceFleetCold(ctx context.Context, e *env, r *report) error {
	t := newTracer()
	setup := t.begin(setupSpan, 0, "")
	cfg := fleetConfig(e.seed, coldGrid)
	traces, err := fleetInputs(t, setup, cfg)
	if err != nil {
		return err
	}
	t.end(setup)

	var res *campaign.Result
	var wallU time.Duration
	for i := 0; i < 2; i++ {
		start := time.Now()
		res, err = campaign.Run(ctx, cfg)
		wallU = time.Since(start)
		if err != nil {
			return fmt.Errorf("campaign.Run: %w", err)
		}
	}
	checkCampaign(r, &digestCheck{workload: "fleet-cold", seed: e.seed}, cfg.Dies, res, nil)

	counts := &simCounts{}
	start := time.Now()
	dies, err := replayFleet(ctx, t, cfg, traces, counts)
	wallT := time.Since(start)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	diffs := compareFleet(cfg, dies, res)
	r.check(cfg.Dies, len(diffs) == 0, "replay differs from campaign.Run: %v", diffs)

	sum := summarize(t.spans)
	reportLayers(r, sum, counts, float64(wallT-wallU)/1e6)
	r.metric("simcache.hit_ratio", "ratio", 0, 0, "no cache on this workload")
	r.metric("faultmodel.resolve_ms", "ms", sum.layers["faultmodel.resolve"].msPerCall(), sum.layers["faultmodel.resolve"].calls, "self time per Map.Resolve")
	var layerNs int64
	for n, l := range sum.layers {
		if n != setupSpan && n != "campaign.die" && n != "workload.trace_gen" {
			layerNs += l.selfNs
		}
	}
	unattributed := (float64(wallU.Nanoseconds())*workers - float64(layerNs)) / 1e6 / float64(cfg.Dies)
	r.metric("campaign.unattributed_ms_per_die", "ms", unattributed, cfg.Dies, "untraced worker time per die less traced layer time per die")
	noService(r)
	return writeSpans(e, r, t, "fleet-cold")
}

// dieOut is one replayed die's raw outcome, cell-indexed like the campaign.
type dieOut struct {
	base   []uint64
	cycles []uint64
	mpki   []float64
	dis    []int
}

// replayFleet evaluates every die of a normalized, cache-less campaign
// through the calls campaign.Run makes for it: one fault map, resolved at
// every other grid voltage and at nominal, then one simulation per cell.
func replayFleet(ctx context.Context, t *tracer, cfg campaign.Config, traces []*workload.TraceSet, counts *simCounts) ([]dieOut, error) {
	base := gpu.DefaultConfig()
	factories := make([]protection.Factory, len(cfg.Schemes))
	for i, name := range cfg.Schemes {
		f, err := experiments.SchemeFactoryByName(name)
		if err != nil {
			return nil, err
		}
		factories[i] = f
	}
	none, err := experiments.SchemeFactoryByName("none")
	if err != nil {
		return nil, err
	}
	classes := make([]faultmodel.ClassSpec, len(cfg.FaultClasses))
	for i, s := range cfg.FaultClasses {
		if classes[i], err = faultmodel.ParseClassSpec(s); err != nil {
			return nil, err
		}
	}
	refV := cfg.Voltages[0]
	cells := simsPerDie(cfg) - len(cfg.Workloads)
	out := make([]dieOut, cfg.Dies)

	err = forEach(cfg.Dies, func(die int) error {
		op := fmt.Sprintf("die=%d", die)
		root := t.begin("campaign.die", 0, op)
		defer t.end(root)
		rec := dieOut{
			base:   make([]uint64, len(cfg.Workloads)),
			cycles: make([]uint64, cells),
			mpki:   make([]float64, cells),
			dis:    make([]int, cells),
		}
		g := base
		g.FaultSeed = faultmodel.DieSeed(cfg.Seed, die)
		g.RefVoltage = refV

		gRef := g
		gRef.Voltage = refV
		sp := t.begin("faultmodel.build", root, op)
		shared := gpu.BuildSharedFaults(gRef)
		t.end(sp)
		resolve := func(v float64) *gpu.SharedFaults {
			sp := t.begin("faultmodel.resolve", root, op)
			defer t.end(sp)
			return &gpu.SharedFaults{Map: shared.Map, Resolved: shared.Map.Resolve(v)}
		}
		at := make([]*gpu.SharedFaults, len(cfg.Voltages))
		at[0] = shared
		for vi := 1; vi < len(cfg.Voltages); vi++ {
			at[vi] = resolve(cfg.Voltages[vi])
		}
		nominal := resolve(1.0)

		for wi := range cfg.Workloads {
			g.Voltage = 1.0
			g.Classes = faultmodel.ClassSpec{}
			res, err := simulate(ctx, t, root, op, g, none, nominal, traces[wi], counts)
			if err != nil {
				return err
			}
			rec.base[wi] = res.Cycles
			for si := range cfg.Schemes {
				for ki := range classes {
					g.Classes = classes[ki]
					for vi, v := range cfg.Voltages {
						g.Voltage = v
						res, err := simulate(ctx, t, root, op, g, factories[si], at[vi], traces[wi], counts)
						if err != nil {
							return err
						}
						ci := ((wi*len(cfg.Schemes)+si)*len(classes)+ki)*len(cfg.Voltages) + vi
						rec.cycles[ci] = res.Cycles
						rec.mpki[ci] = res.MPKI()
						rec.dis[ci] = res.DisabledLines
					}
				}
			}
		}
		out[die] = rec
		return nil
	})
	return out, err
}

// welford mirrors the campaign's running-mean accumulator, so the replay
// can rebuild its per-cell means bit for bit.
type welford struct {
	n    int64
	mean float64
}

func (w *welford) add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// compareFleet aggregates the replayed dies in die order, as the campaign
// does, and lists every cell whose mean normalized time, mean MPKI, mean
// disabled lines or yield differs from the campaign's.
func compareFleet(cfg campaign.Config, dies []dieOut, res *campaign.Result) []string {
	var diffs []string
	for wi, w := range cfg.Workloads {
		var base welford
		for _, d := range dies {
			base.add(float64(d.base[wi]))
		}
		if got, want := base.mean, res.Baselines[wi].CyclesMean; got != want {
			diffs = append(diffs, mismatch(w+" baseline cycles mean", got, want))
		}
	}
	if len(res.Cells) != simsPerDie(cfg)-len(cfg.Workloads) {
		return append(diffs, mismatch("cell count", len(res.Cells), simsPerDie(cfg)-len(cfg.Workloads)))
	}
	for ci, c := range res.Cells {
		wi := ci / (len(cfg.Schemes) * len(cfg.FaultClasses) * len(cfg.Voltages))
		var norm, mpki, dis welford
		pass := 0
		for _, d := range dies {
			x := float64(d.cycles[ci]) / float64(d.base[wi])
			norm.add(x)
			mpki.add(d.mpki[ci])
			dis.add(float64(d.dis[ci]))
			if x <= cfg.PassThreshold {
				pass++
			}
		}
		cellName := fmt.Sprintf("%s/%s/%.3f", c.Workload, c.Scheme, c.Voltage)
		if norm.mean != c.NormMean || mpki.mean != c.MPKIMean || dis.mean != c.DisabledMean ||
			float64(pass)/float64(len(dies)) != c.Yield {
			diffs = append(diffs, mismatch(cellName+" (norm, mpki, disabled, yield)",
				[]float64{norm.mean, mpki.mean, dis.mean, float64(pass) / float64(len(dies))},
				[]float64{c.NormMean, c.MPKIMean, c.DisabledMean, c.Yield}))
		}
	}
	return diffs
}
