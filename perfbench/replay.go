package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"killi/internal/gpu"
	"killi/internal/protection"
	"killi/internal/stats"
	"killi/internal/workload"
)

// simCounts accumulates the exact work counters of replayed simulations:
// deterministic functions of the inputs, so a change that claims to touch
// only speed must leave every one of them identical.
type simCounts struct {
	mu         sync.Mutex
	sims       int
	events     uint64
	l2Accesses uint64
	l2Misses   uint64
	l1Reads    uint64
	l1Hits     uint64
	ecc        uint64
	corrected  uint64
	disabled   uint64
	probes     []probe
}

// probe is one construction the allocation probe repeats.
type probe struct {
	g      gpu.Config
	scheme protection.Factory
	faults *gpu.SharedFaults
}

// maxProbes bounds how many constructions the allocation probe repeats.
const maxProbes = 8

func (c *simCounts) add(events uint64, ctr *stats.Counters, p probe) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sims++
	c.events += events
	c.l2Accesses += ctr.Get("l2.accesses")
	c.l2Misses += ctr.Get("l2.read_misses") + ctr.Get("l2.error_misses")
	c.l1Reads += ctr.Get("l1.reads")
	c.l1Hits += ctr.Get("l1.hits")
	c.ecc += ctr.Get("killi.ecc_accesses")
	c.corrected += ctr.Get("protection.corrected_reads")
	c.disabled += ctr.Get("killi.lines_disabled")
	if len(c.probes) < maxProbes {
		c.probes = append(c.probes, p)
	}
}

// allocKiBPerSim repeats the first recorded constructions one at a time on
// an otherwise idle process and returns the mean bytes gpu.NewShared
// allocates, in KiB.
func (c *simCounts) allocKiBPerSim() float64 {
	if len(c.probes) == 0 {
		return 0
	}
	var total uint64
	var before, after runtime.MemStats
	for _, p := range c.probes {
		runtime.ReadMemStats(&before)
		sys := gpu.NewShared(p.g, p.scheme, p.faults)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sys)
		total += after.TotalAlloc - before.TotalAlloc
	}
	return float64(total) / 1024 / float64(len(c.probes))
}

// simulate is experiments.RunShared with spans: one gpu.NewShared, then one
// System.Run per kernel. It returns the measured (last) kernel's result.
func simulate(ctx context.Context, t *tracer, parent int, op string, g gpu.Config, newScheme protection.Factory, faults *gpu.SharedFaults, traces *workload.TraceSet, c *simCounts) (gpu.Result, error) {
	sp := t.begin("gpu.new", parent, op)
	sys := gpu.NewShared(g, newScheme, faults)
	sys.SetShards(1)
	t.end(sp)
	var res gpu.Result
	var events uint64
	for k := 0; k < traces.Kernels(); k++ {
		if err := ctx.Err(); err != nil {
			return gpu.Result{}, err
		}
		sp := t.begin("gpu.run", parent, op)
		res = sys.Run(traces.Kernel(k))
		t.end(sp)
		events += res.Sched.Events
	}
	c.add(events, res.Counters, probe{g, newScheme, faults})
	return res, nil
}

// genTraces builds one TraceSet per named workload, as the program does
// before its first simulation.
func genTraces(t *tracer, parent int, names []string, requestsPerCU int, seeds []uint64) ([]*workload.TraceSet, error) {
	cus := gpu.DefaultConfig().CUs
	out := make([]*workload.TraceSet, len(names))
	for i, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		sp := t.begin("workload.trace_gen", parent, "workload="+name)
		out[i] = w.TraceSet(cus, requestsPerCU, seeds)
		t.end(sp)
	}
	return out, nil
}

// forEach calls fn(i) for i in [0, n) on up to workers goroutines and
// returns the first error.
func forEach(n int, fn func(i int) error) error {
	next := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					errs <- err
					for range next {
					}
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case err := <-errs:
			close(next)
			wg.Wait()
			return err
		}
	}
	close(next)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// reportLayers records the per-layer metrics every workload shares, then
// prints the self time of every span name, including the ones only some
// workloads have.
func reportLayers(r *report, sum traceSummary, c *simCounts, overheadMs float64) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	perSim := func(x uint64) float64 { return ratio(x, uint64(c.sims)) }
	gen, build := sum.layers["workload.trace_gen"], sum.layers["faultmodel.build"]
	newSys, runSys := sum.layers["gpu.new"], sum.layers["gpu.run"]
	r.metric("workload.trace_gen_ms", "ms", gen.msPerCall(), gen.calls, "self time per workload.TraceSet call")
	r.metric("faultmodel.build_ms", "ms", build.msPerCall(), build.calls, "self time per gpu.BuildSharedFaults call")
	r.metric("gpu.new_ms_per_sim", "ms", newSys.msPer(c.sims), c.sims, "gpu.NewShared self time per simulation")
	r.metric("gpu.new_alloc_kb_per_sim", "KiB", c.allocKiBPerSim(), len(c.probes), "bytes gpu.NewShared allocates, serial probe")
	r.metric("gpu.run_ms_per_sim", "ms", runSys.msPer(c.sims), c.sims, "System.Run self time per simulation, all kernels")
	r.metric("engine.ns_per_event", "ns", ratio(uint64(runSys.selfNs), c.events), int(c.events), "System.Run time / Result.Sched.Events")
	r.metric("engine.events_per_sim", "count", perSim(c.events), c.sims, "exact")
	r.metric("cache.l2_accesses_per_sim", "count", perSim(c.l2Accesses), c.sims, "exact")
	r.metric("cache.l2_miss_ratio", "ratio", ratio(c.l2Misses, c.l2Accesses), int(c.l2Accesses), "exact")
	r.metric("cache.l1_hit_ratio", "ratio", ratio(c.l1Hits, c.l1Reads), int(c.l1Reads), "exact")
	r.metric("killi.ecc_accesses_per_sim", "count", perSim(c.ecc), c.sims, "exact")
	r.metric("protection.corrected_reads_per_sim", "count", perSim(c.corrected), c.sims, "exact")
	r.metric("killi.lines_disabled_per_sim", "count", perSim(c.disabled), c.sims, "exact")
	r.metric("trace.coverage", "ratio", sum.coverage, sum.layers["gpu.run"].calls, "share of operation-span time inside layer spans")
	r.metric("trace.overhead_ms", "ms", overheadMs, 1, "traced wall minus untraced wall, same work")
	r.note("fingerprint sims=%d events=%d l2_accesses=%d l2_misses=%d l1_reads=%d l1_hits=%d ecc=%d corrected=%d disabled=%d",
		c.sims, c.events, c.l2Accesses, c.l2Misses, c.l1Reads, c.l1Hits, c.ecc, c.corrected, c.disabled)
	names := make([]string, 0, len(sum.layers))
	for name := range sum.layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := sum.layers[name]
		r.note("span %-24s calls=%-6d self_ms=%-12.3f self_ms_per_call=%.4f", name, l.calls, float64(l.selfNs)/1e6, l.msPerCall())
	}
}

// noService records the service-layer counters as zero on workloads that
// do not run the job server.
func noService(r *report) {
	for _, name := range []string{"simserver.jobs_coalesced", "simserver.jobs_rejected", "simserver.retained_hits"} {
		r.metric(name, "count", 0, 0, "no job server on this workload")
	}
}

// mismatch formats one output difference.
func mismatch(what string, got, want any) string {
	return fmt.Sprintf("%s: got %v, want %v", what, got, want)
}
