package gpu_test

import (
	"context"
	"testing"

	"killi/internal/engine"
	"killi/internal/experiments"
)

// TestSchedulingLedgerPinned pins the engine's scheduling ledger exactly on
// two full simulations. The tracked run (xsbench × killi-1:64, 2500
// requests/CU, 0.625×VDD, the run cmd/killi-bench times) carries the same
// cycle and timestamp counts BENCH_core.json gates, and no event of it is
// scheduled past the timing wheel's horizon. The sweep's xsbench × msecc
// cell (4000 requests/CU after one warmup kernel) queues DRAM completions
// deep enough that some land past the horizon and take the overflow heap.
func TestSchedulingLedgerPinned(t *testing.T) {
	for _, tc := range []struct {
		scheme           string
		requests, warmup int
		cycles           uint64
		sched            engine.RunStats
	}{
		{"killi-1:64", 2500, 0, 64471, engine.RunStats{Events: 75073, Timestamps: 22777, Overflow: 0}},
		{"msecc", 4000, 1, 79408, engine.RunStats{Events: 114103, Timestamps: 42743, Overflow: 140}},
	} {
		cfg := experiments.Config{Voltage: 0.625, RequestsPerCU: tc.requests, WarmupKernels: tc.warmup, Seed: 1}
		res, err := experiments.RunOneNamed(context.Background(), cfg, "xsbench", tc.scheme, cfg.Voltage)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sched != tc.sched || res.Cycles != tc.cycles {
			t.Errorf("xsbench × %s: %d cycles, ledger %+v; want %d cycles, %+v",
				tc.scheme, res.Cycles, res.Sched, tc.cycles, tc.sched)
		}
	}
}
