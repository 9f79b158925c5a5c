package experiments

import (
	"context"
	"testing"

	"killi/internal/gpu"
	"killi/internal/workload"
)

// TestKernelSeedsGolden pins the kernel-seed derivation against literal
// values. internal/campaign regenerates each workload's TraceSet from
// KernelSeeds and shares it across every die of a fleet, so if this
// derivation drifted — across refactors or Go versions — campaign results
// would silently stop matching RunOne on the same seed.
func TestKernelSeedsGolden(t *testing.T) {
	cases := []struct {
		seed    uint64
		warmups int
		want    []uint64
	}{
		{1, 0, []uint64{0x1}},
		{1, 3, []uint64{0x1, 0xa24baed4963ee406, 0x44975da92c7dc80f, 0xe6e30c7dc2bcac14}},
		{42, 3, []uint64{0x2a, 0xa24baed4963ee42d, 0x44975da92c7dc824, 0xe6e30c7dc2bcac3f}},
		{0xdeadbeef, 3, []uint64{0xdeadbeef, 0xa24baed448935ae8, 0x44975da9f2d076e1, 0xe6e30c7d1c1112fa}},
	}
	for _, c := range cases {
		got := KernelSeeds(c.seed, c.warmups)
		if len(got) != len(c.want) {
			t.Fatalf("KernelSeeds(%d, %d) has %d entries, want %d", c.seed, c.warmups, len(got), len(c.want))
		}
		for k := range got {
			if got[k] != c.want[k] {
				t.Errorf("KernelSeeds(%d, %d)[%d] = %#x, want %#x", c.seed, c.warmups, k, got[k], c.want[k])
			}
		}
	}
}

// TestRunSharedMatchesRunOne pins RunShared's contract: handed the
// equivalent prepared state — the same complete gpu.Config, a fault
// population built by BuildSharedFaults, and traces from KernelSeeds — it
// reproduces RunOne bit-for-bit. This is the equivalence the campaign
// driver's sharing discipline rests on.
func TestRunSharedMatchesRunOne(t *testing.T) {
	g := gpu.DefaultConfig()
	g.FaultSeed = 0x5eed
	g.RefVoltage = 0.575
	cfg := Config{Seed: 21, RequestsPerCU: 300, WarmupKernels: 1, GPU: &g}

	newScheme, err := SchemeFactoryByName("killi-1:64")
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunOne(context.Background(), cfg, "xsbench", newScheme, 0.625)
	if err != nil {
		t.Fatalf("RunOne: %v", err)
	}

	w, err := workload.ByName("xsbench")
	if err != nil {
		t.Fatal(err)
	}
	traces := w.TraceSet(g.CUs, cfg.RequestsPerCU, KernelSeeds(cfg.Seed, cfg.WarmupKernels))
	gShared := g
	gShared.Voltage = 0.625
	faults := gpu.BuildSharedFaults(gShared)
	got, err := RunShared(context.Background(), gShared, newScheme, faults, traces)
	if err != nil {
		t.Fatalf("RunShared: %v", err)
	}

	if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
		got.L2Misses != want.L2Misses || got.L2Accesses != want.L2Accesses ||
		got.MemAccesses != want.MemAccesses || got.DisabledLines != want.DisabledLines {
		t.Errorf("RunShared = %+v\nRunOne    = %+v", got, want)
	}
}
