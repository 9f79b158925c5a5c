// The race detector drops a share of sync.Pool puts on purpose and
// instruments allocations, so allocation counts mean nothing under it.

//go:build !race

package campaign

import (
	"context"
	"runtime"
	"testing"
)

// fleetColdConfig is the cold fleet shape the benchmark's fleet-cold
// workload runs: xsbench under Killi 1:64 and MS-ECC at two voltages,
// 1,200 requests per CU, no warmup and no cache.
func fleetColdConfig(dies, parallelism int) Config {
	return Config{
		Workloads:     []string{"xsbench"},
		Schemes:       []string{"killi-1:64", "msecc"},
		Voltages:      []float64{0.600, 0.625},
		Dies:          dies,
		Seed:          1,
		RequestsPerCU: 1200,
		Parallelism:   parallelism,
	}
}

// maxAllocPerDie is the allocation ceiling of one cold fleet die. A die is
// five simulations over one fault map; with every System after the first
// reset in place rather than rebuilt, a die allocates about 11 MiB, most of
// it the schemes' own per-line state. Rebuilding a System for every cell
// costs about 38 MiB per die.
const maxAllocPerDie = 16 << 20

// TestFleetColdAllocationCeiling pins System reuse across a campaign's
// cells: a serial four-die cold campaign must allocate at most
// maxAllocPerDie per die, counted as the process's TotalAlloc delta.
func TestFleetColdAllocationCeiling(t *testing.T) {
	// One P: sync.Pool keeps a released System in the releasing P's
	// private slot, which a goroutine that migrated to another P cannot
	// see, so on several Ps the count would depend on scheduling.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const dies = 4
	cfg := fleetColdConfig(dies, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(context.Background(), cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dies != dies {
		t.Fatalf("ran %d dies, want %d", res.Dies, dies)
	}
	perDie := (after.TotalAlloc - before.TotalAlloc) / dies
	t.Logf("%.1f MiB allocated per die", float64(perDie)/(1<<20))
	if perDie > maxAllocPerDie {
		t.Errorf("cold campaign allocated %.1f MiB per die, ceiling %.1f MiB",
			float64(perDie)/(1<<20), float64(maxAllocPerDie)/(1<<20))
	}
}

// BenchmarkFleetCold runs the serial eight-die cold fleet campaign; bytes
// per op are one campaign's allocation.
func BenchmarkFleetCold(b *testing.B) {
	cfg := fleetColdConfig(8, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
