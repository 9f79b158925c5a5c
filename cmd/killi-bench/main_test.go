package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// goodPoint is a baseline/current pair that passes every gate.
func goodPoint() point {
	return point{
		NsPerEvent:                100,
		AllocsPerEvent:            0,
		SingleRunSeconds:          0.03,
		SweepSeconds:              1.1,
		SweepColdSeconds:          1.0,
		SweepWarmSeconds:          0.004,
		ServerColdRPS:             25,
		ServerHotRPS:              4500,
		CampaignDiesPerSecond:     11,
		CampaignWarmDiesPerSecond: 400,
		SingleRunCycles:           65000,
		SingleRunSerialTimestamps: 24000,
	}
}

func assertViolation(t *testing.T, bad []string, substr string) {
	t.Helper()
	for _, b := range bad {
		if strings.Contains(b, substr) {
			return
		}
	}
	t.Errorf("no violation mentioning %q in %v", substr, bad)
}

func TestEnforceCleanPass(t *testing.T) {
	if bad := enforce(goodPoint(), goodPoint()); len(bad) != 0 {
		t.Fatalf("identical measurement flagged: %v", bad)
	}
}

func TestEnforceThroughputRegressions(t *testing.T) {
	base := goodPoint()
	cur := base
	cur.NsPerEvent = base.NsPerEvent * 1.2
	cur.SweepSeconds = base.SweepSeconds * 1.2
	cur.SweepWarmSeconds = base.SweepWarmSeconds * 2.5
	bad := enforce(base, cur)
	assertViolation(t, bad, "ns_per_event")
	assertViolation(t, bad, "sweep_seconds")
	assertViolation(t, bad, "sweep_warm_seconds")
	if len(bad) != 3 {
		t.Fatalf("want exactly 3 violations, got %v", bad)
	}
	// Within budget: 10% over is fine.
	cur = base
	cur.SweepSeconds = base.SweepSeconds * 1.1
	if bad := enforce(base, cur); len(bad) != 0 {
		t.Fatalf("10%% sweep drift flagged: %v", bad)
	}
	// The fsync-bound cold sweep gets 1.5x of headroom, not 15%: a 30%
	// swing is host I/O noise, a 60% swing is a cache-write regression.
	cur = base
	cur.SweepColdSeconds = base.SweepColdSeconds * 1.3
	if bad := enforce(base, cur); len(bad) != 0 {
		t.Fatalf("30%% cold-sweep drift flagged: %v", bad)
	}
	cur.SweepColdSeconds = base.SweepColdSeconds * 1.6
	assertViolation(t, enforce(base, cur), "sweep_cold_seconds")
}

// TestEnforceThroughputFloors pins the downward gates: campaign dies/s
// fails below base/1.5, warm-request RPS only below base/2 (single-core
// HTTP throughput is noisy, a halving is a cache-bypass shape), and
// improvement in either direction never fires.
func TestEnforceThroughputFloors(t *testing.T) {
	base := goodPoint()

	cur := base
	cur.CampaignDiesPerSecond = base.CampaignDiesPerSecond / 1.7
	assertViolation(t, enforce(base, cur), "campaign_dies_per_second")

	cur = base
	cur.ServerHotRPS = base.ServerHotRPS / 2.5
	assertViolation(t, enforce(base, cur), "server_hot_rps")

	// Inside the floors: 40% slower campaigns and 40% slower warm requests
	// are host noise, not regressions; faster is always fine.
	cur = base
	cur.CampaignDiesPerSecond = base.CampaignDiesPerSecond / 1.4
	cur.ServerHotRPS = base.ServerHotRPS / 1.4
	if bad := enforce(base, cur); len(bad) != 0 {
		t.Fatalf("in-floor throughput drift flagged: %v", bad)
	}
	cur = base
	cur.CampaignDiesPerSecond = base.CampaignDiesPerSecond * 3
	cur.ServerHotRPS = base.ServerHotRPS * 3
	if bad := enforce(base, cur); len(bad) != 0 {
		t.Fatalf("throughput improvement flagged: %v", bad)
	}
}

// TestEnforceWarmCampaignGate pins the relative warm-campaign floor: the
// gate compares against the same run's cold rate, not the baseline, so a
// uniformly slow host passes while a cache that stopped answering fails.
func TestEnforceWarmCampaignGate(t *testing.T) {
	base := goodPoint()

	cur := base
	cur.CampaignWarmDiesPerSecond = cur.CampaignDiesPerSecond * 8
	assertViolation(t, enforce(base, cur), "campaign_warm_dies_per_second")

	// Exactly at the floor passes; a uniformly slow host (both rates down
	// 3x, ratio preserved) is noise, not a regression.
	cur = base
	cur.CampaignWarmDiesPerSecond = cur.CampaignDiesPerSecond * 10
	if bad := enforce(base, cur); len(bad) != 0 {
		t.Fatalf("10x warm campaign flagged: %v", bad)
	}
	cur = base
	cur.CampaignDiesPerSecond = base.CampaignDiesPerSecond / 1.4
	cur.CampaignWarmDiesPerSecond = base.CampaignWarmDiesPerSecond / 1.4
	if bad := enforce(base, cur); len(bad) != 0 {
		t.Fatalf("uniformly slow host flagged: %v", bad)
	}
}

func TestEnforceAllocGate(t *testing.T) {
	cur := goodPoint()
	cur.AllocsPerEvent = 0.01
	assertViolation(t, enforce(goodPoint(), cur), "allocs_per_event")
}

// TestEnforceSchedulingGates pins the deterministic counters: cycles and
// serial timestamps gate exactly, in both directions (any difference is a
// semantic change).
func TestEnforceSchedulingGates(t *testing.T) {
	base := goodPoint()

	cur := base
	cur.SingleRunCycles++
	assertViolation(t, enforce(base, cur), "single_run_cycles")

	cur = base
	cur.SingleRunCycles--
	assertViolation(t, enforce(base, cur), "single_run_cycles")

	cur = base
	cur.SingleRunSerialTimestamps--
	assertViolation(t, enforce(base, cur), "single_run_serial_timestamps")
}

// TestEnforceZeroBaselines pins that a zero-valued gated baseline field is
// itself a violation on every gated metric, deterministic ones included.
func TestEnforceZeroBaselines(t *testing.T) {
	bad := enforce(point{}, goodPoint())
	for _, name := range []string{
		"ns_per_event", "single_run_seconds", "sweep_seconds",
		"sweep_cold_seconds", "sweep_warm_seconds",
		"campaign_dies_per_second", "server_hot_rps",
		"single_run_cycles", "single_run_serial_timestamps",
	} {
		assertViolation(t, bad, name)
	}
}

// TestShardsFlagUnknown pins that -shards is not a flag (simulations run on
// one serial engine): it exits 2 at flag parsing, before any measurement.
func TestShardsFlagUnknown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "killi-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-shards", "2")
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
		!strings.Contains(stderr.String(), "flag provided but not defined: -shards") {
		t.Fatalf("-shards 2: err %v, want exit code 2 for an unknown flag; stderr:\n%s", err, stderr.String())
	}
}
