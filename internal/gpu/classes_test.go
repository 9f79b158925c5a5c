package gpu

import (
	"fmt"
	"hash/fnv"
	"testing"

	"killi/internal/faultmodel"
	"killi/internal/killi"
	"killi/internal/protection"
)

func mixedSpec(t *testing.T, s string) faultmodel.ClassSpec {
	t.Helper()
	spec, err := faultmodel.ParseClassSpec(s)
	if err != nil {
		t.Fatalf("ParseClassSpec(%q): %v", s, err)
	}
	return spec
}

// resultDigest hashes a Result's fields and full counter set.
func resultDigest(res Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "cycles=%d instrs=%d acc=%d miss=%d mem=%d disabled=%d\n",
		res.Cycles, res.Instructions, res.L2Accesses, res.L2Misses,
		res.MemAccesses, res.DisabledLines)
	for _, n := range res.Counters.Names() {
		fmt.Fprintf(h, "%s=%d\n", n, res.Counters.Get(n))
	}
	return h.Sum64()
}

// classedConfig is smallConfig with a mixed fault population: intermittent
// and aging faults plus a transient-strike rate high enough that every
// class exercises its path within a short trace.
func classedConfig(t *testing.T, v float64) Config {
	cfg := smallConfig(v)
	cfg.Classes = mixedSpec(t, "mixed:i=0.3@0.5,a=0.1@0.05,t=2e-08")
	return cfg
}

// TestClassedZeroSpecBitIdentity pins the tentpole compatibility contract
// at the system level: a Config whose Classes field is the zero spec runs
// bit-identically — cycles, every counter, disabled lines — to the same
// Config without the field ever having existed (the legacy path).
func TestClassedZeroSpecBitIdentity(t *testing.T) {
	traces := shortTraces("xsbench", 1200)
	legacy := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64}))
	classed := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64}))
	// smallConfig leaves Classes zero; assert that explicitly so the test
	// keeps meaning if defaults ever change.
	if !classed.cfg.Classes.IsZero() {
		t.Fatal("smallConfig no longer has a zero ClassSpec")
	}
	d1 := resultDigest(legacy.Run(traces))
	d2 := resultDigest(classed.Run(traces))
	if d1 != d2 {
		t.Fatalf("zero-spec digest %#x differs from legacy %#x", d2, d1)
	}
}

// TestClassedRunDeterministic extends the determinism gate to a mixed
// fault population: intermittent activation, aging ramp, and the
// transient-strike ticker must all be pure functions of simulated time, so
// two identical systems agree on every counter — over a warm-up and a
// measured kernel, since the fault epoch derives from the monotone engine
// clock and the strike ticker stays armed between Runs.
func TestClassedRunDeterministic(t *testing.T) {
	traces := shortTraces("xsbench", 1200)
	run := func() (warm, meas Result) {
		sys := New(classedConfig(t, 0.625), killiFac(killi.Config{Ratio: 64}))
		return sys.Run(traces), sys.Run(traces)
	}
	w1, m1 := run()
	if m1.TransientStrikes == 0 {
		t.Fatal("strike ticker injected nothing; raise the rate so the test exercises it")
	}
	w2, m2 := run()
	if resultDigest(w1) != resultDigest(w2) || resultDigest(m1) != resultDigest(m2) {
		t.Fatalf("classed runs diverge: warm %#x/%#x measured %#x/%#x",
			resultDigest(w1), resultDigest(w2), resultDigest(m1), resultDigest(m2))
	}
	if m1.TransientStrikes != m2.TransientStrikes {
		t.Fatalf("strikes %d vs %d", m1.TransientStrikes, m2.TransientStrikes)
	}
}

// TestMisclassificationOracle pins the oracle's contract: available exactly
// for DFH schemes, internally consistent, and — under an intermittent
// population — reporting the nonzero misclassification the taxonomy
// exists to measure. The persistent-only control must show no false trust
// of Stable0 lines after the same training.
func TestMisclassificationOracle(t *testing.T) {
	traces := shortTraces("xsbench", 3000)

	if _, ok := New(smallConfig(0.625), fac(protection.NewNone)).Misclassification(); ok {
		t.Fatal("oracle claims availability on a scheme without DFH codes")
	}

	check := func(sys *System) Misclass {
		t.Helper()
		res := sys.Run(traces)
		if !res.HasMisclass {
			t.Fatal("killi run did not report misclassification")
		}
		m := res.Misclass
		if m.Lines != sys.L2Lines() {
			t.Fatalf("oracle inspected %d lines, L2 has %d", m.Lines, sys.L2Lines())
		}
		if m.FalseDisable > m.Disabled {
			t.Fatalf("false disables %d exceed disabled %d", m.FalseDisable, m.Disabled)
		}
		if m.TrueFaulty == 0 {
			t.Fatal("fault map produced no capable-faulty lines at 0.625V")
		}
		return m
	}

	cfg := smallConfig(0.625)
	cfg.Classes = mixedSpec(t, "mixed:i=0.5@0.3")
	intermittent := check(New(cfg, killiFac(killi.Config{Ratio: 64})))
	if intermittent.FalseTrust == 0 && intermittent.FalseDisable == 0 {
		t.Fatal("intermittent population trained with zero misclassification; dormant faults should fool the DFH")
	}
}

// TestScrubReclaimsAndChurns pins System.Scrub: unavailable without a
// scheme scrubber, and under an intermittent population reclaiming
// disabled lines whose faults are dormant at scrub time (the churn the
// EXPERIMENTS coverage-vs-scrub sweep quantifies).
func TestScrubReclaims(t *testing.T) {
	if _, ok := New(smallConfig(0.625), fac(protection.NewNone)).Scrub(); ok {
		t.Fatal("Scrub claims availability on a scheme without a scrubber")
	}
	traces := shortTraces("xsbench", 3000)
	cfg := smallConfig(0.625)
	cfg.Classes = mixedSpec(t, "mixed:i=0.6@0.3")
	sys := New(cfg, killiFac(killi.Config{Ratio: 64}))
	res := sys.Run(traces)
	if res.Misclass.Disabled == 0 {
		t.Skip("no lines disabled; cannot exercise the scrubber")
	}
	n, ok := sys.Scrub()
	if !ok {
		t.Fatal("killi scheme does not expose its scrubber")
	}
	if n == 0 {
		t.Fatal("scrubber reclaimed nothing from an intermittent population")
	}
	if got := sys.Stats().Get("killi.scrub_reclaimed"); got != uint64(n) {
		t.Fatalf("scrub counter %d, Scrub returned %d", got, n)
	}
}
