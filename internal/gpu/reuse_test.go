package gpu

import (
	"bytes"
	"reflect"
	"testing"

	"killi/internal/faultmodel"
	"killi/internal/killi"
	"killi/internal/obs"
	"killi/internal/protection"
	"killi/internal/workload"
)

// reuseSchemes are the factories the reuse oracle draws from: every scheme
// family, so each one's Attach and Reset run against a recycled host.
var reuseSchemes = []protection.Factory{
	fac(protection.NewNone),
	fac(protection.NewSECDEDPerLine),
	fac(protection.NewDECTEDPerLine),
	fac(protection.NewFLAIR),
	fac(protection.NewMSECC),
	killiFac(killi.Config{Ratio: 64}),
	killiFac(killi.Config{Ratio: 16}),
	killiFac(killi.Config{Ratio: 32, UseDECTED: true}),
	killiFac(killi.Config{Ratio: 64, OLSCStrength: 2}),
}

var reuseVoltages = []float64{0.575, 0.6, 0.625, 0.7, 1.0}

// reuseCase is one simulation the oracle runs: a configuration, a scheme,
// optional between-kernel operations and an optional observer.
type reuseCase struct {
	cfg     Config
	scheme  protection.Factory
	observe bool // attach a Collector before the first kernel
	aging   int  // InjectAgingFaults count before the second kernel
	scrub   bool // Scrub between the kernels
}

// reuseCaseOf decodes a case from fuzz-style selectors. flags bit 0 arms
// a mixed fault-class spec with transient strikes, bit 1 soft errors on
// reads and tag lookups, bit 2 an observer, bit 3 aging faults, bit 4 a
// scrub between kernels.
func reuseCaseOf(t testing.TB, scheme, volt, flags uint8, seed uint64) reuseCase {
	cfg := smallConfig(reuseVoltages[int(volt)%len(reuseVoltages)])
	cfg.FaultSeed = seed
	if flags&1 != 0 {
		spec, err := faultmodel.ParseClassSpec("mixed:i=0.3@0.5,a=0.1@0.05,t=2e-08")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Classes = spec
		cfg.ClassEpochCycles = 1024
	}
	if flags&2 != 0 {
		cfg.SoftErrorPerRead = 1e-2
		cfg.TagSoftErrorPerLookup = 1e-2
	}
	c := reuseCase{
		cfg:     cfg,
		scheme:  reuseSchemes[int(scheme)%len(reuseSchemes)],
		observe: flags&4 != 0,
		scrub:   flags&16 != 0,
	}
	if flags&8 != 0 {
		c.aging = 40
	}
	return c
}

// reuseTraces is two short kernels whose stores hit resident and
// in-flight lines, so leftover line versions would change fetched data.
func reuseTraces() [2][][]workload.Request {
	var out [2][][]workload.Request
	for k, name := range []string{"lulesh", "fft"} {
		w, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		out[k] = w.Traces(8, 500, 42)
	}
	return out
}

// reuseOutcome is everything a case produces: both kernels' Results with
// their counters split out as digests (counter storage length is not
// semantic), and the observer's export.
type reuseOutcome struct {
	Results  [2]Result
	Counters [2]uint64
	Observed string
}

// drive runs a case on sys: the first kernels of reuseTraces with the
// case's between-kernel operations, collecting the outcome.
func (c reuseCase) drive(t testing.TB, sys *System, kernels int) reuseOutcome {
	t.Helper()
	var col *obs.Collector
	if c.observe {
		col = obs.NewCollector()
		sys.SetObserver(col, 2048)
	}
	var out reuseOutcome
	traces := reuseTraces()
	for k, tr := range traces[:kernels] {
		if k == 1 {
			if c.scrub {
				sys.Scrub()
			}
			if c.aging > 0 {
				sys.InjectAgingFaults(c.cfg.FaultSeed^0xa9e, c.aging)
			}
		}
		res := sys.Run(tr)
		out.Counters[k] = resultDigest(res)
		res.Counters = nil
		out.Results[k] = res
	}
	if col != nil {
		var buf bytes.Buffer
		if err := col.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		out.Observed = buf.String()
	}
	return out
}

// dirty builds a System for a case and drives it, leaving behind every
// kind of state reset must clear. It runs one kernel only, so the target's
// two kernels run past the dirty clock and would meet any ticker boundary
// reset failed to disarm.
func (c reuseCase) dirty(t testing.TB) *System {
	t.Helper()
	sys := NewShared(c.cfg, c.scheme, BuildSharedFaults(c.cfg))
	c.drive(t, sys, 1)
	if c.scrub {
		sys.Scrub()
	}
	if c.aging > 0 {
		sys.InjectAgingFaults(c.cfg.FaultSeed^0xa9e, c.aging)
	}
	// A voltage transition with a stall leaves stallUntil and a moved
	// operating point behind as well.
	sys.SetVoltage(c.cfg.Voltage+0.025, 5000)
	return sys
}

// checkReuse is the oracle: a System that ran the dirty case, reset for
// the target case, must produce exactly what a freshly allocated System
// produces for the target case. It calls allocate and reset directly —
// NewShared's miss and hit paths — rather than going through the pool,
// whose hits depend on scheduling; TestReleaseRecycles covers the pool.
func checkReuse(t testing.TB, dirty, target reuseCase) {
	t.Helper()
	faults := BuildSharedFaults(target.cfg)
	fresh := allocate(target.cfg, target.cfg.L2Bytes/target.cfg.LineBytes/target.cfg.L2Ways,
		target.cfg.L2Banks, faults)
	fresh.reset(target.cfg, target.scheme, faults)
	want := target.drive(t, fresh, 2)

	sys := dirty.dirty(t)
	sys.reset(target.cfg, target.scheme, faults)
	got := target.drive(t, sys, 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused System differs from a fresh one:\n got %+v\nwant %+v", got, want)
	}
}

// TestReusedSystemMatchesFresh resets Systems dirtied by a different
// scheme, voltage, fault-class spec, soft errors, aging faults, transient
// strikes, an observer and a scrub, and demands that each reproduces a
// fresh System's results in every field, counters, scheduling ledger,
// misclassification tally and observer export included.
func TestReusedSystemMatchesFresh(t *testing.T) {
	cases := []struct {
		name          string
		dirty, target reuseCase
	}{
		{"msecc-everything-then-plain-killi",
			reuseCaseOf(t, 4, 0, 0x1f, 3), reuseCaseOf(t, 5, 2, 0, 1)},
		{"killi-everything-then-killi-dected-everything",
			reuseCaseOf(t, 6, 1, 0x1f, 9), reuseCaseOf(t, 7, 1, 0x1f, 9)},
		{"killi-everything-then-olsc-soft-errors",
			reuseCaseOf(t, 5, 0, 0x1f, 5), reuseCaseOf(t, 8, 0, 0x02, 5)},
		{"flair-observed-then-nominal-baseline",
			reuseCaseOf(t, 3, 3, 0x0e, 2), reuseCaseOf(t, 0, 4, 0, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkReuse(t, tc.dirty, tc.target) })
	}
}

// TestReleaseRecycles pins NewShared's use of released Systems: a
// released System comes back for a configuration of the same geometry
// (whatever its voltage, seed or scheme), and a different geometry gets a
// freshly allocated one.
func TestReleaseRecycles(t *testing.T) {
	cfg := smallConfig(0.625)
	sys := New(cfg, killiFac(killi.Config{Ratio: 64}))
	sys.Run(reuseTraces()[0])
	next := cfg
	next.Voltage, next.FaultSeed = 0.6, 7
	// sync.Pool may drop a put at random (it does under the race
	// detector), so allow a few round trips.
	reused := false
	for i := 0; i < 20 && !reused; i++ {
		sys.Release()
		got := New(next, fac(protection.NewMSECC))
		reused = got == sys
		sys = got
	}
	if !reused {
		t.Fatal("NewShared never returned the released System")
	}

	sys.Release()
	other := smallConfig(0.625)
	other.L2Bytes = 256 << 10
	got := New(other, fac(protection.NewNone))
	if got == sys {
		t.Fatal("a System of another geometry was reused")
	}
	if got.L2Lines() != other.L2Bytes/other.LineBytes {
		t.Fatalf("geometry-mismatched build has %d L2 lines, want %d", got.L2Lines(), other.L2Bytes/other.LineBytes)
	}
}

// TestReleaseTwicePanics pins the guard against a System entering the
// pool twice, which would hand it to two owners.
func TestReleaseTwicePanics(t *testing.T) {
	sys := New(smallConfig(1.0), fac(protection.NewNone))
	sys.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	sys.Release()
}

// TestResultCountersOwned pins that a Result's counters are its own: a
// later Run on the same System leaves them unchanged.
func TestResultCountersOwned(t *testing.T) {
	sys := New(smallConfig(0.625), killiFac(killi.Config{Ratio: 64}))
	tr := reuseTraces()
	first := sys.Run(tr[0])
	before := resultDigest(first)
	sys.Run(tr[1])
	if resultDigest(first) != before {
		t.Fatal("a later Run changed an earlier Result's counters")
	}
}

// FuzzSystemReuseMatchesFresh explores dirty/target pairs for the reuse
// oracle: schemes, voltages, fault seeds and the flag set of reuseCaseOf
// are all drawn from the input.
func FuzzSystemReuseMatchesFresh(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(0x1f), uint64(3), uint8(5), uint8(2), uint8(0), uint64(1))
	f.Add(uint8(6), uint8(1), uint8(0x09), uint64(5), uint8(8), uint8(0), uint8(0x16), uint64(5))
	f.Fuzz(func(t *testing.T, ds, dv, df uint8, dseed uint64, ts, tv, tf uint8, tseed uint64) {
		checkReuse(t, reuseCaseOf(t, ds, dv, df, dseed), reuseCaseOf(t, ts, tv, tf, tseed))
	})
}
