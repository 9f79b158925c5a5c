package gpu

import (
	"sort"

	"killi/internal/obs"
	"killi/internal/stats"
)

// ECC-cache activity counters interned by name. They are owned (and
// incremented) by the killi package; gpu cannot import killi without a
// cycle, but the stats registry is name-keyed and process-wide, so
// interning the same names here yields the same handles. Schemes without
// an ECC cache simply never touch them and the epoch sampler reads zeros.
var (
	cObsECCAccesses   = stats.Intern("killi.ecc_accesses")
	cObsECCContention = stats.Intern("killi.ecc_contention_evictions")
)

// DefaultEpochCycles is the epoch length SetObserver falls back to: fine
// enough to resolve DFH training (tens of samples over a short kernel),
// coarse enough that sampling cost is invisible next to simulation.
const DefaultEpochCycles = 4096

// eccProber is the optional scheme interface the epoch sampler probes for
// ECC-cache occupancy. killi.Scheme implements it; baselines do not.
type eccProber interface {
	ECCOccupancy() int
	ECCEntries() int
}

// Observer implements protection.Host for a bank: the bank's buffering
// sink when observability is on, nil otherwise (the common case, which
// schemes must keep allocation-free by emitting nothing).
func (b *bankDomain) Observer() obs.Observer {
	if b.sys.observer == nil {
		return nil
	}
	return b.obsBuf
}

// SetObserver attaches an observability sink and an epoch length in cycles
// (0 means DefaultEpochCycles). Call it after New and before the first
// Run; the observer immediately receives a Reset describing the current
// state (every line Initial — exactly what the schemes' construction-time
// DFH reset left behind), and from then on an epoch Sample at every epoch
// boundary plus classification transitions as the schemes report them.
//
// With o == nil (the default) the simulation arms no pacer and emits
// nothing: the hot path is unchanged, allocation-free, and bit-identical —
// pinned by the golden-digest tests. With an observer attached the
// simulated machine still behaves identically (sampling only reads state);
// only the wall-clock cost changes.
//
// Emission ordering is deterministic: each bank buffers its schemes'
// events (translating bank-local line IDs to whole-L2 ones), and the
// buffers are drained sorted by (cycle, bank) at epoch boundaries and Run
// edges — same-cycle per-bank DFH resets coalesce into one whole-cache
// Reset. The intra-bank order is the bank's canonical event order.
func (s *System) SetObserver(o obs.Observer, epochCycles uint64) {
	s.observer = o
	if epochCycles == 0 {
		epochCycles = DefaultEpochCycles
	}
	s.obsEpoch = epochCycles
	s.sampler = nil
	if o == nil {
		s.eng.SetPacer(0, nil)
		for _, b := range s.banks {
			b.obsBuf = nil
		}
		return
	}
	for _, b := range s.banks {
		b.obsBuf = &bankObserver{b: b}
	}
	o.OnReset(obs.Reset{
		Cycle:   s.eng.Now(),
		Voltage: s.cfg.Voltage,
		Lines:   s.L2Lines(),
	})
}

// bufferedObsEvent is one buffered scheme emission awaiting the
// deterministic cross-bank flush. kind 0 is a Reset, 1 a Transition.
type bufferedObsEvent struct {
	cycle uint64
	bank  int
	kind  uint8
	reset obs.Reset
	trans obs.Transition
}

// bankObserver is the obs.Observer a bank hands its scheme: it only
// buffers, so emission cost never perturbs cross-bank event timing and the
// flush can impose a deterministic cross-bank order.
type bankObserver struct {
	b      *bankDomain
	events []bufferedObsEvent
}

// OnReset buffers a scheme's DFH reset. The scheme reports its own (bank)
// line count; same-cycle resets across banks are summed into one
// whole-cache Reset at flush.
func (o *bankObserver) OnReset(r obs.Reset) {
	o.events = append(o.events, bufferedObsEvent{cycle: r.Cycle, bank: o.b.bank, kind: 0, reset: r})
}

// OnTransition buffers a classification transition, translating the
// scheme's bank-local line ID into the whole-L2 ID the export format uses.
func (o *bankObserver) OnTransition(t obs.Transition) {
	t.Line = o.b.globalLineID(t.Line)
	o.events = append(o.events, bufferedObsEvent{cycle: t.Cycle, bank: o.b.bank, kind: 1, trans: t})
}

// OnEpoch is never called by schemes — epoch samples are assembled by the
// System's pacer hook.
func (o *bankObserver) OnEpoch(obs.Sample) {}

// obsSampler holds the cumulative counter values at the last emitted
// sample, so each Sample carries interval deltas.
type obsSampler struct {
	every     uint64
	lastCycle uint64

	lastAcc, lastReadMiss, lastErrMiss uint64
	lastStall, lastInstr               uint64
	lastECCAcc, lastECCEvict           uint64
}

// startObserver lazily arms the engine pacer on the first Run after
// SetObserver and flushes any emissions buffered between Runs (voltage
// transitions reset DFH state outside the event loop).
func (s *System) startObserver() {
	s.flushBuffered()
	if s.sampler != nil {
		return
	}
	s.sampler = &obsSampler{every: s.obsEpoch, lastCycle: s.eng.Now()}
	s.eng.SetPacer(s.obsEpoch, s.onBoundary)
}

// onBoundary is the engine pacer hook: it runs strictly between event
// rounds (every domain parked), so it may read all domain state. It fires
// once per epoch boundary that precedes a remaining event.
func (s *System) onBoundary(boundary uint64) {
	s.flushBuffered()
	s.sample(boundary)
}

// flushObserver emits buffered events and the final partial epoch of a
// Run, if any cycles elapsed since the last boundary sample.
func (s *System) flushObserver() {
	s.flushBuffered()
	if s.sampler != nil && s.eng.Now() > s.sampler.lastCycle {
		s.sample(s.eng.Now())
	}
}

// flushBuffered drains every bank's buffered emissions to the observer in
// deterministic order: sorted by cycle, ties broken by bank index, and
// within a bank by its canonical event order (a stable sort over the
// bank-major collection preserves both). Consecutive same-cycle Resets
// coalesce into one whole-cache Reset with summed line counts — the per-
// bank schemes reset together, and the export format describes the cache,
// not the banking.
func (s *System) flushBuffered() {
	if s.observer == nil {
		return
	}
	all := s.obsScratch[:0]
	for _, b := range s.banks {
		if b.obsBuf != nil {
			all = append(all, b.obsBuf.events...)
			b.obsBuf.events = b.obsBuf.events[:0]
		}
	}
	if len(all) == 0 {
		s.obsScratch = all
		return
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].cycle < all[j].cycle })
	for i := 0; i < len(all); {
		ev := all[i]
		if ev.kind != 0 {
			s.observer.OnTransition(ev.trans)
			i++
			continue
		}
		r := ev.reset
		i++
		for i < len(all) && all[i].kind == 0 && all[i].cycle == r.Cycle {
			r.Lines += all[i].reset.Lines
			i++
		}
		s.observer.OnReset(r)
	}
	s.obsScratch = all[:0]
}

// sample emits one obs.Sample for the epoch closing at the given cycle,
// with deltas since the previous sample. Counter state is merged across
// domains first, in fixed order; samples run between events (or with the
// engine idle), so the scan sees every domain at rest.
func (s *System) sample(cycle uint64) {
	t := s.sampler
	s.mergeCounters()
	acc := s.ctr.GetC(cL2Accesses)
	readMiss := s.ctr.GetC(cReadMisses)
	errMiss := s.ctr.GetC(cErrorMisses)
	stall := s.ctr.GetC(cTransitionStall)
	eccAcc := s.ctr.GetC(cObsECCAccesses)
	eccEvict := s.ctr.GetC(cObsECCContention)
	var instrs uint64
	for _, c := range s.cus {
		instrs += c.instrsTotal
	}
	smp := obs.Sample{
		Epoch:                  obs.EpochIndex(cycle, t.every),
		Cycle:                  cycle,
		L2Accesses:             acc - t.lastAcc,
		L2Misses:               (readMiss + errMiss) - (t.lastReadMiss + t.lastErrMiss),
		ErrorMisses:            errMiss - t.lastErrMiss,
		Instructions:           instrs - t.lastInstr,
		StallCycles:            stall - t.lastStall,
		DisabledLines:          s.DisabledLines(),
		ECCAccesses:            eccAcc - t.lastECCAcc,
		ECCContentionEvictions: eccEvict - t.lastECCEvict,
	}
	if occ, entries, ok := s.ECCStats(); ok {
		smp.ECCOccupancy = occ
		smp.ECCEntries = entries
	}
	t.lastCycle = cycle
	t.lastAcc, t.lastReadMiss, t.lastErrMiss = acc, readMiss, errMiss
	t.lastStall, t.lastInstr = stall, instrs
	t.lastECCAcc, t.lastECCEvict = eccAcc, eccEvict
	s.observer.OnEpoch(smp)
}
