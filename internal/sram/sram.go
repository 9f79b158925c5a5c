// Package sram models a bit-level SRAM data array operating under low
// voltage.
//
// The array stores true (intended) line payloads and applies its sampled
// stuck-at fault population when a line is read, so:
//
//   - masked faults arise naturally: a stuck-at-v cell holding data bit v
//     corrupts nothing until the data changes (§5.6.2 of the paper);
//   - faults are persistent by default: the same cells corrupt every access
//     at a given voltage (§3);
//   - raising the voltage deactivates the higher-severity faults
//     (monotonicity), which is how Killi reclaims disabled lines.
//
// SetFaultClasses layers the faultmodel taxonomy on top: with a non-zero
// ClassSpec, each sampled fault's class (persistent / intermittent / aging)
// decides whether it manifests on a given access, evaluated from a
// deterministic per-(seed, line, cell, epoch) hash against the array's
// current fault epoch (SetFaultEpoch, driven by the simulator clock). The
// zero-spec path is byte-identical to the legacy persistent model.
//
// Soft errors (transient bit flips) are injected by flipping the stored
// payload itself; unlike LV faults they disappear on the next write.
// Transient fault-class strikes use the same mechanism.
//
// Per the paper's dual-rail design (§2.4), the tag array runs at nominal
// voltage, so only the data array modeled here experiences LV faults.
package sram

import (
	"fmt"

	"killi/internal/bitvec"
	"killi/internal/faultmodel"
)

// Array is a low-voltage SRAM data array of fixed-size 64-byte lines.
// Construct with New or NewResolved.
type Array struct {
	lines   []bitvec.Line
	faults  *faultmodel.Map
	voltage float64
	// active is the voltage-pre-resolved view of the fault map: per-line
	// active fault sets in one packed buffer, possibly shared read-only
	// with other Arrays built over the same map (NewResolved). Rebuilt on
	// SetVoltage; never mutated.
	active *faultmodel.Resolved
	// injected holds lifetime (aging) faults added after construction;
	// they are active at every voltage and survive voltage changes. Kept
	// apart from the (shared) resolved view.
	injected [][]faultmodel.Fault
	// mapWays/mapStride/mapOffset describe a strided view into the fault
	// map for arrays that hold every mapStride-th group of mapWays lines
	// (an address-interleaved cache bank over a whole-cache fault map).
	// Local line i looks up global map line
	// ((i/ways)*stride + offset)*ways + i%ways; payloads stay local.
	// NewResolved sets the identity view (stride 1, offset 0).
	mapWays   int
	mapStride int
	mapOffset int
	// classed fault evaluation (SetFaultClasses): with classed set, Read
	// consults each sampled fault's class and, for intermittent/aging
	// faults, a deterministic per-(seed, line, cell, epoch) activation
	// hash against faultEpoch (SetFaultEpoch). classed is false for the
	// legacy pure-persistent model, keeping that path branch-predictable.
	classed    bool
	spec       faultmodel.ClassSpec
	classSeed  uint64
	faultEpoch uint64
}

// mapIndex translates a local line index to its fault-map line.
func (a *Array) mapIndex(i int) int {
	if a.mapStride == 1 && a.mapOffset == 0 {
		return i
	}
	return ((i/a.mapWays)*a.mapStride+a.mapOffset)*a.mapWays + i%a.mapWays
}

// New returns an array of n lines using the given persistent fault map,
// initially operating at voltage vNorm. The fault map must cover at least n
// lines of 512 bits.
func New(n int, faults *faultmodel.Map, vNorm float64) *Array {
	return NewResolved(n, faults, faults.Resolve(vNorm))
}

// NewResolved returns an array of n lines over a fault map whose active
// set was already resolved at the operating voltage — the resolved view is
// shared read-only, so building many arrays over one map (a scheme sweep)
// resolves the map once instead of once per array. The view must come from
// the same map.
func NewResolved(n int, faults *faultmodel.Map, resolved *faultmodel.Resolved) *Array {
	if faults.Lines() < n {
		panic(fmt.Sprintf("sram: fault map covers %d lines, need %d", faults.Lines(), n))
	}
	if faults.BitsPerLine() != bitvec.LineBits {
		panic("sram: fault map is not 512 bits per line")
	}
	if resolved.Lines() < n {
		panic(fmt.Sprintf("sram: resolved view covers %d lines, need %d", resolved.Lines(), n))
	}
	return &Array{
		lines:     make([]bitvec.Line, n),
		faults:    faults,
		voltage:   resolved.Voltage(),
		active:    resolved,
		mapWays:   1,
		mapStride: 1,
	}
}

// NewResolvedView returns an n-line array that maps its lines onto a
// strided slice of a larger shared fault map: local lines are consumed in
// groups of ways, and group g (a cache set) corresponds to map group
// g*stride + offset. This is how an address-interleaved L2 bank — which
// owns every stride-th set of the cache — keeps the per-line fault
// population of the whole-cache map without copying or re-deriving it, so
// a banked simulation sees bit-identical faults to a monolithic one.
func NewResolvedView(n int, faults *faultmodel.Map, resolved *faultmodel.Resolved, ways, stride, offset int) *Array {
	if ways < 1 || stride < 1 || offset < 0 || offset >= stride {
		panic(fmt.Sprintf("sram: bad view geometry ways=%d stride=%d offset=%d", ways, stride, offset))
	}
	if n%ways != 0 {
		panic(fmt.Sprintf("sram: %d lines not a multiple of %d ways", n, ways))
	}
	need := ((n/ways-1)*stride + offset + 1) * ways
	if faults.Lines() < need {
		panic(fmt.Sprintf("sram: fault map covers %d lines, view needs %d", faults.Lines(), need))
	}
	if faults.BitsPerLine() != bitvec.LineBits {
		panic("sram: fault map is not 512 bits per line")
	}
	if resolved.Lines() < need {
		panic(fmt.Sprintf("sram: resolved view covers %d lines, view needs %d", resolved.Lines(), need))
	}
	return &Array{
		lines:     make([]bitvec.Line, n),
		faults:    faults,
		voltage:   resolved.Voltage(),
		active:    resolved,
		mapWays:   ways,
		mapStride: stride,
		mapOffset: offset,
	}
}

// SetFaultClasses attaches a fault-class spec to the array: sampled faults
// are labelled by faultmodel.ClassOf over (seed, map line, cell) and
// non-persistent ones manifest per fault epoch via the deterministic
// activation hash. A zero spec restores the legacy persistent model.
// Classing is keyed by global fault-map line indices, so strided bank
// views over one shared map agree with a monolithic array bit-for-bit.
func (a *Array) SetFaultClasses(spec faultmodel.ClassSpec, classSeed uint64) {
	a.spec = spec
	a.classSeed = classSeed
	a.classed = !spec.IsZero()
}

// SetFaultEpoch sets the fault epoch used to evaluate intermittent and
// aging faults. The simulator advances it from its clock (cycle / epoch
// length) before touching the array, so activation is a pure function of
// simulated time — never of host scheduling.
func (a *Array) SetFaultEpoch(epoch uint64) { a.faultEpoch = epoch }

// faultActive reports whether a sampled fault manifests on an access right
// now, given its class and the current fault epoch.
func (a *Array) faultActive(mapLine, bit int) bool {
	switch faultmodel.ClassOf(a.classSeed, mapLine, bit, a.spec) {
	case faultmodel.Intermittent:
		return faultmodel.ActiveInEpoch(a.classSeed, mapLine, bit, a.faultEpoch, a.spec.IntermittentProb)
	case faultmodel.Aging:
		return faultmodel.AgingActiveInEpoch(a.classSeed, mapLine, bit, a.faultEpoch, a.spec)
	default:
		return true
	}
}

// Lines returns the number of lines in the array.
func (a *Array) Lines() int { return len(a.lines) }

// Voltage returns the current normalized operating voltage.
func (a *Array) Voltage() float64 { return a.voltage }

// SetVoltage changes the operating voltage, recomputing which persistent
// faults are active. Stored data is preserved (the true payloads; whether
// they read back correctly depends on the new fault set). The array's
// previous resolved view is replaced, never mutated, so views shared with
// other arrays are unaffected.
func (a *Array) SetVoltage(vNorm float64) {
	a.voltage = vNorm
	a.active = a.faults.Resolve(vNorm)
}

// Write stores data into line i. The true payload is retained; corruption
// is applied on read, which keeps fault application idempotent and lets
// masked faults unmask when the data changes.
func (a *Array) Write(i int, data bitvec.Line) {
	a.lines[i] = data
}

// Read returns the line as the failing cells present it: every active
// stuck-at fault overrides its bit — filtered, under a fault-class spec,
// to the faults manifesting in the current fault epoch. Lifetime
// (injected) faults apply after the voltage-dependent population, matching
// their injection order.
func (a *Array) Read(i int) bitvec.Line {
	out := a.lines[i]
	mi := a.mapIndex(i)
	if !a.classed {
		for _, f := range a.active.LineFaults(mi) {
			out.SetBit(f.Bit, f.StuckAt)
		}
	} else {
		for _, f := range a.active.LineFaults(mi) {
			if a.faultActive(mi, f.Bit) {
				out.SetBit(f.Bit, f.StuckAt)
			}
		}
	}
	if a.injected != nil {
		for _, f := range a.injected[i] {
			out.SetBit(f.Bit, f.StuckAt)
		}
	}
	return out
}

// ReadTrue returns the stored payload without fault application — the
// value a fault-free array would return. Simulation harnesses use it to
// check for silent data corruption; hardware has no such port.
func (a *Array) ReadTrue(i int) bitvec.Line { return a.lines[i] }

// ActiveFaultCount returns the number of faults in line i active at the
// current voltage — and, under a fault-class spec, in the current fault
// epoch. This is what an instantaneous test (MBIST-style characterization,
// FLAIR's fill-time probe) observes, so intermittent faults that happen to
// be dormant are missed exactly the way real profiling misses them; use
// CapableFaultCount for ground truth.
func (a *Array) ActiveFaultCount(i int) int {
	mi := a.mapIndex(i)
	n := 0
	if !a.classed {
		n = a.active.LineCount(mi)
	} else {
		for _, f := range a.active.LineFaults(mi) {
			if a.faultActive(mi, f.Bit) {
				n++
			}
		}
	}
	if a.injected != nil {
		n += len(a.injected[i])
	}
	return n
}

// CapableFaultCount returns the ground-truth fault count of line i at the
// current voltage: every fault that can corrupt data in some epoch —
// persistent and intermittent faults always, aging faults once their
// activation ramp is non-zero at the current epoch — plus injected
// lifetime faults. The DFH misclassification oracle compares classifier
// state against this; hardware has no such port.
func (a *Array) CapableFaultCount(i int) int {
	mi := a.mapIndex(i)
	n := 0
	if !a.classed {
		n = a.active.LineCount(mi)
	} else {
		for _, f := range a.active.LineFaults(mi) {
			if faultmodel.ClassOf(a.classSeed, mi, f.Bit, a.spec) != faultmodel.Aging ||
				a.spec.AgingProb(a.faultEpoch) > 0 {
				n++
			}
		}
	}
	if a.injected != nil {
		n += len(a.injected[i])
	}
	return n
}

// UnmaskedFaultCount returns the number of active faults in line i whose
// stuck value currently differs from the stored data — the faults that are
// observable right now.
func (a *Array) UnmaskedFaultCount(i int) int {
	mi := a.mapIndex(i)
	n := 0
	for _, f := range a.active.LineFaults(mi) {
		if a.classed && !a.faultActive(mi, f.Bit) {
			continue
		}
		if a.lines[i].Bit(f.Bit) != f.StuckAt {
			n++
		}
	}
	if a.injected != nil {
		for _, f := range a.injected[i] {
			if a.lines[i].Bit(f.Bit) != f.StuckAt {
				n++
			}
		}
	}
	return n
}

// InjectSoftError flips bit within the stored payload of line i, modeling a
// transient particle strike. Unlike a persistent fault it is erased by the
// next Write.
func (a *Array) InjectSoftError(i, bit int) {
	a.lines[i].FlipBit(bit)
}

// InjectPersistentFault adds a new always-active stuck-at fault to line i,
// modeling an aging (wear-out) failure that appears during the chip's
// lifetime. The paper notes Killi "responds to transient, ageing, and
// high-voltage errors the same way": the new fault surfaces as a parity
// mismatch on some later access and the line relearns its DFH state.
func (a *Array) InjectPersistentFault(i, bit int, stuckAt uint) {
	if a.injected == nil {
		a.injected = make([][]faultmodel.Fault, len(a.lines))
	}
	a.injected[i] = append(a.injected[i], faultmodel.Fault{Bit: bit, StuckAt: stuckAt & 1})
}
