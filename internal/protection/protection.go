// Package protection defines the contract between the simulated L2 cache
// and an error-protection scheme, and implements the paper's comparison
// baselines (SECDED-per-line, DECTED-per-line, FLAIR, MS-ECC).
//
// Killi itself implements the same Scheme interface in internal/killi; the
// L2 model is policy-free and the Figure 4/5 sweeps are a loop over
// schemes.
package protection

import (
	"fmt"

	"killi/internal/bitvec"
	"killi/internal/cache"
	"killi/internal/obs"
	"killi/internal/sram"
	"killi/internal/stats"
)

// Verdict is a scheme's decision about a cache read hit.
type Verdict int

const (
	// Deliver: the (possibly corrected) data is clean; serve the hit.
	Deliver Verdict = iota
	// ErrorMiss: an uncorrectable error was detected. The line has been
	// invalidated; the controller must signal an error-induced cache miss
	// and refetch from memory (safe because the cache is write-through).
	ErrorMiss
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Deliver:
		return "deliver"
	case ErrorMiss:
		return "error-miss"
	default:
		return fmt.Sprintf("protection.Verdict(%d)", int(v))
	}
}

// Host is the view of the cache controller a scheme operates through.
type Host interface {
	// Tags returns the L2 tag structure. Schemes own Entry.Class and
	// Entry.Disabled.
	Tags() *cache.Cache
	// Data returns the low-voltage data array.
	Data() *sram.Array
	// SchemeInvalidate evicts a valid line at the scheme's request (e.g.
	// Killi's ECC-cache contention evictions). The host counts it and
	// invalidates the tag.
	SchemeInvalidate(set, way int)
	// Stats returns the run's counter set.
	Stats() *stats.Counters
	// Now returns the current simulation cycle (0 for hosts without a
	// clock, e.g. unit-test fixtures driving a scheme directly).
	Now() uint64
	// Observer returns the attached observability sink, nil when
	// observability is off — the common case, which schemes must keep
	// allocation-free by emitting nothing.
	Observer() obs.Observer
}

// Factory builds a fresh, unattached Scheme instance. The banked L2
// attaches one instance per bank — each protects its bank's lines through
// its own Host view and shares nothing with its siblings — so systems are
// constructed from a factory rather than a single pre-built instance.
type Factory func() Scheme

// Scheme is an error-protection mechanism attached to the L2.
//
// Call ordering: Attach once, then Reset at every voltage change or
// power-on; OnFill after the controller writes fill data into the data
// array; OnReadHit with the freshly read (possibly corrupted) data;
// OnWriteHit after a write-through store updates the array; OnEvict before
// a valid victim's tag is invalidated.
type Scheme interface {
	// Name is a stable identifier for reports.
	Name() string
	// Attach binds the scheme to its host. It is called exactly once.
	Attach(h Host)
	// Reset (re)initializes fault knowledge for a new voltage. MBIST-based
	// schemes run their pre-characterization here; Killi clears DFH state.
	Reset(vNorm float64)
	// VictimFunc returns the allocation/replacement policy the scheme
	// wants (nil for default LRU).
	VictimFunc() cache.VictimFunc
	// OnFill is invoked after fill data was written at (set, way); the
	// scheme generates and stores its metadata. data is the true (encoder
	// input) payload.
	OnFill(set, way int, data bitvec.Line)
	// OnReadHit verifies read data (as read from the faulty array),
	// correcting it in place when possible. On ErrorMiss the scheme has
	// already invalidated or disabled the line.
	OnReadHit(set, way int, data *bitvec.Line) Verdict
	// OnWriteHit regenerates metadata after a store updated the line.
	OnWriteHit(set, way int, data bitvec.Line)
	// OnEvict observes a valid line leaving the cache (before tag
	// invalidation). Killi uses this to train DFH bits.
	OnEvict(set, way int)
}
