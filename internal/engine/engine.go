// Package engine provides the discrete-event simulation kernel: a clock and
// one event queue with a deterministic total order.
//
// The GPU memory-hierarchy model is expressed as events (request issue,
// bank response, DRAM completion) scheduled at future cycles. Simulator
// state is partitioned into domains, each with a bound EventSink; an event
// is owned by exactly one domain and only that domain's sink observes it.
// Events fire in a canonical total order — (cycle, key), where the key
// packs the event's class, origin domain, and a per-domain scheduling
// sequence — so a simulation configuration plus a seed fully determines
// every statistic. At equal cycle a domain fires its local events (After)
// in scheduling order before delivered messages (Send), which order among
// themselves by (source domain, source sequence).
//
// The queue is a typed four-ary min-heap of fixed-size values, so the
// steady-state pop loop allocates nothing. Boundary hooks (SetTicker) run
// between events at multiples of their period, for samplers and injectors
// that must see every domain at rest.
package engine

import "fmt"

// EventSink receives a domain's events. Exactly one sink is bound per
// domain; a sink should touch only its own domain's state and reach other
// domains through Send.
type EventSink interface {
	OnEvent(kind uint8, a, b uint64)
}

const (
	seqBits    = 48
	domainBits = 15
	// msgClass marks cross-domain messages in the canonical key. At equal
	// cycle a domain fires its local events before delivered messages;
	// messages order among themselves by (source domain, source sequence).
	msgClass = uint64(1) << 63
	noEvent  = ^uint64(0)
)

// RunStats is the deterministic scheduling ledger of one Run: a pure
// function of the simulation, independent of host speed, so it can be
// asserted in tests and gated in benchmarks.
type RunStats struct {
	// Events counts fired events.
	Events uint64
	// Timestamps counts distinct event cycles fired.
	Timestamps uint64
}

// event is one queued event: payload (kind, a, b) for the sink of domain
// dst, firing at cycle `when`, totally ordered by (when, key).
type event struct {
	when uint64
	key  uint64
	a, b uint64
	dst  int32
	kind uint8
}

func (e event) less(o event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.key < o.key
}

func siftUp(h []event, i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// Domain is one partition of simulator state: an event queue identity
// whose events fire in canonical order. Obtain domains from
// Engine.Domain; the zero value is not usable.
type Domain struct {
	eng  *Engine
	id   int32
	seq  uint64
	sink EventSink
}

// Bind attaches the sink that receives this domain's events.
func (d *Domain) Bind(sink EventSink) { d.sink = sink }

// ID returns the domain's index.
func (d *Domain) ID() int { return int(d.id) }

// Now returns the engine clock.
func (d *Domain) Now() uint64 { return d.eng.now }

// After schedules a local event on this domain, delay cycles from the
// current cycle. A delay of 0 fires later in the same cycle, after the
// domain's already-queued same-cycle local events. Call it during setup
// (between Runs) or from this domain's own sink.
func (d *Domain) After(delay uint64, kind uint8, a, b uint64) {
	d.seq++
	d.eng.push(event{
		when: d.eng.now + delay,
		key:  uint64(d.id)<<seqBits | d.seq,
		a:    a, b: b,
		dst:  d.id,
		kind: kind,
	})
}

// Send schedules an event on another domain, delay cycles from the current
// cycle. The delay must be at least 1: every cross-domain interaction in
// the model takes time. Delivery order at equal cycle is canonical — after
// the destination's local events, ordered by (sending domain, sending
// sequence).
func (d *Domain) Send(dst *Domain, delay uint64, kind uint8, a, b uint64) {
	if delay == 0 {
		panic("engine: Send requires delay >= 1")
	}
	d.seq++
	d.eng.push(event{
		when: d.eng.now + delay,
		key:  msgClass | uint64(d.id)<<seqBits | d.seq,
		a:    a, b: b,
		dst:  dst.id,
		kind: kind,
	})
}

// Engine is a discrete-event engine over a fixed set of domains. Construct
// with New. Run is a plain pop loop with zero steady-state allocations.
type Engine struct {
	domains []Domain
	heap    []event // four-ary heap: children of i at 4i+1..4i+4
	now     uint64
	stats   RunStats

	// tickers are optional hooks fired once per boundary (multiples of
	// each slot's period) between events: no event is in flight when one
	// runs, so it may read — and, alone among extension points, mutate —
	// any domain's state. A ticker fires for each boundary B <= the next
	// event cycle, before the events at that cycle; a boundary with no
	// remaining events after it never fires, so tickers never keep Run
	// alive. A boundary shared by several slots fires them in ascending
	// slot order. Slot 0 is the pacer (SetPacer, the observability
	// sampler); gpu's fault-class strike ticker rides in slot 1.
	tickers []ticker
}

// ticker is one registered boundary hook (see SetTicker).
type ticker struct {
	fn    func(boundary uint64)
	every uint64
	next  uint64
}

// New returns an engine over numDomains domains at cycle 0.
func New(numDomains int) *Engine {
	if numDomains < 1 || numDomains >= 1<<domainBits {
		panic(fmt.Sprintf("engine: %d domains out of range", numDomains))
	}
	e := &Engine{domains: make([]Domain, numDomains)}
	for i := range e.domains {
		e.domains[i] = Domain{eng: e, id: int32(i)}
	}
	return e
}

// Domain returns domain i.
func (e *Engine) Domain(i int) *Domain { return &e.domains[i] }

// Now returns the engine clock: the cycle of the last fired event.
func (e *Engine) Now() uint64 { return e.now }

// Stats returns the scheduling ledger of the most recent Run.
func (e *Engine) Stats() RunStats { return e.stats }

func (e *Engine) push(ev event) {
	e.heap = append(e.heap, ev)
	siftUp(e.heap, len(e.heap)-1)
}

// pop removes and returns the minimum event. It uses the bottom-up hole
// sift: walk the hole from the root down the min-child path to a leaf,
// comparing only siblings, then sift the displaced last element back up.
// That element was among the latest scheduled, so it usually belongs near
// a leaf and the up-pass ends after one comparison.
func (e *Engine) pop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	moved := h[n]
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best, end := first, min(first+4, n)
		for c := first + 1; c < end; c++ {
			if h[c].less(h[best]) {
				best = c
			}
		}
		h[i] = h[best]
		i = best
	}
	h[i] = moved
	siftUp(h, i)
	return top
}

// SetPacer installs (or, with fn == nil or every == 0, removes) the
// boundary hook in ticker slot 0, armed at the first multiple of every
// strictly after the current cycle. The pacer persists across Runs.
func (e *Engine) SetPacer(every uint64, fn func(boundary uint64)) {
	e.SetTicker(0, every, fn)
}

// SetTicker installs (or, with fn == nil or every == 0, removes) a
// boundary hook in the given slot, armed at the first multiple of every
// strictly after the current cycle. Slots are independent, so several
// subsystems (the observability sampler, the fault-class strike injector)
// can tick at different periods without clobbering each other; a boundary
// due in several slots fires them in ascending slot order. Tickers persist
// across Runs and must only be (un)installed between Runs.
func (e *Engine) SetTicker(slot int, every uint64, fn func(boundary uint64)) {
	if slot < 0 {
		panic("engine: negative ticker slot")
	}
	for slot >= len(e.tickers) {
		e.tickers = append(e.tickers, ticker{})
	}
	if fn == nil || every == 0 {
		e.tickers[slot] = ticker{}
	} else {
		e.tickers[slot] = ticker{fn: fn, every: every, next: e.now - e.now%every + every}
	}
	// Trim dead tail slots so an armed-ticker check is len(tickers) > 0.
	for n := len(e.tickers); n > 0 && e.tickers[n-1].fn == nil; n = len(e.tickers) {
		e.tickers = e.tickers[:n-1]
	}
}

// fireTickers fires every pending ticker boundary <= limit in (boundary,
// slot) order, advancing each slot past its fired boundary.
func (e *Engine) fireTickers(limit uint64) {
	for {
		b, slot := uint64(noEvent), -1
		for i := range e.tickers {
			if t := &e.tickers[i]; t.fn != nil && t.next < b {
				b, slot = t.next, i
			}
		}
		if slot < 0 || b > limit {
			return
		}
		t := &e.tickers[slot]
		t.next += t.every
		t.fn(b)
	}
}

// Run fires events until the queue drains and returns the final cycle.
func (e *Engine) Run() uint64 {
	var events, stamps uint64
	last := noEvent
	hasTickers := len(e.tickers) > 0
	for len(e.heap) > 0 {
		if hasTickers {
			e.fireTickers(e.heap[0].when)
		}
		ev := e.pop()
		if ev.when != last {
			stamps++
			last = ev.when
		}
		events++
		e.now = ev.when
		e.domains[ev.dst].sink.OnEvent(ev.kind, ev.a, ev.b)
	}
	e.stats = RunStats{Events: events, Timestamps: stamps}
	return e.now
}
