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
// The queue is a timing wheel (a calendar queue with one bucket per
// cycle): every event due within a fixed horizon of the clock sits in its
// cycle's slot, a key-sorted list of pooled nodes, and an occupancy bitmap
// finds the next non-empty slot. The model's scheduling delays are short
// and bounded (issue and L1 latencies of a cycle or so, DRAM completions of
// a few thousand cycles), so nearly every event goes straight to its slot;
// the rare event beyond the horizon waits in a four-ary min-heap and moves
// into the wheel once the clock comes within the horizon of it. Both
// structures recycle their storage, so the steady-state pop loop allocates
// nothing. Boundary hooks (SetTicker) run between events at multiples of
// their period, for samplers and injectors that must see every domain at
// rest.
package engine

import (
	"fmt"
	"math/bits"
)

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

	// horizon is the timing wheel's span in cycles, one slot per cycle: an
	// event due fewer than horizon cycles after the clock goes to the
	// wheel, any later one to the overflow heap. It covers the model's
	// longest DRAM completion (about 3,000 cycles) and must be a power of
	// two and a multiple of 64 (one occupancy bit per slot).
	horizon   = 4096
	wheelMask = horizon - 1
)

// RunStats is the deterministic scheduling ledger of one Run: a pure
// function of the simulation, independent of host speed, so it can be
// asserted in tests and gated in benchmarks.
type RunStats struct {
	// Events counts fired events.
	Events uint64
	// Timestamps counts distinct event cycles fired.
	Timestamps uint64
	// Overflow counts events scheduled at least the wheel's horizon ahead
	// of the clock, which wait in the overflow heap. It covers every event
	// scheduled since the previous Run returned, setup included.
	Overflow uint64
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

// node is one wheel entry: an event and the pool index of the next node in
// its slot's list (0 ends the list; nodes[0] is never used).
type node struct {
	ev   event
	next int32
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
//
// The wheel holds exactly the queued events due before now+horizon, so its
// earliest event, when it has one, precedes every overflow event. Slot
// when&wheelMask lists that cycle's events in ascending key order.
type Engine struct {
	domains []Domain
	now     uint64
	stats   RunStats

	slots  [horizon]int32       // head node of each cycle's list, 0 if empty
	occ    [horizon / 64]uint64 // bit s set iff slots[s] != 0
	nodes  []node               // node pool; nodes[0] is the list terminator
	free   int32                // head of the free-node list, 0 if empty
	queued int                  // events in the wheel

	overflow       []event // four-ary heap: children of i at 4i+1..4i+4
	overflowPushes uint64  // events sent to overflow since the last Run
	// fired holds the event pop last removed. pop returns a pointer to it:
	// returning the event by value measured slower, as Run reloaded the
	// returned copy through the stack.
	fired event

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
	e := &Engine{domains: make([]Domain, numDomains), nodes: make([]node, 1)}
	for i := range e.domains {
		e.domains[i] = Domain{eng: e, id: int32(i)}
	}
	return e
}

// Reset returns the engine to the state New leaves it in — clock at 0, no
// queued events, no tickers, every domain's scheduling sequence at 0 —
// keeping its storage and its domains' bound sinks.
func (e *Engine) Reset() {
	for i := range e.domains {
		e.domains[i].seq = 0
	}
	e.now = 0
	e.stats = RunStats{}
	clear(e.slots[:])
	clear(e.occ[:])
	e.nodes = e.nodes[:1]
	e.free = 0
	e.queued = 0
	e.overflow = e.overflow[:0]
	e.overflowPushes = 0
	e.fired = event{}
	e.tickers = e.tickers[:0]
}

// Domain returns domain i.
func (e *Engine) Domain(i int) *Domain { return &e.domains[i] }

// Now returns the engine clock: the cycle of the last fired event.
func (e *Engine) Now() uint64 { return e.now }

// Stats returns the scheduling ledger of the most recent Run.
func (e *Engine) Stats() RunStats { return e.stats }

func (e *Engine) push(ev event) {
	if ev.when-e.now >= horizon {
		e.overflowPushes++
		e.overflow = append(e.overflow, ev)
		siftUp(e.overflow, len(e.overflow)-1)
		return
	}
	e.insert(ev)
}

// insert files an event due before now+horizon into its cycle's slot,
// behind every queued event of that cycle with a smaller key.
func (e *Engine) insert(ev event) {
	n := e.free
	if n != 0 {
		e.free = e.nodes[n].next
	} else {
		n = int32(len(e.nodes))
		e.nodes = append(e.nodes, node{})
	}
	s := ev.when & wheelMask
	p := &e.slots[s]
	for *p != 0 && e.nodes[*p].ev.key < ev.key {
		p = &e.nodes[*p].next
	}
	nd := &e.nodes[n]
	nd.ev, nd.next = ev, *p
	*p = n
	e.occ[s/64] |= 1 << (s % 64)
	e.queued++
}

// nextSlot returns the wheel slot of the earliest queued wheel event: the
// first occupied slot at or after the clock's, wrapping around. The wheel
// must not be empty.
func (e *Engine) nextSlot() uint64 {
	s := e.now & wheelMask
	w := s / 64
	if m := e.occ[w] >> (s % 64); m != 0 {
		return s + uint64(bits.TrailingZeros64(m))
	}
	for i := uint64(1); i <= uint64(len(e.occ)); i++ {
		j := (w + i) % uint64(len(e.occ))
		if m := e.occ[j]; m != 0 {
			return j*64 + uint64(bits.TrailingZeros64(m))
		}
	}
	panic("engine: empty wheel")
}

// peek returns the cycle of the next event. The queue must not be empty.
func (e *Engine) peek() uint64 {
	if e.queued == 0 {
		return e.overflow[0].when
	}
	return e.now + (e.nextSlot()-e.now)&wheelMask
}

// pop removes the next event in canonical order, advances the clock to its
// cycle, and moves overflow events now within the horizon into the wheel.
// The clock moves only to a popped cycle, never ahead of the queue: an
// event scheduled before the next pop (by a ticker, or between Runs) is
// due no earlier than the clock, so it always finds its slot.
func (e *Engine) pop() *event {
	ev := &e.fired
	if e.queued > 0 {
		s := e.nextSlot()
		n := e.slots[s]
		nd := &e.nodes[n]
		*ev = nd.ev
		e.slots[s] = nd.next
		if nd.next == 0 {
			e.occ[s/64] &^= 1 << (s % 64)
		}
		nd.next = e.free
		e.free = n
		e.queued--
	} else {
		*ev = e.popOverflow()
	}
	e.now = ev.when
	for len(e.overflow) > 0 && e.overflow[0].when-e.now < horizon {
		e.insert(e.popOverflow())
	}
	return ev
}

// popOverflow removes and returns the overflow heap's minimum event. It
// uses the bottom-up hole sift: walk the hole from the root down the
// min-child path to a leaf, comparing only siblings, then sift the
// displaced last element back up.
func (e *Engine) popOverflow() event {
	h := e.overflow
	top := h[0]
	n := len(h) - 1
	moved := h[n]
	h = h[:n]
	e.overflow = h
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
	for e.queued > 0 || len(e.overflow) > 0 {
		if hasTickers {
			// A ticker may schedule events, possibly earlier than the one
			// it fired ahead of; pop takes whichever is now first.
			e.fireTickers(e.peek())
		}
		ev := e.pop()
		if ev.when != last {
			stamps++
			last = ev.when
		}
		events++
		e.domains[ev.dst].sink.OnEvent(ev.kind, ev.a, ev.b)
	}
	e.stats = RunStats{Events: events, Timestamps: stamps, Overflow: e.overflowPushes}
	e.overflowPushes = 0
	return e.now
}
