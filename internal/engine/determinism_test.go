package engine

import (
	"container/heap"
	"fmt"
	"testing"

	"killi/internal/xrand"
)

// refEvent and refHeap are a straight container/heap restatement of the
// documented canonical order — (cycle, local before message, source
// domain, source sequence) — kept as the ordering oracle for the property
// test below.
type refEvent struct {
	when uint64
	msg  bool
	src  int
	seq  uint64
	fn   func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.when != b.when {
		return a.when < b.when
	}
	if a.msg != b.msg {
		return !a.msg
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// scheduler abstracts the two engines for the shared workload generators.
// SetTicker arms one boundary hook with Engine.SetTicker's semantics.
type scheduler interface {
	Now() uint64
	After(dom int, delay uint64, fn func())
	Send(src, dst int, delay uint64, fn func())
	SetTicker(every uint64, fn func(boundary uint64))
	Run() uint64
}

// refEngine implements scheduler on container/heap.
type refEngine struct {
	now    uint64
	seq    []uint64
	events refHeap

	tick      func(boundary uint64)
	every     uint64
	nextBound uint64
}

func newRefEngine(domains int) *refEngine { return &refEngine{seq: make([]uint64, domains)} }

func (e *refEngine) Now() uint64 { return e.now }
func (e *refEngine) After(dom int, delay uint64, fn func()) {
	e.seq[dom]++
	heap.Push(&e.events, refEvent{when: e.now + delay, src: dom, seq: e.seq[dom], fn: fn})
}
func (e *refEngine) Send(src, dst int, delay uint64, fn func()) {
	e.seq[src]++
	heap.Push(&e.events, refEvent{when: e.now + delay, msg: true, src: src, seq: e.seq[src], fn: fn})
}
func (e *refEngine) SetTicker(every uint64, fn func(boundary uint64)) {
	e.tick, e.every, e.nextBound = fn, every, e.now-e.now%every+every
}
func (e *refEngine) Run() uint64 {
	for len(e.events) > 0 {
		if e.tick != nil {
			for limit := e.events[0].when; e.nextBound <= limit; {
				b := e.nextBound
				e.nextBound += e.every
				e.tick(b)
			}
		}
		ev := heap.Pop(&e.events).(refEvent)
		e.now = ev.when
		ev.fn()
	}
	return e.now
}

// closureEngine implements scheduler on Engine: each event's a payload
// indexes a table of closures, which every domain's sink calls.
type closureEngine struct {
	e   *Engine
	fns []func()
}

func newClosureEngine(domains int) *closureEngine {
	c := &closureEngine{e: New(domains)}
	for i := 0; i < domains; i++ {
		c.e.Domain(i).Bind(sinkFunc(func(kind uint8, a, b uint64) { c.fns[a]() }))
	}
	return c
}

func (c *closureEngine) Now() uint64 { return c.e.Now() }
func (c *closureEngine) After(dom int, delay uint64, fn func()) {
	c.fns = append(c.fns, fn)
	c.e.Domain(dom).After(delay, 0, uint64(len(c.fns)-1), 0)
}
func (c *closureEngine) Send(src, dst int, delay uint64, fn func()) {
	c.fns = append(c.fns, fn)
	c.e.Domain(src).Send(c.e.Domain(dst), delay, 0, uint64(len(c.fns)-1), 0)
}
func (c *closureEngine) SetTicker(every uint64, fn func(boundary uint64)) {
	c.e.SetTicker(0, every, fn)
}
func (c *closureEngine) Run() uint64 { return c.e.Run() }

// trace records (id, cycle) pairs for comparison across implementations.
type trace struct {
	ids    []int
	cycles []uint64
}

func (t *trace) hit(id int, cycle uint64) {
	t.ids = append(t.ids, id)
	t.cycles = append(t.cycles, cycle)
}

// runRandomSchedule drives a randomized multi-domain workload: plain local
// events, events that chain a zero-delay local follow-up or a message to a
// random domain, and self-rescheduling events that re-queue themselves at
// delay 0 a few times before expiring — the adversarial case for
// same-cycle order. Follow-ups are scheduled from the firing event's own
// domain, as sinks do.
func runRandomSchedule(e scheduler, domains int, seed uint64) *trace {
	r := xrand.New(seed)
	tr := &trace{}
	nextID := 0
	for i := 0; i < 200; i++ {
		id := nextID
		nextID++
		dom := int(r.Uint64() % uint64(domains))
		switch r.Uint64() % 4 {
		case 0: // plain event
			e.After(dom, r.Uint64()%50, func() { tr.hit(id, e.Now()) })
		case 1: // event that chains a zero-delay local follow-up
			childID := nextID
			nextID++
			e.After(dom, r.Uint64()%50, func() {
				tr.hit(id, e.Now())
				e.After(dom, 0, func() { tr.hit(childID, e.Now()) })
			})
		case 2: // event that messages another domain
			childID := nextID
			nextID++
			dst := int(r.Uint64() % uint64(domains))
			delay := 1 + r.Uint64()%4
			e.After(dom, r.Uint64()%50, func() {
				tr.hit(id, e.Now())
				e.Send(dom, dst, delay, func() { tr.hit(childID, e.Now()) })
			})
		case 3: // zero-delay self-rescheduling event
			remaining := int(r.Uint64()%3) + 1
			var fn func()
			fn = func() {
				tr.hit(id, e.Now())
				remaining--
				if remaining > 0 {
					e.After(dom, 0, fn)
				}
			}
			e.After(dom, r.Uint64()%50, fn)
		}
	}
	e.Run()
	return tr
}

// horizonDelay draws a delay that straddles the timing wheel's horizon:
// exactly horizon-1, horizon or horizon+1, anything up to 3×horizon, or a
// short one.
func horizonDelay(r *xrand.Rand) uint64 {
	switch r.Uint64() % 5 {
	case 0:
		return horizon - 1
	case 1:
		return horizon
	case 2:
		return horizon + 1
	case 3:
		return r.Uint64() % (3*horizon + 1)
	}
	return r.Uint64() % 50
}

// runHorizonSchedule drives a schedule across the wheel's horizon: events
// and follow-ups at horizonDelay delays, so some wait in the overflow heap,
// move into the wheel as the clock advances and wrap around its slots; a
// ticker that schedules events of its own, which can land before the event
// whose boundary fired it; and a second Run after a long idle gap, seeded
// between the Runs with one event far past the horizon and one near.
func runHorizonSchedule(e scheduler, domains int, seed uint64) *trace {
	r := xrand.New(seed)
	tr := &trace{}
	nextID := 0
	newID := func() int { nextID++; return nextID - 1 }
	ticks := 0
	e.SetTicker(1+r.Uint64()%1500, func(uint64) {
		if ticks++; ticks > 40 {
			return
		}
		id := newID()
		e.After(ticks%domains, horizonDelay(r), func() { tr.hit(id, e.Now()) })
	})
	for i := 0; i < 200; i++ {
		id := newID()
		dom := int(r.Uint64() % uint64(domains))
		switch r.Uint64() % 3 {
		case 0: // plain event
			e.After(dom, horizonDelay(r), func() { tr.hit(id, e.Now()) })
		case 1: // event that chains a local follow-up
			childID, delay := newID(), horizonDelay(r)
			e.After(dom, horizonDelay(r), func() {
				tr.hit(id, e.Now())
				e.After(dom, delay, func() { tr.hit(childID, e.Now()) })
			})
		case 2: // event that messages another domain
			childID, delay := newID(), 1+horizonDelay(r)
			dst := int(r.Uint64() % uint64(domains))
			e.After(dom, horizonDelay(r), func() {
				tr.hit(id, e.Now())
				e.Send(dom, dst, delay, func() { tr.hit(childID, e.Now()) })
			})
		}
	}
	e.Run()
	far, near := newID(), newID()
	e.After(0, 10*horizon+r.Uint64()%horizon, func() { tr.hit(far, e.Now()) })
	e.After(domains-1, 1+r.Uint64()%50, func() { tr.hit(near, e.Now()) })
	e.Run()
	return tr
}

// sameTrace fails the test unless got and want fired the same events at
// the same cycles in the same order.
func sameTrace(t *testing.T, label string, got, want *trace) {
	t.Helper()
	if len(got.ids) != len(want.ids) {
		t.Fatalf("%s: fired %d events, reference fired %d", label, len(got.ids), len(want.ids))
	}
	for i := range got.ids {
		if got.ids[i] != want.ids[i] || got.cycles[i] != want.cycles[i] {
			t.Fatalf("%s: event %d diverges: got (id=%d,cycle=%d), want (id=%d,cycle=%d)",
				label, i, got.ids[i], got.cycles[i], want.ids[i], want.cycles[i])
		}
	}
}

// TestMatchesReferenceHeap checks the timing wheel, its overflow heap and
// the packed keys against the container/heap oracle: identical firing
// order and identical cycles, across many seeds and domain counts, on
// short-delay schedules and on schedules that cross the horizon.
func TestMatchesReferenceHeap(t *testing.T) {
	for _, domains := range []int{1, 3, 16} {
		for seed := uint64(1); seed <= 50; seed++ {
			label := fmt.Sprintf("domains %d seed %d", domains, seed)
			sameTrace(t, label,
				runRandomSchedule(newClosureEngine(domains), domains, seed),
				runRandomSchedule(newRefEngine(domains), domains, seed))
			sameTrace(t, label+" across the horizon",
				runHorizonSchedule(newClosureEngine(domains), domains, seed),
				runHorizonSchedule(newRefEngine(domains), domains, seed))
		}
	}
}

// runDecoded drives the schedule a fuzz input encodes. Byte 0 sets the
// domain count (1 + low three bits) and a ticker period (97 × the high five
// bits; 0 arms none); the ticker schedules an event of its own on each of
// its first 16 boundaries. Each following 4-byte record is one event: a
// domain, a big-endian 16-bit delay (up to 16 horizons), and a kind whose
// low two bits pick a plain After, a Send to domain kind>>2, an After that
// chains a follow-up at half its delay, or a Run before a plain After.
// Records past the 512th are ignored.
func runDecoded(e scheduler, data []byte) *trace {
	domains := 1 + int(data[0]%8)
	tr := &trace{}
	nextID := 0
	newID := func() int { nextID++; return nextID - 1 }
	if every := 97 * uint64(data[0]>>3); every > 0 {
		ticks := uint64(0)
		e.SetTicker(every, func(uint64) {
			if ticks++; ticks <= 16 {
				id := newID()
				e.After(int(ticks)%domains, ticks*ticks*37, func() { tr.hit(id, e.Now()) })
			}
		})
	}
	data = data[1:]
	for i := 0; i+4 <= len(data) && i < 4*512; i += 4 {
		dom := int(data[i]) % domains
		delay := uint64(data[i+1])<<8 | uint64(data[i+2])
		kind := data[i+3]
		id := newID()
		switch kind % 4 {
		case 0:
			e.After(dom, delay, func() { tr.hit(id, e.Now()) })
		case 1:
			e.Send(dom, int(kind>>2)%domains, max(delay, 1), func() { tr.hit(id, e.Now()) })
		case 2:
			childID := newID()
			e.After(dom, delay, func() {
				tr.hit(id, e.Now())
				e.After(dom, delay/2, func() { tr.hit(childID, e.Now()) })
			})
		case 3:
			e.Run()
			e.After(dom, delay, func() { tr.hit(id, e.Now()) })
		}
	}
	e.Run()
	return tr
}

// FuzzEngineMatchesReference checks the engine against the container/heap
// oracle on arbitrary schedules (see runDecoded): the same events must
// fire at the same cycles in the same order.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		domains := 1 + int(data[0]%8)
		sameTrace(t, "decoded schedule",
			runDecoded(newClosureEngine(domains), data),
			runDecoded(newRefEngine(domains), data))
	})
}

// TestSameCycleSchedulingOrderProperty fires many events at colliding cycles
// and asserts the property directly: among a domain's local events with
// equal cycles, firing order equals scheduling order.
func TestSameCycleSchedulingOrderProperty(t *testing.T) {
	r := xrand.New(7)
	e := New(1)
	d := e.Domain(0)
	type rec struct {
		schedOrder uint64
		cycle      uint64
	}
	var recs []rec
	d.Bind(sinkFunc(func(kind uint8, a, b uint64) { recs = append(recs, rec{a, d.Now()}) }))
	for i := uint64(0); i < 500; i++ {
		d.After(r.Uint64()%8, 0, i, 0)
	}
	e.Run()
	if len(recs) != 500 {
		t.Fatalf("fired %d of 500", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		prev, cur := recs[i-1], recs[i]
		if cur.cycle < prev.cycle {
			t.Fatalf("cycle went backwards at %d: %d after %d", i, cur.cycle, prev.cycle)
		}
		if cur.cycle == prev.cycle && cur.schedOrder < prev.schedOrder {
			t.Fatalf("same-cycle events out of scheduling order at %d: %d fired after %d",
				i, cur.schedOrder, prev.schedOrder)
		}
	}
}

// TestRunStatsDeterministic pins the scheduling ledger: Events counts
// fired events, Timestamps counts distinct fired cycles, and identical
// runs agree exactly.
func TestRunStatsDeterministic(t *testing.T) {
	run := func() (RunStats, uint64, uint64) {
		c := newClosureEngine(8)
		tr := runRandomSchedule(c, 8, 3)
		stamps := uint64(0)
		for i, cy := range tr.cycles {
			if i == 0 || cy != tr.cycles[i-1] {
				stamps++
			}
		}
		return c.e.Stats(), uint64(len(tr.ids)), stamps
	}
	s1, events, stamps := run()
	if s1.Events != events || s1.Timestamps != stamps {
		t.Fatalf("RunStats %+v, want Events=%d Timestamps=%d", s1, events, stamps)
	}
	if s2, _, _ := run(); s2 != s1 {
		t.Fatalf("RunStats differ across identical runs: %+v vs %+v", s1, s2)
	}
}

// steadySink re-queues half its events locally and messages its peer with
// the rest, so a steady-state loop exercises After, Send and the pop loop.
type steadySink struct {
	d, peer *Domain
	count   uint64
}

func (s *steadySink) OnEvent(kind uint8, a, b uint64) {
	s.count++
	if s.count%2 == 0 {
		s.d.After(s.d.Now()%13, kind, a, b)
	} else if a > 0 {
		s.d.Send(s.peer, 1+a%3, kind, a-1, b)
	}
}

func newSteady() (*Engine, *Domain) {
	e := New(2)
	s0 := &steadySink{d: e.Domain(0), peer: e.Domain(1)}
	s1 := &steadySink{d: e.Domain(1), peer: e.Domain(0)}
	e.Domain(0).Bind(s0)
	e.Domain(1).Bind(s1)
	e.SetPacer(64, func(uint64) {})
	return e, e.Domain(0)
}

// TestSteadyStateAllocFree pins the zero-allocation property the
// simulator's hot path depends on: once the node pool and the overflow
// heap have grown, scheduling (After and Send, with a ticker armed) and
// draining allocates nothing — also when some events land past the wheel's
// horizon and move into it later.
func TestSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		far  uint64 // added to every fourth setup delay
	}{
		{"within horizon", 0},
		{"past horizon", horizon + 500},
	} {
		e, d := newSteady()
		schedule := func(n uint64) {
			for i := uint64(0); i < n; i++ {
				delay := i % 7
				if i%4 == 0 {
					delay += tc.far + 97*i
				}
				d.After(delay, 0, i%5, 0)
			}
		}
		schedule(64)
		e.Run()
		allocs := testing.AllocsPerRun(100, func() {
			schedule(32)
			e.Run()
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state schedule/run allocated %.1f times per iteration", tc.name, allocs)
		}
		if tc.far > 0 && e.Stats().Overflow == 0 {
			t.Fatalf("%s: no event went to the overflow heap", tc.name)
		}
	}
}

// BenchmarkScheduleRun measures the per-event cost of the queue with a
// reused engine on short delays: the target is 0 allocs/op.
func BenchmarkScheduleRun(b *testing.B) {
	e, d := newSteady()
	for i := uint64(0); i < 128; i++ {
		d.After(i%13, 0, i%5, 0)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := uint64(0); j < 100; j++ {
			d.After(j%13, 0, j%5, 0)
		}
		e.Run()
	}
}

// bimodalSink re-schedules each event until its hop count runs out, with
// the simulator's measured delay mix: half the hops are local events at a
// delay of 0 or 1 cycle (issue, L1 latency), half are messages to the peer
// domain 128 to 3,000 cycles ahead (DRAM completions).
type bimodalSink struct {
	d, peer *Domain
}

func (s *bimodalSink) OnEvent(kind uint8, hops, x uint64) {
	if hops == 0 {
		return
	}
	x = x*6364136223846793005 + 1442695040888963407 // LCG step
	if r := x >> 33; r&1 == 0 {
		s.d.After(r>>1&1, kind, hops-1, x)
	} else {
		s.d.Send(s.peer, 128+(r>>1)%2873, kind, hops-1, x)
	}
}

// BenchmarkScheduleRunBimodal measures the queue on the simulator's
// traffic: about 500 events in flight (the queue depth of a simulated
// GPU), each hopping 8 times with bimodalSink's delay mix, 4,500 events
// per op.
func BenchmarkScheduleRunBimodal(b *testing.B) {
	e := New(2)
	e.Domain(0).Bind(&bimodalSink{d: e.Domain(0), peer: e.Domain(1)})
	e.Domain(1).Bind(&bimodalSink{d: e.Domain(1), peer: e.Domain(0)})
	d := e.Domain(0)
	seed := func() {
		for i := uint64(0); i < 500; i++ {
			d.After(6*i, 0, 8, i)
		}
	}
	seed()
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed()
		e.Run()
	}
}
