package engine

import (
	"container/heap"
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

// scheduler abstracts the two engines for the shared workload generator.
type scheduler interface {
	Now() uint64
	After(dom int, delay uint64, fn func())
	Send(src, dst int, delay uint64, fn func())
	Run() uint64
}

// refEngine implements scheduler on container/heap.
type refEngine struct {
	now    uint64
	seq    []uint64
	events refHeap
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
func (e *refEngine) Run() uint64 {
	for len(e.events) > 0 {
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

// TestMatchesReferenceHeap checks the typed four-ary heap and its packed
// keys against the container/heap oracle on randomized schedules:
// identical firing order and identical cycles, across many seeds and
// domain counts.
func TestMatchesReferenceHeap(t *testing.T) {
	for _, domains := range []int{1, 3, 16} {
		for seed := uint64(1); seed <= 50; seed++ {
			got := runRandomSchedule(newClosureEngine(domains), domains, seed)
			want := runRandomSchedule(newRefEngine(domains), domains, seed)
			if len(got.ids) != len(want.ids) {
				t.Fatalf("domains %d seed %d: fired %d events, reference fired %d",
					domains, seed, len(got.ids), len(want.ids))
			}
			for i := range got.ids {
				if got.ids[i] != want.ids[i] || got.cycles[i] != want.cycles[i] {
					t.Fatalf("domains %d seed %d: event %d diverges: got (id=%d,cycle=%d), want (id=%d,cycle=%d)",
						domains, seed, i, got.ids[i], got.cycles[i], want.ids[i], want.cycles[i])
				}
			}
		}
	}
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
// simulator's hot path depends on: once the heap's backing array has
// grown, scheduling (After and Send, with a ticker armed) and draining
// allocates nothing.
func TestSteadyStateAllocFree(t *testing.T) {
	e, d := newSteady()
	for i := uint64(0); i < 64; i++ {
		d.After(i%7, 0, i%5, 0)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 32; i++ {
			d.After(i%7, 0, i%5, 0)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/run allocated %.1f times per iteration", allocs)
	}
}

// BenchmarkScheduleRun measures the per-event cost of the queue with a
// reused engine: the target is 0 allocs/op.
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
