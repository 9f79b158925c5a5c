package engine

import "testing"

type sinkFunc func(kind uint8, a, b uint64)

func (f sinkFunc) OnEvent(kind uint8, a, b uint64) { f(kind, a, b) }

// single returns a one-domain engine whose sink records each event's a
// payload in order.
func single() (*Engine, *Domain, *[]uint64) {
	e := New(1)
	d := e.Domain(0)
	var fired []uint64
	d.Bind(sinkFunc(func(kind uint8, a, b uint64) { fired = append(fired, a) }))
	return e, d, &fired
}

func TestNewEngineStartsEmpty(t *testing.T) {
	e := New(3)
	if e.Now() != 0 {
		t.Fatalf("fresh engine at cycle %d", e.Now())
	}
	if got := e.Run(); got != 0 || e.Stats() != (RunStats{}) {
		t.Fatalf("Run on an empty queue returned %d with stats %+v", got, e.Stats())
	}
}

func TestEventOrderingByTime(t *testing.T) {
	e, d, fired := single()
	d.After(30, 0, 3, 0)
	d.After(10, 0, 1, 0)
	d.After(20, 0, 2, 0)
	if final := e.Run(); final != 30 {
		t.Fatalf("final cycle %d", final)
	}
	if got := *fired; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e, d, fired := single()
	for i := uint64(0); i < 10; i++ {
		d.After(5, 0, i, 0)
	}
	e.Run()
	for i, v := range *fired {
		if v != uint64(i) {
			t.Fatalf("same-cycle events fired out of scheduling order: %v", *fired)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	d := e.Domain(0)
	var hits []uint64
	d.Bind(sinkFunc(func(kind uint8, a, b uint64) {
		hits = append(hits, d.Now())
		switch a {
		case 1:
			d.After(4, 0, 2, 0)
		case 2:
			d.After(0, 0, 3, 0)
		}
	}))
	d.After(1, 0, 1, 0)
	e.Run()
	want := []uint64{1, 5, 5}
	if len(hits) != 3 || hits[0] != want[0] || hits[1] != want[1] || hits[2] != want[2] {
		t.Fatalf("hits %v, want %v", hits, want)
	}
}

func TestZeroDelayRunsAfterQueuedSameCycle(t *testing.T) {
	e, d, fired := single()
	d.After(0, 0, 1, 0)
	d.After(0, 0, 2, 0)
	e.Run()
	if got := *fired; got[0] != 1 || got[1] != 2 {
		t.Fatalf("order %v", got)
	}
}

func TestClockMonotone(t *testing.T) {
	e := New(1)
	d := e.Domain(0)
	last := uint64(0)
	d.Bind(sinkFunc(func(uint8, uint64, uint64) {
		if d.Now() < last {
			t.Fatal("clock went backwards")
		}
		last = d.Now()
	}))
	for i := 0; i < 100; i++ {
		d.After(uint64(i%7), 0, 0, 0)
	}
	e.Run()
}

func TestSendZeroDelayPanics(t *testing.T) {
	e := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Send with delay 0 should panic: cross-domain interactions take at least one cycle")
		}
	}()
	e.Domain(0).Send(e.Domain(1), 0, 0, 0, 0)
}

// TestHeapOrdering drives one domain through interleaved pushes and pops
// via the public API and checks canonical order: cycle first, then local
// events before messages, then scheduling sequence.
func TestHeapOrdering(t *testing.T) {
	e := New(2)
	var order []uint64
	e.Domain(0).Bind(sinkFunc(func(kind uint8, a, b uint64) { order = append(order, a) }))
	e.Domain(1).Bind(sinkFunc(func(kind uint8, a, b uint64) {}))
	// Same-cycle: a message scheduled *before* the locals must still fire
	// after them.
	e.Domain(1).Send(e.Domain(0), 7, 0, 100, 0)
	e.Domain(0).After(7, 0, 1, 0)
	e.Domain(0).After(7, 0, 2, 0)
	e.Domain(0).After(3, 0, 0, 0)
	e.Run()
	want := []uint64{0, 1, 2, 100}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestRunReuse runs the same engine twice and checks the clock is monotone
// and domain Now() agrees with the engine between runs.
func TestRunReuse(t *testing.T) {
	e := New(4)
	for i := 0; i < 4; i++ {
		d := e.Domain(i)
		d.Bind(sinkFunc(func(kind uint8, a, b uint64) {
			if a > 0 {
				d.Send(e.Domain((d.ID()+1)%4), 3, kind, a-1, b)
			}
		}))
	}
	e.Domain(0).After(1, 0, 10, 0)
	first := e.Run()
	if first != 31 {
		t.Fatalf("first run ended at cycle %d, want 31", first)
	}
	for i := 0; i < 4; i++ {
		if got := e.Domain(i).Now(); got != first {
			t.Fatalf("domain %d Now() = %d after run, want %d", i, got, first)
		}
	}
	e.Domain(2).After(5, 0, 4, 0)
	if second := e.Run(); second != first+5+4*3 {
		t.Fatalf("second run ended at cycle %d, want %d", second, first+5+4*3)
	}
}

// TestPacerBoundaries pins the pacer contract: the hook fires once per
// boundary, in order, exactly for the boundaries up to the last event's
// cycle, and never after any domain event at or after the boundary has
// fired.
func TestPacerBoundaries(t *testing.T) {
	e := New(3)
	var lastEvent uint64
	for i := 0; i < 3; i++ {
		d := e.Domain(i)
		d.Bind(sinkFunc(func(kind uint8, a, b uint64) {
			lastEvent = d.Now()
			if a > 0 {
				d.After(900, kind, a-1, b)
			}
		}))
	}
	var fired []uint64
	e.SetPacer(1000, func(b uint64) {
		if lastEvent >= b {
			t.Fatalf("pacer boundary %d fired after an event at cycle %d", b, lastEvent)
		}
		fired = append(fired, b)
	})
	e.Domain(0).After(10, 1, 4, 0) // events at 10, 910, 1810, 2710, 3610
	if end := e.Run(); end != 3610 {
		t.Fatalf("final cycle %d, want 3610", end)
	}
	want := []uint64{1000, 2000, 3000}
	if len(fired) != len(want) {
		t.Fatalf("pacer fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("pacer fired at %v, want %v", fired, want)
		}
	}
	// A second run continues the boundary sequence from the armed
	// position rather than re-firing old boundaries.
	fired = fired[:0]
	e.Domain(1).After(600, 1, 0, 0) // event at 4210; boundary 4000 fires
	e.Run()
	if len(fired) != 1 || fired[0] != 4000 {
		t.Fatalf("second run pacer fired at %v, want [4000]", fired)
	}
}

// TestTickerSlots pins the multi-ticker contract: slots tick independently
// at their own periods, a boundary due in several slots fires them in
// ascending slot order, and removing one slot leaves the others armed.
func TestTickerSlots(t *testing.T) {
	type firing struct {
		slot     int
		boundary uint64
	}
	runOnce := func(dropSlot0 bool) []firing {
		e := New(3)
		for i := 0; i < 3; i++ {
			d := e.Domain(i)
			d.Bind(sinkFunc(func(kind uint8, a, b uint64) {
				if a > 0 {
					d.After(700, kind, a-1, b)
				}
			}))
		}
		var fired []firing
		e.SetPacer(1000, func(b uint64) { fired = append(fired, firing{0, b}) })
		e.SetTicker(1, 1500, func(b uint64) { fired = append(fired, firing{1, b}) })
		e.SetTicker(2, 3000, func(b uint64) { fired = append(fired, firing{2, b}) })
		if dropSlot0 {
			e.SetPacer(0, nil)
		}
		e.Domain(0).After(10, 1, 5, 0) // events at 10, 710, ..., 3510
		e.Run()
		return fired
	}
	want := []firing{
		{0, 1000}, {1, 1500}, {0, 2000}, {0, 3000}, {1, 3000}, {2, 3000},
	}
	got := runOnce(false)
	if len(got) != len(want) {
		t.Fatalf("tickers fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tickers fired %v, want %v", got, want)
		}
	}
	// Removing slot 0 (the obs pacer pattern) must not disturb the other
	// slots — the regression the slot API exists to prevent.
	wantDropped := []firing{{1, 1500}, {1, 3000}, {2, 3000}}
	got = runOnce(true)
	if len(got) != len(wantDropped) {
		t.Fatalf("dropped slot 0: tickers fired %v, want %v", got, wantDropped)
	}
	for i := range wantDropped {
		if got[i] != wantDropped[i] {
			t.Fatalf("dropped slot 0: tickers fired %v, want %v", got, wantDropped)
		}
	}
}

// TestTickerDoesNotKeepRunAlive pins that an armed ticker with no queued
// events neither fires nor advances the clock.
func TestTickerDoesNotKeepRunAlive(t *testing.T) {
	e := New(1)
	fired := 0
	e.SetPacer(5, func(uint64) { fired++ })
	if got := e.Run(); got != 0 || fired != 0 {
		t.Fatalf("Run with only a ticker armed advanced to cycle %d and fired %d times", got, fired)
	}
}

// TestTickerInterleavesWithEvents pins where boundaries fall relative to
// events: every boundary up to the next event's cycle fires before that
// event — including a boundary equal to it — and boundaries after the last
// event do not fire.
func TestTickerInterleavesWithEvents(t *testing.T) {
	e, d, _ := single()
	var order []uint64
	d.Bind(sinkFunc(func(kind uint8, a, b uint64) { order = append(order, a) }))
	e.SetPacer(10, func(b uint64) { order = append(order, 1000+b) })
	d.After(20, 0, 1, 0)
	d.After(20, 0, 2, 0)
	d.After(35, 0, 3, 0)
	if got := e.Run(); got != 35 {
		t.Fatalf("final cycle %d, want 35", got)
	}
	want := []uint64{1010, 1020, 1, 2, 1030, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}
