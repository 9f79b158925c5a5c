package main

import (
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "die", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 18},  // a grandchild
		{ID: 6, Parent: 1, Name: "e", Start: 40, End: 40},  // empty
	}
	got := selfTimes(spans)
	want := []int64{100 - (40 + 20), 20 - 6, 30, 40, 6, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSummarizeCoverageSkipsSetup(t *testing.T) {
	spans := []span{
		{ID: 1, Name: setupSpan, Start: 0, End: 1000},
		{ID: 2, Name: "op", Start: 0, End: 100},
		{ID: 3, Parent: 2, Name: "layer", Start: 0, End: 75},
		{ID: 4, Name: "op", Start: 100, End: 200},
		{ID: 5, Parent: 4, Name: "layer", Start: 100, End: 185},
	}
	sum := summarize(spans)
	if sum.coverage != 0.8 {
		t.Errorf("coverage = %g, want 0.8 (160 of 200 op-ns inside layers)", sum.coverage)
	}
	if l := sum.layers["layer"]; l.calls != 2 || l.selfNs != 160 || l.msPerCall() != 80e-6 {
		t.Errorf("layer = %+v (%g ms/call), want 2 calls, 160 ns", l, l.msPerCall())
	}
	if l := sum.layers["op"]; l.selfNs != 40 || l.msPer(4) != 10e-6 || l.msPer(0) != 0 {
		t.Errorf("op self = %d ns, want 40", l.selfNs)
	}
}

func TestTracerRecordsParentsAndWrites(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0, ""); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	off.end(0)

	tr := newTracer()
	root := tr.begin("die", 0, "die=1")
	child := tr.begin("gpu.run", root, "die=1")
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != "die=1" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if err := tr.write(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
}
