package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.50, 50, true},
		{100, 0.90, 90, true}, // exactly ten samples beyond rank 90
		{100, 0.99, 99, false},
		{99, 0.90, 90, false}, // rank ceil(89.1) = 90 leaves nine beyond
		{1000, 0.99, 990, true},
		{19, 0.50, 10, false}, // the median of 19 has nine beyond
		{20, 0.50, 10, true},
		{1, 0.50, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if v, ok := percentile(nil, 0.5); !math.IsNaN(v) || ok {
		t.Errorf("percentile(empty) = %g, %v; want NaN, false", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	xs := []float64{5, 1, 4}
	median(xs)
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestTallyCountsFailuresAgainstAttempts(t *testing.T) {
	var tl tally
	if tl.ratio() != 0 {
		t.Fatalf("empty tally ratio = %g", tl.ratio())
	}
	tl.ok(6)
	tl.fail(2, "first %d", 1)
	tl.check(1, false, "second")
	tl.check(1, true, "never")
	if tl.attempted != 10 || tl.failed != 3 {
		t.Fatalf("attempted, failed = %d, %d; want 10, 3", tl.attempted, tl.failed)
	}
	if tl.ratio() != 0.3 {
		t.Errorf("ratio = %g, want 0.3", tl.ratio())
	}
	if tl.firstErr != "first 1" {
		t.Errorf("firstErr = %q, want the first failure's reason", tl.firstErr)
	}
}

func TestResultLine(t *testing.T) {
	r := &report{metrics: map[string]float64{"a": 1.5, "b": 2}}
	want := []metricDef{{"a", "ms"}, {"b", "s"}}
	if _, err := resultLine(r, want); err == nil {
		t.Error("no attempted operation accepted")
	}
	r.ok(3)
	r.fail(1, "wrong")
	line, err := resultLine(r, want)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{`"correct":false`, `"attempted":4`, `"failed":1`, `"a":{"value":1.5,"unit":"ms"}`, `"b":{"value":2,"unit":"s"}`} {
		if !strings.Contains(line, part) {
			t.Errorf("result line %s lacks %s", line, part)
		}
	}
	if _, err := resultLine(r, append(want, metricDef{"c", "s"})); err == nil {
		t.Error("missing metric accepted")
	}
	r.metrics["b"] = math.NaN()
	if _, err := resultLine(r, want); err == nil {
		t.Error("NaN metric accepted")
	}
}
