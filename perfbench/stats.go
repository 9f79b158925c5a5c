package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile
// before it is reported: a tail estimate resting on fewer is noise.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie strictly beyond its rank.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= minBeyond
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally counts operations attempted and failed; a failed operation is one
// that returned an error or produced a wrong output.
type tally struct {
	attempted int
	failed    int
	firstErr  string
}

// ok records n operations that succeeded.
func (t *tally) ok(n int) { t.attempted += n }

// fail records n operations that failed for the given reason; the first
// reason is kept for the report.
func (t *tally) fail(n int, format string, args ...any) {
	t.attempted += n
	t.failed += n
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

// check records n operations that succeeded when good holds and failed
// otherwise.
func (t *tally) check(n int, good bool, format string, args ...any) {
	if good {
		t.ok(n)
	} else {
		t.fail(n, format, args...)
	}
}

// ratio is failed over attempted (0 when nothing was attempted).
func (t *tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
