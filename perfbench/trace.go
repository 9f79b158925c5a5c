package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans form trees through Parent (0
// marks a root); Op names the die, cell or request the call served, so all
// spans of one operation share it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// setupSpan names the root span of set-up work; it is not an operation,
// so coverage leaves it out.
const setupSpan = "setup"

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the replay code runs unchanged with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, op string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in ns: its duration less the
// part of its interval that its children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok {
			kids[p] = append(kids[p], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, kids[i])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) int64 {
	sort.Slice(children, func(a, b int) bool { return children[a].Start < children[b].Start })
	var total, curStart, curEnd int64
	open := false
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi <= lo {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = lo, hi, true
		case lo <= curEnd:
			curEnd = max(curEnd, hi)
		default:
			total += curEnd - curStart
			curStart, curEnd = lo, hi
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// layerTime is the summed self time and call count of one span name.
type layerTime struct {
	calls  int
	selfNs int64
}

// msPerCall is the mean self time per call in ms (0 without calls).
func (l layerTime) msPerCall() float64 { return l.msPer(l.calls) }

// msPer is the summed self time divided over n units, in ms.
func (l layerTime) msPer(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(l.selfNs) / 1e6 / float64(n)
}

// traceSummary is the per-layer view of a traced run.
type traceSummary struct {
	layers map[string]layerTime
	// coverage is the share of operation-span time (every root except
	// set-up) that child layer spans account for.
	coverage float64
}

func summarize(spans []span) traceSummary {
	self := selfTimes(spans)
	sum := traceSummary{layers: map[string]layerTime{}}
	var rootDur, rootSelf int64
	for i, s := range spans {
		l := sum.layers[s.Name]
		l.calls++
		l.selfNs += self[i]
		sum.layers[s.Name] = l
		if s.Parent == 0 && s.Name != setupSpan {
			rootDur += s.End - s.Start
			rootSelf += self[i]
		}
	}
	if rootDur > 0 {
		sum.coverage = 1 - float64(rootSelf)/float64(rootDur)
	}
	return sum
}
