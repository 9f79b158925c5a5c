package ecc

import (
	"sync"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/ecc/olsc"
	"killi/internal/xrand"
)

func randomLine(r *xrand.Rand) bitvec.Line {
	var l bitvec.Line
	for w := range l {
		l[w] = r.Uint64()
	}
	return l
}

func allCodecs() []Codec {
	return []Codec{SECDED(), DECTED(), TECQED(), SixEC7ED(), OLSC(11)}
}

func TestCheckBitCounts(t *testing.T) {
	want := map[string]int{
		"secded":  11,
		"dected":  21,
		"tecqed":  31,
		"6ec7ed":  61,
		"olsc-11": 506,
	}
	for _, c := range allCodecs() {
		if got := c.CheckBits(); got != want[c.Name()] {
			t.Errorf("%s: CheckBits = %d, want %d", c.Name(), got, want[c.Name()])
		}
	}
}

func TestCorrectionStrengths(t *testing.T) {
	want := map[string]int{"secded": 1, "dected": 2, "tecqed": 3, "6ec7ed": 6, "olsc-11": 11}
	for _, c := range allCodecs() {
		if got := c.CorrectsUpTo(); got != want[c.Name()] {
			t.Errorf("%s: CorrectsUpTo = %d, want %d", c.Name(), got, want[c.Name()])
		}
	}
}

func TestRoundTripClean(t *testing.T) {
	r := xrand.New(1)
	for _, c := range allCodecs() {
		for trial := 0; trial < 5; trial++ {
			l := randomLine(r)
			check := c.Encode(l)
			if check.Bits() == 0 {
				t.Fatalf("%s: empty check", c.Name())
			}
			cpy := l
			if out := c.Decode(&cpy, check); out.Status != OK || cpy != l {
				t.Fatalf("%s: clean decode %v", c.Name(), out.Status)
			}
		}
	}
}

func TestCorrectAtFullStrength(t *testing.T) {
	r := xrand.New(2)
	for _, c := range allCodecs() {
		tcap := c.CorrectsUpTo()
		for trial := 0; trial < 5; trial++ {
			l := randomLine(r)
			check := c.Encode(l)
			bad := l
			for _, b := range r.Sample(bitvec.LineBits, tcap) {
				bad.FlipBit(b)
			}
			out := c.Decode(&bad, check)
			if out.Status != Corrected || bad != l {
				t.Fatalf("%s: %d errors not corrected (%v)", c.Name(), tcap, out.Status)
			}
			if out.DataBitsCorrected != tcap {
				t.Fatalf("%s: corrected %d, want %d", c.Name(), out.DataBitsCorrected, tcap)
			}
		}
	}
}

func TestDetectBeyondStrength(t *testing.T) {
	// One error past the correction capability must never return OK and
	// must not be silently miscorrected for codes that guarantee t+1
	// detection.
	r := xrand.New(3)
	for _, c := range []Codec{SECDED(), DECTED(), TECQED()} {
		e := c.CorrectsUpTo() + 1
		for trial := 0; trial < 20; trial++ {
			l := randomLine(r)
			check := c.Encode(l)
			bad := l
			for _, b := range r.Sample(bitvec.LineBits, e) {
				bad.FlipBit(b)
			}
			out := c.Decode(&bad, check)
			if out.Status == OK {
				t.Fatalf("%s: %d errors decoded as OK", c.Name(), e)
			}
			if out.Status == Corrected && bad != l {
				t.Fatalf("%s: %d errors miscorrected", c.Name(), e)
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"secded", "dected", "tecqed", "6ec7ed", "olsc-11", "olsc-3"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, c.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown codec did not error")
	}
	if _, err := ByName("olsc-0"); err == nil {
		t.Fatal("olsc-0 did not error")
	}
}

// TestByNameIsStrict accepts only canonical names: the input must be
// exactly the resolved codec's Name, and OLSC strengths are bounded.
func TestByNameIsStrict(t *testing.T) {
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"olsc-1", true},
		{"olsc-11", true},
		{"olsc-31", true},
		{"olsc-32", false},
		{"olsc-100000", false},
		{"olsc-11x", false},
		{"olsc-+11", false},
		{"olsc- 11", false},
		{"olsc-011", false},
		{"olsc--11", false},
		{"olsc-", false},
		{"olsc11", false},
		{"OLSC-11", false},
		{"secded ", false},
		{" dected", false},
		{"", false},
	} {
		codec, err := ByName(c.name)
		if (err == nil) != c.ok {
			t.Errorf("ByName(%q): err = %v, want ok=%v", c.name, err, c.ok)
		}
		if err == nil && codec.Name() != c.name {
			t.Errorf("ByName(%q) resolved %q", c.name, codec.Name())
		}
	}
}

func TestOLSCStrengthBound(t *testing.T) {
	for _, tt := range []int{0, olsc.MaxStrength + 1, 100000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("OLSC(%d) did not panic", tt)
				}
			}()
			OLSC(tt)
		}()
	}
}

// TestBCHCorrectsRandomPatternsWithinStrength checks the BCH codes'
// promise on random patterns of every weight up to t.
func TestBCHCorrectsRandomPatternsWithinStrength(t *testing.T) {
	r := xrand.New(5)
	for _, c := range []Codec{DECTED(), TECQED()} {
		for trial := 0; trial < 200; trial++ {
			l := randomLine(r)
			check := c.Encode(l)
			bad := l
			e := 1 + r.Intn(c.CorrectsUpTo())
			for _, b := range r.Sample(bitvec.LineBits, e) {
				bad.FlipBit(b)
			}
			if out := c.Decode(&bad, check); out.Status != Corrected || bad != l || out.DataBitsCorrected != e {
				t.Fatalf("%s: %d errors gave %+v, restored=%v", c.Name(), e, out, bad == l)
			}
		}
	}
}

// TestSharedCodecsConcurrent drives the shared codec instances from many
// goroutines at once and compares every outcome with a serial run. Under
// the race detector this fails if a shared codec ever holds scratch
// state.
func TestSharedCodecsConcurrent(t *testing.T) {
	codecs := []Codec{SECDED(), OLSC(11), DECTED()}
	type job struct {
		codec int
		line  bitvec.Line
		flips []int
	}
	type result struct {
		out  Outcome
		line bitvec.Line
	}
	r := xrand.New(6)
	var jobs []job
	for i := 0; i < 60; i++ {
		c := i % len(codecs)
		jobs = append(jobs, job{c, randomLine(r), r.Sample(bitvec.LineBits, r.Intn(codecs[c].CorrectsUpTo()+2))})
	}
	run := func(j job) result {
		c := codecs[j.codec]
		check := c.Encode(j.line)
		l := j.line
		for _, b := range j.flips {
			l.FlipBit(b)
		}
		return result{c.Decode(&l, check), l}
	}
	want := make([]result, len(jobs))
	for i, j := range jobs {
		want[i] = run(j)
	}
	const workers = 8
	got := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]result, len(jobs))
			// Each worker walks the jobs from a different start so that
			// different codecs run concurrently.
			for n := range jobs {
				i := (n + w*7) % len(jobs)
				got[w][i] = run(jobs[i])
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range jobs {
			if got[w][i] != want[i] {
				t.Fatalf("worker %d job %d (%s): %+v, serial %+v", w, i, codecs[jobs[i].codec].Name(), got[w][i].out, want[i].out)
			}
		}
	}
}

func TestSingletonsAreReused(t *testing.T) {
	if SECDED() != SECDED() || DECTED() != DECTED() || OLSC(11) != OLSC(11) {
		t.Fatal("codec singletons not reused")
	}
}

func TestStatusString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" || Detected.String() != "detected" {
		t.Fatal("status names wrong")
	}
	if Status(5).String() != "ecc.Status(5)" {
		t.Fatal("unknown status formatting wrong")
	}
}

func BenchmarkSECDEDEncodeDecode(b *testing.B) {
	c := SECDED()
	l := randomLine(xrand.New(4))
	check := c.Encode(l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cpy := l
		cpy.FlipBit(100)
		_ = c.Decode(&cpy, check)
	}
}
