package olsc

import (
	"sync"
	"testing"

	"killi/internal/bitvec"
	"killi/internal/xrand"
)

func randomVector(r *xrand.Rand, n int) *bitvec.Vector {
	v := bitvec.NewVector(n)
	for i := 0; i < n; i++ {
		v.SetBit(i, uint(r.Uint64()&1))
	}
	return v
}

func TestMSECCConfiguration(t *testing.T) {
	// MS-ECC: correct up to 11 errors in a 64B line, costing about half
	// the line in checkbits.
	c := NewLine(11)
	if c.M() != 23 {
		t.Fatalf("m = %d, want 23 (smallest prime with m²≥512, m+1≥22)", c.M())
	}
	if c.CheckBits() != 506 {
		t.Fatalf("checkbits = %d, want 506", c.CheckBits())
	}
}

func TestOrthogonality(t *testing.T) {
	// Any two groups from different families must share at most one data
	// bit — the property that makes one-step majority decoding sound.
	c := newRef(512, 4)
	for f1 := range c.groups {
		for f2 := f1 + 1; f2 < len(c.groups); f2++ {
			for _, g1 := range c.groups[f1] {
				for _, g2 := range c.groups[f2] {
					shared := 0
					inG2 := make(map[int]bool, len(g2))
					for _, idx := range g2 {
						inG2[idx] = true
					}
					for _, idx := range g1 {
						if inG2[idx] {
							shared++
						}
					}
					if shared > 1 {
						t.Fatalf("families %d,%d share %d bits in one group pair", f1, f2, shared)
					}
				}
			}
		}
	}
}

func TestEachBitHas2TGroups(t *testing.T) {
	c := newRef(512, 11)
	for idx, groups := range c.bitGroups {
		if len(groups) != 2*c.t {
			t.Fatalf("bit %d covered by %d groups, want %d", idx, len(groups), 2*c.t)
		}
	}
}

func TestCleanDecode(t *testing.T) {
	c := NewLine(11)
	r := xrand.New(1)
	for trial := 0; trial < 20; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		if res := c.Decode(data, check); res.Status != OK {
			t.Fatalf("clean decode: %v", res.Status)
		}
	}
}

func TestCorrectUpToT(t *testing.T) {
	for _, tt := range []int{1, 2, 4, 11} {
		c := NewLine(tt)
		r := xrand.New(uint64(tt))
		for e := 1; e <= tt; e++ {
			for trial := 0; trial < 5; trial++ {
				data := randomVector(r, 512)
				check := c.Encode(data)
				orig := data.Clone()
				for _, b := range r.Sample(512, e) {
					data.FlipBit(b)
				}
				res := c.Decode(data, check)
				if res.Status != Corrected {
					t.Fatalf("t=%d e=%d: status %v", tt, e, res.Status)
				}
				if !data.Equal(orig) {
					t.Fatalf("t=%d e=%d: data not restored", tt, e)
				}
			}
		}
	}
}

func TestCheckbitErrorsTolerated(t *testing.T) {
	c := NewLine(11)
	r := xrand.New(2)
	for trial := 0; trial < 20; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		orig := data.Clone()
		// A few checkbit flips plus a few data flips, total ≤ t.
		for _, b := range r.Sample(check.Len(), 3) {
			check.FlipBit(b)
		}
		for _, b := range r.Sample(512, 5) {
			data.FlipBit(b)
		}
		res := c.Decode(data, check)
		if res.Status != Corrected {
			t.Fatalf("status %v", res.Status)
		}
		if !data.Equal(orig) {
			t.Fatal("data not restored")
		}
		if res.CheckGroupErrors != 3 {
			t.Fatalf("check group errors = %d, want 3", res.CheckGroupErrors)
		}
	}
}

func TestMassiveErrorsDetected(t *testing.T) {
	// Far more errors than t must not decode as OK. (They may in rare
	// patterns miscorrect — that is inherent to any bounded-distance
	// decoder — but the common case is detection.)
	c := NewLine(4)
	r := xrand.New(3)
	detected := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		data := randomVector(r, 512)
		check := c.Encode(data)
		for _, b := range r.Sample(512, 40) {
			data.FlipBit(b)
		}
		res := c.Decode(data, check)
		if res.Status == OK {
			t.Fatal("40 errors decoded as OK")
		}
		if res.Status == DetectedUncorrectable {
			detected++
		}
	}
	if detected < trials*9/10 {
		t.Fatalf("only %d/%d massive-error patterns detected", detected, trials)
	}
}

func TestSmallCode(t *testing.T) {
	c := New(9, 1) // m=3 grid, single correction
	if c.M() != 3 || c.CheckBits() != 6 {
		t.Fatalf("m=%d check=%d", c.M(), c.CheckBits())
	}
	r := xrand.New(4)
	for trial := 0; trial < 50; trial++ {
		data := randomVector(r, 9)
		check := c.Encode(data)
		orig := data.Clone()
		data.FlipBit(r.Intn(9))
		if res := c.Decode(data, check); res.Status != Corrected || !data.Equal(orig) {
			t.Fatalf("small code: %+v", res)
		}
	}
}

func TestNonSquareK(t *testing.T) {
	// k=512 on a 23×23 grid leaves 17 unused cells; they must be
	// handled as implicit zeros.
	c := New(500, 3)
	r := xrand.New(5)
	data := randomVector(r, 500)
	check := c.Encode(data)
	orig := data.Clone()
	for _, b := range r.Sample(500, 3) {
		data.FlipBit(b)
	}
	if res := c.Decode(data, check); res.Status != Corrected || !data.Equal(orig) {
		t.Fatalf("shortened code: %+v", res)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"k=0":         func() { New(0, 1) },
		"t=0":         func() { New(9, 0) },
		"enc width":   func() { New(9, 1).Encode(bitvec.NewVector(4)) },
		"dec width":   func() { New(9, 1).Decode(bitvec.NewVector(4), bitvec.NewVector(6)) },
		"check width": func() { New(9, 1).Decode(bitvec.NewVector(9), bitvec.NewVector(7)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStatusString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" ||
		DetectedUncorrectable.String() != "detected-uncorrectable" ||
		Status(7).String() != "olsc.Status(7)" {
		t.Fatal("status names wrong")
	}
}

// Benchmark results land in package-level sinks so the compiler cannot
// drop the measured call.
var (
	resultSink Result
	checkSink  *bitvec.Vector
)

func BenchmarkDecodeMSECC(b *testing.B) {
	c := NewLine(11)
	data := randomLine(xrand.New(6))
	check := c.EncodeLine(data)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := data
		d.FlipBit(17)
		d.FlipBit(300)
		resultSink = c.DecodeLine(&d, check)
	}
}

func BenchmarkEncodeMSECC(b *testing.B) {
	c := NewLine(11)
	data := randomLine(xrand.New(7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		checkSink = c.EncodeLine(data)
	}
}

func randomLine(r *xrand.Rand) bitvec.Line {
	var l bitvec.Line
	for w := range l {
		l[w] = r.Uint64()
	}
	return l
}

// refs caches one oracle per strength: building the group masks of a
// strong code costs far more than one decode.
var refs struct {
	sync.Mutex
	byT map[int]*refCode
}

func lineRef(t int) *refCode {
	refs.Lock()
	defer refs.Unlock()
	if refs.byT == nil {
		refs.byT = map[int]*refCode{}
	}
	if refs.byT[t] == nil {
		refs.byT[t] = newRef(bitvec.LineBits, t)
	}
	return refs.byT[t]
}

// checkAgainstRef decodes data under a possibly corrupted check with the
// row kernel and with the group-mask oracle, and fails on any difference
// in status, residual check-group count, flip count or resulting data.
func checkAgainstRef(t *testing.T, c *Code, ref *refCode, data bitvec.Line, check *bitvec.Vector) Result {
	t.Helper()
	refData := bitvec.LineVector(data)
	want := ref.Decode(refData, check.Clone())
	got := data
	res := c.DecodeLine(&got, check)
	if res.Status != want.Status || res.CheckGroupErrors != want.CheckGroupErrors ||
		res.DataBitsCorrected != len(want.DataBitsFlipped) {
		t.Fatalf("t=%d: kernel %+v, reference %+v", c.T(), res, want)
	}
	// The kernel applies its flips only to a Corrected line; the oracle
	// always applies them.
	wantData := data
	if want.Status == Corrected {
		copy(wantData[:], refData.Words())
	}
	if got != wantData {
		t.Fatalf("t=%d %v: kernel data differs from the reference", c.T(), res.Status)
	}
	return res
}

// TestEncodeMatchesReference pins the row kernel's checkbits to the
// group-mask oracle's, bit for bit, including shortened and tiny grids.
func TestEncodeMatchesReference(t *testing.T) {
	r := xrand.New(8)
	for _, kt := range [][2]int{{9, 1}, {500, 3}, {512, 1}, {512, 2}, {512, 11}, {512, 17}, {512, 31}, {1000, 5}} {
		k, tt := kt[0], kt[1]
		c, ref := New(k, tt), newRef(k, tt)
		for trial := 0; trial < 20; trial++ {
			data := randomVector(r, k)
			if got, want := c.Encode(data), ref.Encode(data); !got.Equal(want) {
				t.Fatalf("k=%d t=%d: kernel checkbits differ from the reference", k, tt)
			}
		}
	}
}

// TestDecodeMatchesReference runs the kernel and the oracle over random
// data- and checkbit-flip patterns of up to 3t errors at every strength.
func TestDecodeMatchesReference(t *testing.T) {
	r := xrand.New(9)
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for tt := 1; tt <= MaxStrength; tt++ {
		c, ref := NewLine(tt), lineRef(tt)
		for trial := 0; trial < trials; trial++ {
			orig := randomLine(r)
			check := c.EncodeLine(orig)
			data := orig
			n := r.Intn(3*tt + 1)
			for _, b := range r.Sample(bitvec.LineBits+check.Len(), n) {
				if b < bitvec.LineBits {
					data.FlipBit(b)
				} else {
					check.FlipBit(b - bitvec.LineBits)
				}
			}
			checkAgainstRef(t, c, ref, data, check)
		}
	}
}

// TestCorrectsEveryRandomPatternWithinStrength is the code's promise: any
// pattern of at most t data-bit errors decodes as Corrected, with exactly
// those bits flipped back.
func TestCorrectsEveryRandomPatternWithinStrength(t *testing.T) {
	r := xrand.New(10)
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for _, tt := range []int{1, 11, 31} {
		c := NewLine(tt)
		for trial := 0; trial < trials; trial++ {
			orig := randomLine(r)
			check := c.EncodeLine(orig)
			data := orig
			e := 1 + r.Intn(tt)
			for _, b := range r.Sample(bitvec.LineBits, e) {
				data.FlipBit(b)
			}
			res := c.DecodeLine(&data, check)
			if res.Status != Corrected || data != orig || res.DataBitsCorrected != e || res.CheckGroupErrors != 0 {
				t.Fatalf("t=%d e=%d: %+v, restored=%v", tt, e, res, data == orig)
			}
		}
	}
}

// TestDetectedLeavesDataUnchanged pins the in-place contract: a line the
// code cannot correct comes back exactly as it went in.
func TestDetectedLeavesDataUnchanged(t *testing.T) {
	c := NewLine(4)
	r := xrand.New(11)
	seen := 0
	for trial := 0; trial < 50; trial++ {
		orig := randomLine(r)
		check := c.EncodeLine(orig)
		bad := orig
		for _, b := range r.Sample(bitvec.LineBits, 40) {
			bad.FlipBit(b)
		}
		data := bad
		if res := c.DecodeLine(&data, check); res.Status == DetectedUncorrectable {
			seen++
			if data != bad {
				t.Fatal("DetectedUncorrectable modified the line")
			}
		}
	}
	if seen == 0 {
		t.Fatal("no detected-uncorrectable pattern exercised")
	}
}

func TestLineDecodeAllocFree(t *testing.T) {
	c := NewLine(11)
	orig := randomLine(xrand.New(12))
	check := c.EncodeLine(orig)
	for name, flips := range map[string][]int{"clean": nil, "corrected": {3, 200, 511}} {
		allocs := testing.AllocsPerRun(100, func() {
			data := orig
			for _, b := range flips {
				data.FlipBit(b)
			}
			c.DecodeLine(&data, check)
		})
		if allocs != 0 {
			t.Errorf("%s DecodeLine: %v allocs, want 0", name, allocs)
		}
	}
}

func TestStrengthBound(t *testing.T) {
	if c := NewLine(MaxStrength); c.M() != 61 || c.CheckBits() != 2*31*61 {
		t.Fatalf("t=31: m=%d check=%d, want 61 and 3782", c.M(), c.CheckBits())
	}
	for name, fn := range map[string]func(){
		"t=32":     func() { NewLine(MaxStrength + 1) },
		"t=100000": func() { NewLine(100000) },
		"wide k":   func() { New(5000, 1) },
		"line k":   func() { New(9, 1).EncodeLine(bitvec.Line{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzOLSCMatchesReference decodes fuzzer-chosen data under fuzzer-chosen
// data and checkbit flips (up to 3t of them) with the row kernel and the
// group-mask oracle, at every strength 1..MaxStrength.
func FuzzOLSCMatchesReference(f *testing.F) {
	f.Add(uint8(11), uint64(1), []byte{0, 17, 1, 44})
	f.Add(uint8(1), uint64(2), []byte{})
	f.Add(uint8(31), uint64(3), []byte{2, 0, 2, 1, 9, 9, 0, 1, 0, 2, 0, 3})
	f.Add(uint8(4), uint64(4), []byte{0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 1, 250})
	f.Fuzz(func(t *testing.T, strength uint8, seed uint64, flips []byte) {
		tt := int(strength)%MaxStrength + 1
		c := NewLine(tt)
		orig := randomLine(xrand.New(seed))
		check := c.EncodeLine(orig)
		data := orig
		width := bitvec.LineBits + check.Len()
		for n := 0; n+1 < len(flips) && n/2 < 3*tt; n += 2 {
			b := (int(flips[n])<<8 | int(flips[n+1])) % width
			if b < bitvec.LineBits {
				data.FlipBit(b)
			} else {
				check.FlipBit(b - bitvec.LineBits)
			}
		}
		checkAgainstRef(t, c, lineRef(tt), data, check)
	})
}
