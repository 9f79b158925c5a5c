// Package secded implements a Single Error Correction, Double Error
// Detection code as an extended Hamming code over an arbitrary number of
// data bits.
//
// For a 512-bit cache line the code uses 10 Hamming checkbits plus one
// overall (global) parity bit — 11 checkbits protecting 523 total bits,
// exactly the configuration in the Killi paper (§4.1).
//
// The decoder additionally exposes the raw syndrome and global parity,
// because Killi's DFH state machine (paper Table 2) keys on the
// (segmented parity, syndrome, global parity) triple rather than on a
// packaged correct/detect verdict.
package secded

import (
	"fmt"
	"math/bits"
	"sync"

	"killi/internal/bitvec"
)

// Status classifies the outcome of a decode.
type Status int

const (
	// OK: no error detected.
	OK Status = iota
	// CorrectedData: a single-bit error in the data was corrected.
	CorrectedData
	// CorrectedCheck: a single-bit error in a checkbit was corrected
	// (the data is intact).
	CorrectedCheck
	// DetectedUncorrectable: a double-bit (or detectable multi-bit) error
	// was found; the data cannot be trusted.
	DetectedUncorrectable
)

// String returns a short human-readable name for the status.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case CorrectedData:
		return "corrected-data"
	case CorrectedCheck:
		return "corrected-check"
	case DetectedUncorrectable:
		return "detected-uncorrectable"
	default:
		return fmt.Sprintf("secded.Status(%d)", int(s))
	}
}

// Result reports the outcome of a decode.
type Result struct {
	Status Status
	// BitFlipped is the data-bit index that was corrected when Status is
	// CorrectedData, else -1.
	BitFlipped int
	// Syndrome is the raw Hamming syndrome (0 means all parity checks
	// passed). GlobalParityError reports whether the overall parity over
	// data and checkbits mismatched.
	Syndrome          uint32
	GlobalParityError bool
}

// Code is a SECDED code for a fixed number of data bits. A Code is
// immutable and safe for concurrent use. The zero value is unusable;
// construct with New, or use the shared line code from Line.
type Code struct {
	k       int   // data bits
	hamming int   // Hamming checkbits (excluding global parity)
	dataPos []int // codeword position (1-based) of each data bit
	// posData[pos] is the data-bit index at codeword position pos, or -1
	// for a checkbit position.
	posData []int32
	// lanes is the shared byte-lane table of the 512-bit code (nil for
	// other widths); see lineLanes.
	lanes *laneTable
}

// laneTable maps each of a line's 64 bytes (its lane) and each byte value
// to the XOR of the codeword positions of the value's set bits, with the
// byte's parity in bit 15. Because the Hamming checkbits of a word are the
// XOR of the positions of its set data bits, XORing one entry per lane
// yields every checkbit at once in the low bits and the data parity in
// bit 15: 64 lookups in a 32 KiB table instead of a popcount per
// checkbit.
type laneTable [bitvec.LineBits / 8][256]uint16

// laneParity is the bit of a laneTable entry holding the data parity.
const laneParity = 1 << 15

// lineLanes is built once per process, on first use of a 512-bit code.
var lineLanes = sync.OnceValue(func() *laneTable {
	var t laneTable
	_, pos := layout(bitvec.LineBits)
	for lane := range t {
		for v := 1; v < 256; v++ {
			low := bits.TrailingZeros(uint(v))
			t[lane][v] = t[lane][v&(v-1)] ^ uint16(pos[lane*8+low]) ^ laneParity
		}
	}
	return &t
})

// line is the shared 512-bit code returned by Line.
var line = sync.OnceValue(func() *Code { return New(bitvec.LineBits) })

// Line returns the shared SECDED code over a 512-bit cache line (the
// paper's 11-checkbit configuration), built once per process.
func Line() *Code { return line() }

// New returns a SECDED code over k data bits. It panics if k <= 0.
func New(k int) *Code {
	if k <= 0 {
		panic("secded: data width must be positive")
	}
	r, dataPos := layout(k)
	c := &Code{k: k, hamming: r, dataPos: dataPos}
	c.posData = make([]int32, dataPos[k-1]+1)
	for pos := range c.posData {
		c.posData[pos] = -1
	}
	for i, pos := range dataPos {
		c.posData[pos] = int32(i)
	}
	if k == bitvec.LineBits {
		c.lanes = lineLanes()
	}
	return c
}

// layout returns the Hamming checkbit count r of a k-bit code — the
// smallest r with 2^r >= k + r + 1 — and each data bit's codeword position:
// the 1-based positions that are not powers of two, in order.
func layout(k int) (r int, dataPos []int) {
	r = 1
	for (1 << uint(r)) < k+r+1 {
		r++
	}
	dataPos = make([]int, 0, k)
	for pos := 1; len(dataPos) < k; pos++ {
		if pos&(pos-1) != 0 { // not a power of two: a data slot
			dataPos = append(dataPos, pos)
		}
	}
	return r, dataPos
}

// DataBits returns the number of data bits the code protects.
func (c *Code) DataBits() int { return c.k }

// CheckBits returns the total number of checkbits, including the global
// parity bit (11 for k=512).
func (c *Code) CheckBits() int { return c.hamming + 1 }

// CodewordBits returns the total protected width: data + checkbits.
func (c *Code) CodewordBits() int { return c.k + c.CheckBits() }

// Check is the stored checkbit container: the Hamming checkbits in Bits'
// low bits (bit j is the checkbit at codeword position 2^j) and the global
// parity in Global.
type Check struct {
	Bits   uint32
	Global uint
}

// Encode computes the checkbits for the given data bits. The data vector
// must be exactly DataBits wide.
func (c *Code) Encode(data *bitvec.Vector) Check {
	if data.Len() != c.k {
		panic(fmt.Sprintf("secded: Encode data width %d, want %d", data.Len(), c.k))
	}
	// Checkbit j is the parity of the data bits whose position has bit j
	// set, so the checkbits are the XOR of the set bits' positions.
	var pos uint32
	ones := 0
	for w, word := range data.Words() {
		ones += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			pos ^= uint32(c.dataPos[w*64+bits.TrailingZeros64(word)])
		}
	}
	return withGlobal(pos, uint(ones))
}

// withGlobal completes a check from its Hamming bits and the data parity:
// the global bit makes the whole codeword — data, Hamming checkbits and
// the global bit itself — even.
func withGlobal(hamming uint32, dataParity uint) Check {
	return Check{Bits: hamming, Global: (dataParity ^ uint(bits.OnesCount32(hamming))) & 1}
}

// lineXor XORs l's lane-table entries: the Hamming checkbits of l in the
// low bits and its data parity in laneParity. It panics if the code is not
// 512 bits wide.
func (c *Code) lineXor(l *bitvec.Line) uint16 {
	t := c.lanes
	if t == nil {
		panic("secded: line codec call on a non-512-bit code")
	}
	var acc uint16
	for w, x := range l {
		lane := t[w*8 : w*8+8 : w*8+8]
		acc ^= lane[0][uint8(x)] ^ lane[1][uint8(x>>8)] ^ lane[2][uint8(x>>16)] ^ lane[3][uint8(x>>24)] ^
			lane[4][uint8(x>>32)] ^ lane[5][uint8(x>>40)] ^ lane[6][uint8(x>>48)] ^ lane[7][uint8(x>>56)]
	}
	return acc
}

// EncodeLine is Encode for the 512-bit code, on a cache line. It panics if
// the code is not 512 bits wide.
func (c *Code) EncodeLine(l bitvec.Line) Check {
	acc := c.lineXor(&l)
	return withGlobal(uint32(acc&^laneParity), uint(acc>>15))
}

// Syndrome returns the raw Hamming syndrome (recomputed data parities XOR
// the stored checkbits) and whether the global parity over the received
// codeword — data bits, stored Hamming checkbits, and the stored global
// bit — is odd. A zero syndrome with even global parity means no detectable
// error.
//
// Note the global check runs over the *received* codeword; recomputing
// fresh checkbits for it would let a data-bit flip cancel against the
// checkbit flips it induces.
func (c *Code) Syndrome(data *bitvec.Vector, stored Check) (syndrome uint32, globalErr bool) {
	fresh := c.Encode(data)
	return fresh.Bits ^ stored.Bits, receivedParityOdd(uint(data.PopCount()), stored)
}

// SyndromeLine is Syndrome for 512-bit codes operating on a cache line.
func (c *Code) SyndromeLine(l bitvec.Line, stored Check) (syndrome uint32, globalErr bool) {
	acc := c.lineXor(&l)
	return uint32(acc&^laneParity) ^ stored.Bits, receivedParityOdd(uint(acc>>15), stored)
}

// receivedParityOdd reports whether the received codeword (data bits of
// the given parity plus the stored checkbits and global bit) has odd
// parity.
func receivedParityOdd(dataParity uint, stored Check) bool {
	return (dataParity^uint(bits.OnesCount32(stored.Bits))^stored.Global)&1 == 1
}

// Decode checks data against the stored checkbits, correcting data in place
// when a single-bit data error is found.
//
// SECDED semantics with an extended Hamming code:
//
//	syndrome == 0, global ok   → no error
//	syndrome != 0, global bad  → single error; correct it
//	syndrome != 0, global ok   → double error; detected, uncorrectable
//	syndrome == 0, global bad  → error in the global parity bit itself
func (c *Code) Decode(data *bitvec.Vector, stored Check) Result {
	res := c.classify(c.Syndrome(data, stored))
	if res.Status == CorrectedData {
		data.FlipBit(res.BitFlipped)
	}
	return res
}

// DecodeLine is Decode for 512-bit codes operating on a cache line. It
// does not allocate.
func (c *Code) DecodeLine(l *bitvec.Line, stored Check) Result {
	res := c.classify(c.SyndromeLine(*l, stored))
	if res.Status == CorrectedData {
		l.FlipBit(res.BitFlipped)
	}
	return res
}

// classify maps a syndrome and global parity error to a decode verdict.
func (c *Code) classify(syndrome uint32, globalErr bool) Result {
	res := Result{BitFlipped: -1, Syndrome: syndrome, GlobalParityError: globalErr}
	switch {
	case syndrome == 0 && !globalErr:
		res.Status = OK
	case syndrome == 0 && globalErr:
		// The global parity bit itself flipped; data and Hamming bits fine.
		res.Status = CorrectedCheck
	case syndrome != 0 && globalErr:
		pos := int(syndrome)
		switch {
		case pos < len(c.posData) && c.posData[pos] >= 0:
			res.Status = CorrectedData
			res.BitFlipped = int(c.posData[pos])
		case pos&(pos-1) == 0 && pos < 1<<uint(c.hamming):
			// A stored Hamming checkbit flipped.
			res.Status = CorrectedCheck
		default:
			// Syndrome points outside the codeword: ≥3 errors aliasing.
			res.Status = DetectedUncorrectable
		}
	default: // syndrome != 0 && !globalErr
		res.Status = DetectedUncorrectable
	}
	return res
}
