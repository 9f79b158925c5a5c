// Package olsc implements Orthogonal Latin Square Codes: one-step
// majority-logic decodable codes that correct t errors using 2t·m checkbits
// over m² data bits.
//
// MS-ECC (Chishti et al., MICRO'09), one of the Killi paper's comparison
// points, protects ultra-low-voltage cache lines with OLSC because its
// majority-logic decoder is fast and its strength scales linearly with
// storage: for a 64-byte line, t=11 needs 2·11·23 = 506 checkbits — about
// half the line size, which is exactly MS-ECC's "sacrifice 50 % of cache
// capacity" design point. Killi §5.5 reuses the same code inside the ECC
// cache to chase lower Vmin.
//
// Construction: data bits occupy an m×m grid (m prime), data bit i·m+j in
// row i, column j. Parity-check family 0 sums rows, family 1 sums columns,
// and family f ≥ 2 sums the cells on which the Latin square
// L_{f-1}(i,j) = (f-1)·i + j (mod m) is constant. For prime m these squares
// are mutually orthogonal, so any two groups from different families share
// exactly one cell; each data bit is checked by 2t groups that are
// otherwise disjoint, enabling one-step majority decoding: a bit is flipped
// iff more than t of its 2t checks fail.
//
// The kernel works on whole grid rows, each one m-bit word. Cell (i,j)
// lies in group (f-1)·i+j of family f ≥ 1, so family f's m parity bits are
// the XOR over rows i of row i rotated left by (f-1)·i mod m (family 1 is
// the plain XOR of the rows), and family 0's bit i is row i's parity. The
// majority vote runs the same map backwards: row i's votes are its
// family-0 syndrome bit plus each family's syndrome rotated right by the
// same amount, summed bit-sliced into counter planes and compared against
// t with bitwise logic.
package olsc

import (
	"fmt"
	"math/bits"

	"killi/internal/bitvec"
)

// MaxStrength is the largest correction strength New accepts. At t=31 the
// cache line's grid prime is 61, so every row of every accepted line code
// fits one 64-bit word.
const MaxStrength = 31

// Status classifies a decode outcome.
type Status int

const (
	// OK: no error detected.
	OK Status = iota
	// Corrected: all errors were corrected by majority logic.
	Corrected
	// DetectedUncorrectable: errors remain after the correction pass.
	DetectedUncorrectable
)

// String returns a short human-readable status name.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case DetectedUncorrectable:
		return "detected-uncorrectable"
	default:
		return fmt.Sprintf("olsc.Status(%d)", int(s))
	}
}

// Result reports a decode outcome.
type Result struct {
	Status Status
	// DataBitsCorrected is the number of data bits the majority vote
	// flipped. The flips are applied to the data only when Status is
	// Corrected.
	DataBitsCorrected int
	// CheckGroupErrors counts residual parity-group mismatches attributed
	// to checkbit errors.
	CheckGroupErrors int
}

// Code is an OLS code over k data bits correcting up to t errors. A Code is
// immutable and safe for concurrent use. The zero value is unusable;
// construct with New.
type Code struct {
	k, t, m int
	// rows is the number of grid rows holding data bits: ⌈k/m⌉.
	rows int
	// rowMask keeps a row's m bits; lastMask keeps the data bits of the
	// last, possibly partial, row.
	rowMask, lastMask uint64
	// rot[i*2t+f] is row i's rotation for family f ≥ 1: (f-1)·i mod m.
	rot []uint8
}

// New returns an OLS code for k data bits correcting t errors. The grid
// size m is the smallest prime with m² ≥ k and m+1 ≥ 2t. It panics on
// non-positive parameters, on t > MaxStrength, and when a grid row would
// not fit one 64-bit word.
func New(k, t int) *Code {
	if k <= 0 || t <= 0 {
		panic("olsc: k and t must be positive")
	}
	if t > MaxStrength {
		panic(fmt.Sprintf("olsc: strength %d exceeds %d", t, MaxStrength))
	}
	m := choosePrime(k, t)
	if m > 64 {
		panic(fmt.Sprintf("olsc: k=%d needs %d-bit grid rows, more than 64", k, m))
	}
	c := &Code{k: k, t: t, m: m, rows: (k + m - 1) / m}
	c.rowMask = 1<<uint(m) - 1
	c.lastMask = c.rowMask
	if last := k - (c.rows-1)*m; last < m {
		c.lastMask = 1<<uint(last) - 1
	}
	nf := 2 * t
	c.rot = make([]uint8, c.rows*nf)
	for i := 0; i < c.rows; i++ {
		for f := 1; f < nf; f++ {
			c.rot[i*nf+f] = uint8((f - 1) * i % m)
		}
	}
	return c
}

// NewLine returns the cache-line instantiation over 512 data bits.
// NewLine(11) is the MS-ECC configuration (506 checkbits).
func NewLine(t int) *Code { return New(bitvec.LineBits, t) }

// choosePrime returns the smallest prime m with m*m >= k and m+1 >= 2t.
func choosePrime(k, t int) int {
	m := 2
	for m*m < k || m+1 < 2*t {
		m++
	}
	for !isPrime(m) {
		m++
	}
	return m
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// DataBits returns k.
func (c *Code) DataBits() int { return c.k }

// T returns the correction strength.
func (c *Code) T() int { return c.t }

// M returns the grid dimension (a prime).
func (c *Code) M() int { return c.m }

// CheckBits returns the number of checkbits: 2·t·m.
func (c *Code) CheckBits() int { return 2 * c.t * c.m }

// Encode returns the checkbit vector: bit f·m+g is the even parity of
// group g in family f.
func (c *Code) Encode(data *bitvec.Vector) *bitvec.Vector {
	if data.Len() != c.k {
		panic(fmt.Sprintf("olsc: Encode data width %d, want %d", data.Len(), c.k))
	}
	return c.encode(data.Words())
}

// EncodeLine is Encode for the 512-bit line code.
func (c *Code) EncodeLine(l bitvec.Line) *bitvec.Vector {
	c.mustBeLine()
	return c.encode(l[:])
}

func (c *Code) encode(data []uint64) *bitvec.Vector {
	var fam [2 * MaxStrength]uint64
	c.families(data, &fam)
	check := bitvec.NewVector(c.CheckBits())
	words := check.Words()
	for f, p := range fam[:2*c.t] {
		xorField(words, f*c.m, p)
	}
	return check
}

// Decode corrects data in place by one-step majority logic, then verifies.
// Up to t data-bit errors are always corrected; residual parity mismatches
// that cannot be attributed to checkbit errors within the t budget are
// reported as DetectedUncorrectable, and data is then left unchanged.
func (c *Code) Decode(data *bitvec.Vector, check *bitvec.Vector) Result {
	if data.Len() != c.k {
		panic(fmt.Sprintf("olsc: Decode data width %d, want %d", data.Len(), c.k))
	}
	return c.decode(data.Words(), check)
}

// DecodeLine is Decode for the 512-bit line code, correcting l in place.
// It does not allocate.
func (c *Code) DecodeLine(l *bitvec.Line, check *bitvec.Vector) Result {
	c.mustBeLine()
	return c.decode(l[:], check)
}

func (c *Code) mustBeLine() {
	if c.k != bitvec.LineBits {
		panic(fmt.Sprintf("olsc: line codec call on a %d-bit code", c.k))
	}
}

func (c *Code) decode(data []uint64, check *bitvec.Vector) Result {
	if check.Len() != c.CheckBits() {
		panic(fmt.Sprintf("olsc: Decode check width %d, want %d", check.Len(), c.CheckBits()))
	}
	nf, m := 2*c.t, c.m
	var syn [2 * MaxStrength]uint64
	c.families(data, &syn)
	ck := check.Words()
	failing := 0 // families with at least one failed group
	for f := 0; f < nf; f++ {
		syn[f] ^= field(ck, f*m, m)
		if syn[f] != 0 {
			failing++
		}
	}
	if failing == 0 {
		return Result{Status: OK}
	}
	// Majority vote. A bit's votes come from distinct families, so with
	// at most t failing families no bit can collect more than t.
	var flips [64]uint64
	res := Result{}
	if failing > c.t {
		for i := 0; i < c.rows; i++ {
			flips[i] = c.majority(&syn, i)
		}
		flips[c.rows-1] &= c.lastMask
		// Fold the flips into the syndrome: what remains is the syndrome
		// of the corrected data.
		for i, flip := range flips[:c.rows] {
			if flip == 0 {
				continue
			}
			res.DataBitsCorrected += bits.OnesCount64(flip)
			syn[0] ^= uint64(bits.OnesCount64(flip)&1) << uint(i)
			rot := c.rot[i*nf : i*nf+nf]
			for f := 1; f < nf; f++ {
				syn[f] ^= c.rotl(flip, rot[f])
			}
		}
	}
	// Remaining single-group mismatches are checkbit errors; they are
	// tolerable while the total error count stays ≤ t.
	for _, s := range syn[:nf] {
		res.CheckGroupErrors += bits.OnesCount64(s)
	}
	if res.CheckGroupErrors != 0 && res.DataBitsCorrected+res.CheckGroupErrors > c.t {
		res.Status = DetectedUncorrectable
		return res
	}
	res.Status = Corrected
	for i, flip := range flips[:c.rows] {
		if flip != 0 {
			xorField(data, i*m, flip)
		}
	}
	return res
}

// families sets fam[f] to the m parity bits of family f over data.
func (c *Code) families(data []uint64, fam *[2 * MaxStrength]uint64) {
	nf, m := 2*c.t, c.m
	for i := 0; i < c.rows; i++ {
		row := field(data, i*m, m)
		if i == c.rows-1 {
			row &= c.lastMask
		}
		if row == 0 {
			continue
		}
		fam[0] ^= uint64(bits.OnesCount64(row)&1) << uint(i)
		rot := c.rot[i*nf : i*nf+nf]
		for f := 1; f < nf; f++ {
			fam[f] ^= c.rotl(row, rot[f])
		}
	}
}

// majority returns the bits of row i that more than t of their 2t parity
// groups flag as failed.
func (c *Code) majority(syn *[2 * MaxStrength]uint64, i int) uint64 {
	nf := 2 * c.t
	// Bit-sliced vote counters: bit j of plane b is bit b of column j's
	// count. 2t ≤ 62 votes fit six planes.
	var plane [6]uint64
	plane[0] = -(syn[0] >> uint(i) & 1) & c.rowMask
	rot := c.rot[i*nf : i*nf+nf]
	for f := 1; f < nf; f++ {
		v := c.rotr(syn[f], rot[f])
		for b := 0; v != 0; b++ {
			carry := plane[b] & v
			plane[b] ^= v
			v = carry
		}
	}
	// count > t, most significant plane first.
	gt, eq := uint64(0), c.rowMask
	for b := len(plane) - 1; b >= 0; b-- {
		if c.t>>uint(b)&1 == 1 {
			eq &= plane[b]
		} else {
			gt |= eq & plane[b]
			eq &^= plane[b]
		}
	}
	return gt
}

// rotl rotates an m-bit row left by s < m.
func (c *Code) rotl(x uint64, s uint8) uint64 {
	return (x<<s | x>>(uint8(c.m)-s)) & c.rowMask
}

// rotr rotates an m-bit row right by s < m.
func (c *Code) rotr(x uint64, s uint8) uint64 {
	return (x>>s | x<<(uint8(c.m)-s)) & c.rowMask
}

// field returns the width bits of words starting at bit off; bits past the
// end of words read as zero.
func field(words []uint64, off, width int) uint64 {
	w, sh := off>>6, uint(off&63)
	v := words[w] >> sh
	if sh+uint(width) > 64 && w+1 < len(words) {
		v |= words[w+1] << (64 - sh)
	}
	return v & (1<<uint(width) - 1)
}

// xorField XORs v into words at bit off. v's set bits must lie inside
// words.
func xorField(words []uint64, off int, v uint64) {
	w, sh := off>>6, uint(off&63)
	words[w] ^= v << sh
	if sh != 0 && v>>(64-sh) != 0 {
		words[w+1] ^= v >> (64 - sh)
	}
}
