package secded

import (
	"math/bits"

	"killi/internal/bitvec"
)

// refLine is the column-mask line kernel the byte-lane table replaced,
// kept as the test oracle: checkbit j is the popcount parity of the line
// under a 512-bit mask of the data bits whose codeword position has bit j
// set, and correction looks the syndrome up in a position map.
type refLine struct {
	hamming int
	colMask [][bitvec.LineWords]uint64
	posData map[int]int
}

func newRefLine() *refLine {
	r, dataPos := layout(bitvec.LineBits)
	ref := &refLine{hamming: r, colMask: make([][bitvec.LineWords]uint64, r), posData: map[int]int{}}
	for i, pos := range dataPos {
		ref.posData[pos] = i
		for j := 0; j < r; j++ {
			if pos&(1<<uint(j)) != 0 {
				ref.colMask[j][i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return ref
}

func (r *refLine) EncodeLine(l bitvec.Line) Check {
	var check Check
	for j := 0; j < r.hamming; j++ {
		ones := 0
		for w := 0; w < bitvec.LineWords; w++ {
			ones += bits.OnesCount64(l[w] & r.colMask[j][w])
		}
		check.Bits |= uint32(ones&1) << uint(j)
	}
	check.Global = (uint(l.PopCount()) ^ uint(bits.OnesCount32(check.Bits))) & 1
	return check
}

func (r *refLine) SyndromeLine(l bitvec.Line, stored Check) (uint32, bool) {
	fresh := r.EncodeLine(l)
	p := uint(l.PopCount()) ^ uint(bits.OnesCount32(stored.Bits)) ^ stored.Global
	return fresh.Bits ^ stored.Bits, p&1 == 1
}

func (r *refLine) DecodeLine(l *bitvec.Line, stored Check) Result {
	syndrome, globalErr := r.SyndromeLine(*l, stored)
	res := Result{BitFlipped: -1, Syndrome: syndrome, GlobalParityError: globalErr}
	switch {
	case syndrome == 0 && !globalErr:
		res.Status = OK
	case syndrome == 0 && globalErr:
		res.Status = CorrectedCheck
	case syndrome != 0 && globalErr:
		pos := int(syndrome)
		if idx, isData := r.posData[pos]; isData {
			l.FlipBit(idx)
			res.Status = CorrectedData
			res.BitFlipped = idx
		} else if pos&(pos-1) == 0 && pos < 1<<uint(r.hamming) {
			res.Status = CorrectedCheck
		} else {
			res.Status = DetectedUncorrectable
		}
	default:
		res.Status = DetectedUncorrectable
	}
	return res
}
