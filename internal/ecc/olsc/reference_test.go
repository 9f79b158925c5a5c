package olsc

import (
	"math/bits"

	"killi/internal/bitvec"
)

// refCode is the group-mask OLSC implementation the row kernel replaced,
// kept as the test oracle: every parity group is an explicit word mask,
// a syndrome is one AND-popcount per group, and the majority vote walks
// each data bit's 2t group indexes.
type refCode struct {
	k, t, m int
	// groups[f][g] lists the data-bit indexes (only those < k) in group g
	// of family f.
	groups [][][]int
	// bitGroups[i] lists the (family, group) check indexes covering data
	// bit i, flattened as f*m+g.
	bitGroups [][]int
	// groupMask[f*m+g] is the word-parallel membership mask of a group.
	groupMask [][]uint64
	words     int
}

// refResult is the oracle's decode outcome.
type refResult struct {
	Status           Status
	DataBitsFlipped  []int
	CheckGroupErrors int
}

func newRef(k, t int) *refCode {
	m := choosePrime(k, t)
	c := &refCode{k: k, t: t, m: m}
	nf := 2 * t
	c.groups = make([][][]int, nf)
	c.bitGroups = make([][]int, k)
	for f := 0; f < nf; f++ {
		c.groups[f] = make([][]int, m)
	}
	for idx := 0; idx < k; idx++ {
		i, j := idx/m, idx%m
		for f := 0; f < nf; f++ {
			var g int
			switch f {
			case 0:
				g = i
			case 1:
				g = j
			default:
				g = ((f-1)*i + j) % m
			}
			c.groups[f][g] = append(c.groups[f][g], idx)
			c.bitGroups[idx] = append(c.bitGroups[idx], f*m+g)
		}
	}
	c.words = (k + 63) / 64
	c.groupMask = make([][]uint64, 2*t*m)
	for f := range c.groups {
		for g, members := range c.groups[f] {
			mask := make([]uint64, c.words)
			for _, idx := range members {
				mask[idx>>6] |= 1 << (uint(idx) & 63)
			}
			c.groupMask[f*m+g] = mask
		}
	}
	return c
}

func (c *refCode) maskParity(words, mask []uint64) uint {
	ones := 0
	for w := 0; w < c.words; w++ {
		ones += bits.OnesCount64(words[w] & mask[w])
	}
	return uint(ones) & 1
}

func (c *refCode) Encode(data *bitvec.Vector) *bitvec.Vector {
	check := bitvec.NewVector(2 * c.t * c.m)
	for ck, mask := range c.groupMask {
		check.SetBit(ck, c.maskParity(data.Words(), mask))
	}
	return check
}

// Decode corrects data in place (also when the verdict is
// DetectedUncorrectable) and reports the flipped bits.
func (c *refCode) Decode(data, check *bitvec.Vector) refResult {
	failed := c.failedGroups(data, check)
	anyFailed := false
	for _, f := range failed {
		anyFailed = anyFailed || f
	}
	if !anyFailed {
		return refResult{Status: OK}
	}
	res := refResult{}
	for idx := 0; idx < c.k; idx++ {
		votes := 0
		for _, ck := range c.bitGroups[idx] {
			if failed[ck] {
				votes++
			}
		}
		if votes > c.t {
			data.FlipBit(idx)
			res.DataBitsFlipped = append(res.DataBitsFlipped, idx)
		}
	}
	remaining := 0
	for _, f := range c.failedGroups(data, check) {
		if f {
			remaining++
		}
	}
	res.CheckGroupErrors = remaining
	if remaining == 0 || len(res.DataBitsFlipped)+remaining <= c.t {
		res.Status = Corrected
	} else {
		res.Status = DetectedUncorrectable
	}
	return res
}

func (c *refCode) failedGroups(data, check *bitvec.Vector) []bool {
	failed := make([]bool, len(c.groupMask))
	for ck, mask := range c.groupMask {
		failed[ck] = c.maskParity(data.Words(), mask) != check.Bit(ck)
	}
	return failed
}
