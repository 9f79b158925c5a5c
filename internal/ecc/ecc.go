// Package ecc unifies the error-correction codecs used by the simulator
// behind a single cache-line-level interface.
//
// The concrete codes live in subpackages (parity, secded, bch, olsc); this
// package adapts them to a common Codec interface so that protection
// schemes (Killi, DECTED-per-line, FLAIR, MS-ECC) can be composed without
// caring which code family supplies correction.
package ecc

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"killi/internal/bitvec"
	"killi/internal/ecc/bch"
	"killi/internal/ecc/olsc"
	"killi/internal/ecc/secded"
)

// Status classifies a decode outcome, collapsing the per-code statuses.
type Status int

const (
	// OK: no error detected.
	OK Status = iota
	// Corrected: every detected error was corrected; data is clean.
	Corrected
	// Detected: errors were detected but could not be corrected.
	Detected
)

// String returns a short status name.
func (s Status) String() string {
	switch s {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("ecc.Status(%d)", int(s))
	}
}

// Outcome reports a decode.
type Outcome struct {
	Status Status
	// DataBitsCorrected is the number of data-bit flips applied.
	DataBitsCorrected int
}

// Check is an opaque stored-checkbit container produced by a Codec's
// Encode and consumed by its Decode. Checks are not interchangeable across
// codecs.
type Check struct {
	bits   *bitvec.Vector
	global uint
}

// Bits exposes the checkbit payload width for storage accounting.
func (c Check) Bits() int {
	n := 0
	if c.bits != nil {
		n = c.bits.Len()
	}
	return n
}

// Codec encodes and decodes 512-bit cache lines.
type Codec interface {
	// Name is a short stable identifier ("secded", "dected", ...).
	Name() string
	// CheckBits is the stored checkbit count per line.
	CheckBits() int
	// CorrectsUpTo is the guaranteed correctable error count t.
	CorrectsUpTo() int
	// DetectsUpTo is the guaranteed detectable error count.
	DetectsUpTo() int
	// Encode computes checkbits for a line.
	Encode(l bitvec.Line) Check
	// Decode verifies l against stored checkbits, correcting l in place
	// when possible.
	Decode(l *bitvec.Line, c Check) Outcome
}

// --- SECDED adapter ---

type secdedCodec struct{ c *secded.Code }

func (s secdedCodec) Name() string      { return "secded" }
func (s secdedCodec) CheckBits() int    { return s.c.CheckBits() }
func (s secdedCodec) CorrectsUpTo() int { return 1 }
func (s secdedCodec) DetectsUpTo() int  { return 2 }

func (s secdedCodec) Encode(l bitvec.Line) Check {
	ck := s.c.EncodeLine(l)
	v := bitvec.NewVector(s.c.CheckBits() - 1)
	v.Words()[0] = uint64(ck.Bits)
	return Check{bits: v, global: ck.Global}
}

func (s secdedCodec) Decode(l *bitvec.Line, c Check) Outcome {
	ck := secded.Check{Bits: uint32(c.bits.Words()[0]), Global: c.global}
	res := s.c.DecodeLine(l, ck)
	switch res.Status {
	case secded.OK:
		return Outcome{Status: OK}
	case secded.CorrectedData:
		return Outcome{Status: Corrected, DataBitsCorrected: 1}
	case secded.CorrectedCheck:
		return Outcome{Status: Corrected}
	default:
		return Outcome{Status: Detected}
	}
}

// --- BCH adapter ---

type bchCodec struct {
	name string
	c    *bch.Code
}

func (b bchCodec) Name() string      { return b.name }
func (b bchCodec) CheckBits() int    { return b.c.CheckBits() }
func (b bchCodec) CorrectsUpTo() int { return b.c.T() }
func (b bchCodec) DetectsUpTo() int  { return b.c.T() + 1 }

func (b bchCodec) Encode(l bitvec.Line) Check {
	data := bitvec.LineVector(l)
	ck := b.c.Encode(data)
	return Check{bits: ck.Bits, global: ck.Global}
}

func (b bchCodec) Decode(l *bitvec.Line, c Check) Outcome {
	data := bitvec.LineVector(*l)
	res := b.c.Decode(data, bch.Check{Bits: c.bits, Global: c.global})
	switch res.Status {
	case bch.OK:
		return Outcome{Status: OK}
	case bch.Corrected:
		for _, bit := range res.DataBitsFlipped {
			l.FlipBit(bit)
		}
		return Outcome{Status: Corrected, DataBitsCorrected: len(res.DataBitsFlipped)}
	default:
		return Outcome{Status: Detected}
	}
}

// --- OLSC adapter ---

type olscCodec struct {
	name string
	c    *olsc.Code
}

func (o olscCodec) Name() string      { return o.name }
func (o olscCodec) CheckBits() int    { return o.c.CheckBits() }
func (o olscCodec) CorrectsUpTo() int { return o.c.T() }
func (o olscCodec) DetectsUpTo() int  { return o.c.T() }

func (o olscCodec) Encode(l bitvec.Line) Check {
	return Check{bits: o.c.EncodeLine(l)}
}

func (o olscCodec) Decode(l *bitvec.Line, c Check) Outcome {
	res := o.c.DecodeLine(l, c.bits)
	switch res.Status {
	case olsc.OK:
		return Outcome{Status: OK}
	case olsc.Corrected:
		return Outcome{Status: Corrected, DataBitsCorrected: res.DataBitsCorrected}
	default:
		return Outcome{Status: Detected}
	}
}

// Every codec is one immutable instance per process, shared by all
// schemes and goroutines: construction (especially BCH generator
// synthesis) is not free, and no codec holds scratch state.
var (
	secdedInst = sync.OnceValue(func() Codec { return secdedCodec{secded.Line()} })
	bchMu      sync.Mutex
	bchInst    = map[int]Codec{}
	olscMu     sync.Mutex
	olscInst   [olsc.MaxStrength + 1]Codec
)

// SECDED returns the 11-checkbit SECDED codec for 64-byte lines.
func SECDED() Codec { return secdedInst() }

// DECTED returns the 21-checkbit double-error-correcting codec.
func DECTED() Codec { return bchByT("dected", 2) }

// TECQED returns the 31-checkbit triple-error-correcting codec.
func TECQED() Codec { return bchByT("tecqed", 3) }

// SixEC7ED returns the 61-checkbit six-error-correcting codec.
func SixEC7ED() Codec { return bchByT("6ec7ed", 6) }

func bchByT(name string, t int) Codec {
	bchMu.Lock()
	defer bchMu.Unlock()
	if c, ok := bchInst[t]; ok {
		return c
	}
	c := bchCodec{name: name, c: bch.NewLine(t)}
	bchInst[t] = c
	return c
}

// OLSC returns an Orthogonal-Latin-Square codec correcting t errors per
// line (t=11 is the MS-ECC configuration). It panics unless
// 1 ≤ t ≤ olsc.MaxStrength.
func OLSC(t int) Codec {
	if t < 1 || t > olsc.MaxStrength {
		panic(fmt.Sprintf("ecc: OLSC strength %d outside 1..%d", t, olsc.MaxStrength))
	}
	olscMu.Lock()
	defer olscMu.Unlock()
	if olscInst[t] == nil {
		olscInst[t] = olscCodec{name: fmt.Sprintf("olsc-%d", t), c: olsc.NewLine(t)}
	}
	return olscInst[t]
}

// ByName resolves a codec by its Name. Recognized: "secded", "dected",
// "tecqed", "6ec7ed", and "olsc-<t>" for 1 ≤ t ≤ olsc.MaxStrength, written
// canonically (no sign, leading zeros or trailing bytes).
func ByName(name string) (Codec, error) {
	switch name {
	case "secded":
		return SECDED(), nil
	case "dected":
		return DECTED(), nil
	case "tecqed":
		return TECQED(), nil
	case "6ec7ed":
		return SixEC7ED(), nil
	}
	if digits, ok := strings.CutPrefix(name, "olsc-"); ok {
		if t, err := strconv.Atoi(digits); err == nil && t >= 1 && t <= olsc.MaxStrength {
			if c := OLSC(t); c.Name() == name {
				return c, nil
			}
		}
	}
	return nil, fmt.Errorf("ecc: unknown codec %q", name)
}
