// Package bitstream provides bit-level views over packet data.
//
// A parser consumes an unstructured stream of bits and deposits slices of it
// into named packet fields. Bits is the fundamental representation used by
// both the specification interpreter (internal/pir) and the TCAM
// implementation interpreter (internal/tcam): a sequence of bits, most
// significant first, exactly as they appear on the wire.
package bitstream

import (
	"fmt"
	"math/rand"
	"strings"
)

// Bits is an immutable-by-convention sequence of bits in wire order.
// Index 0 is the first bit received. Values are 0 or 1.
type Bits []byte

// FromUint builds a width-bit big-endian Bits from the low bits of v.
func FromUint(v uint64, width int) Bits {
	b := make(Bits, width)
	for i := 0; i < width; i++ {
		b[i] = byte(v >> uint(width-1-i) & 1)
	}
	return b
}

// FromBytes expands wire bytes into bits, most significant bit first.
func FromBytes(data []byte) Bits {
	b := make(Bits, 0, len(data)*8)
	for _, by := range data {
		for i := 7; i >= 0; i-- {
			b = append(b, by>>uint(i)&1)
		}
	}
	return b
}

// FromString parses a string of '0' and '1' runes. Underscores and spaces
// are ignored so callers can group bits for readability.
func FromString(s string) (Bits, error) {
	b := make(Bits, 0, len(s))
	for _, r := range s {
		switch r {
		case '0':
			b = append(b, 0)
		case '1':
			b = append(b, 1)
		case '_', ' ':
		default:
			return nil, fmt.Errorf("bitstream: invalid bit %q in %q", r, s)
		}
	}
	return b, nil
}

// MustFromString is FromString that panics on malformed input. For tests
// and static tables.
func MustFromString(s string) Bits {
	b, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Random returns n uniformly random bits drawn from rng.
func Random(rng *rand.Rand, n int) Bits {
	b := make(Bits, n)
	b.Randomize(rng)
	return b
}

// Randomize overwrites b with uniformly random bits drawn from rng, making
// the same draws as Random(rng, len(b)).
func (b Bits) Randomize(rng *rand.Rand) {
	for i := range b {
		b[i] = byte(rng.Intn(2))
	}
}

// Uint interprets b[from:from+width] as a big-endian unsigned integer.
// Bits beyond the end of the stream read as zero, matching hardware
// parsers that pad short packets.
func (b Bits) Uint(from, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if p := from + i; p >= 0 && p < len(b) && b[p] != 0 {
			v |= 1
		}
	}
	return v
}

// Slice returns a copy of b[from:from+width], zero-padded past the end.
func (b Bits) Slice(from, width int) Bits {
	out := make(Bits, width)
	for i := 0; i < width; i++ {
		if p := from + i; p >= 0 && p < len(b) {
			out[i] = b[p]
		}
	}
	return out
}

// Bit returns the bit at position i, or zero past the end.
func (b Bits) Bit(i int) byte {
	if i >= 0 && i < len(b) {
		return b[i]
	}
	return 0
}

// Clone returns a fresh copy of b.
func (b Bits) Clone() Bits {
	out := make(Bits, len(b))
	copy(out, b)
	return out
}

// Concat returns the concatenation of b and more, as a new slice.
func (b Bits) Concat(more Bits) Bits {
	out := make(Bits, 0, len(b)+len(more))
	out = append(out, b...)
	return append(out, more...)
}

// Equal reports whether two bit strings are identical in length and content.
func (b Bits) Equal(o Bits) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the bits as a compact 0/1 string grouped in nibbles.
func (b Bits) String() string {
	var sb strings.Builder
	for i, bit := range b {
		if i > 0 && i%4 == 0 {
			sb.WriteByte('_')
		}
		sb.WriteByte('0' + bit)
	}
	return sb.String()
}

// Dict maps packet field names to their parsed values. A missing key means
// the field was never extracted; the specification's and implementation's
// dictionaries must agree on both membership and values (§4).
type Dict map[string]Bits

// Clone returns a deep copy of the dictionary.
func (d Dict) Clone() Dict {
	out := make(Dict, len(d))
	for k, v := range d {
		out[k] = v.Clone()
	}
	return out
}

// Equal reports whether two dictionaries hold exactly the same fields with
// exactly the same values.
func (d Dict) Equal(o Dict) bool {
	if len(d) != len(o) {
		return false
	}
	for k, v := range d {
		ov, ok := o[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Diff returns a human-readable description of the first disagreement
// between d and o, or "" when they are equal. Used by the correctness
// simulator to explain counterexamples.
func (d Dict) Diff(o Dict) string {
	for k, v := range d {
		ov, ok := o[k]
		if !ok {
			return fmt.Sprintf("field %q present only in first dict (=%s)", k, v)
		}
		if !v.Equal(ov) {
			return fmt.Sprintf("field %q differs: %s vs %s", k, v, ov)
		}
	}
	for k := range o {
		if _, ok := d[k]; !ok {
			return fmt.Sprintf("field %q present only in second dict (=%s)", k, o[k])
		}
	}
	return ""
}
