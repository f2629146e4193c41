// Delta encoding for piggyback vectors (wire format v2).
//
// A full vector keeps the v1 layout of AppendVec unchanged: uvarint
// length followed by the varint elements. Because a system has at least
// one rank, a full vector's first byte is always >= 0x01, which frees
// the byte 0x00 as an unambiguous delta marker:
//
//	delta := 0x00 | uvarint(changed) | changed × (uvarint index, varint value)
//
// The pairs carry ABSOLUTE values (not diffs) at strictly increasing
// indices, so a reader needs no base to use them: it merges each pair
// into whatever vector it holds, and re-applying a delta is a no-op.
// A delta with no pairs is sent as zero bytes: the empty piggyback.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"windar/internal/vclock"
)

// VecDeltaMarker is the first byte of a delta-encoded vector. A v1 full
// vector can never start with it: its first byte is the uvarint element
// count, and every real system has n >= 1.
const VecDeltaMarker = 0x00

// ErrNoDeltaBase reports a delta-encoded vector arriving at a reader
// that holds no base vector to apply it to.
var ErrNoDeltaBase = errors.New("wire: delta vector without base")

// ErrBadDelta reports a structurally invalid delta: indices out of
// range, not strictly increasing, a count exceeding the vector length,
// or bytes after the last pair.
var ErrBadDelta = errors.New("wire: malformed delta vector")

// ErrVecLength reports a full vector of the wrong length, or bytes after
// its last element.
var ErrVecLength = errors.New("wire: piggyback vector length mismatch")

// AppendVecSince appends the delta of the entries of v whose version
// ver[k] is above since and returns the extended slice: Singhal and
// Kshemkalyani's differential piggyback, where ver[k] is the version at
// which v[k] last changed and since is the version of the last send to
// the destination.
//
//windar:hotpath
func AppendVecSince(buf []byte, v vclock.Vec, ver []uint64, since uint64) []byte {
	changed := 0
	for _, u := range ver {
		if u > since {
			changed++
		}
	}
	buf = append(buf, VecDeltaMarker)
	buf = binary.AppendUvarint(buf, uint64(changed))
	for k, u := range ver {
		if u > since {
			buf = binary.AppendUvarint(buf, uint64(k))
			buf = binary.AppendVarint(buf, v[k])
		}
	}
	return buf
}

// VecSinceSize returns the number of bytes AppendVecSince would produce
// and the number of pairs it would carry, without allocating; the sender
// uses it to pick the smaller encoding.
//
//windar:hotpath
func VecSinceSize(v vclock.Vec, ver []uint64, since uint64) (size, pairs int) {
	size = 1 // marker
	for k, u := range ver {
		if u > since {
			pairs++
			size += UvarintLen(uint64(k)) + VarintLen(v[k])
		}
	}
	return size + UvarintLen(uint64(pairs)), pairs
}

// VecPairs walks the (index, value) pairs a piggyback vector carries,
// whatever its encoding: every element of a full vector, the pairs of a
// delta, nothing for an empty piggyback. It reads in place, allocates
// nothing and needs no base. Next returns false at the end and on
// malformed input; Err then tells which.
type VecPairs struct {
	b    []byte // unread bytes
	n    int
	left int // pairs still to read
	prev int
	full bool
	err  error
}

// ReadVecPairs starts reading b as the encoding of an n-element vector.
//
//windar:hotpath
func ReadVecPairs(b []byte, n int) VecPairs {
	p := VecPairs{b: b, n: n, prev: -1}
	if len(b) != 0 {
		p.header()
	}
	return p
}

// header reads a non-empty piggyback's first field: the delta's pair
// count or the full vector's length.
func (p *VecPairs) header() {
	if p.b[0] == VecDeltaMarker {
		count, m := binary.Uvarint(p.b[1:])
		switch {
		case m <= 0:
			p.err = ErrTruncated
		case count > uint64(p.n):
			// Strictly increasing indices below n cap the pair count; a
			// larger claim is garbage, rejected before any work.
			p.err = ErrBadDelta
		default:
			p.b, p.left = p.b[1+m:], int(count)
		}
		return
	}
	length, m := binary.Uvarint(p.b)
	switch {
	case m <= 0:
		p.err = ErrTruncated
	case length != uint64(p.n):
		p.err = ErrVecLength
	default:
		p.b, p.left, p.full = p.b[m:], p.n, true
	}
}

// Full reports whether the piggyback is a full vector, which carries
// every element.
func (p *VecPairs) Full() bool { return p.full }

// Next returns the next pair.
//
//windar:hotpath
func (p *VecPairs) Next() (idx int, val int64, ok bool) {
	if p.left == 0 {
		if len(p.b) != 0 && p.err == nil { // bytes after the last pair
			p.err = ErrBadDelta
			if p.full {
				p.err = ErrVecLength
			}
		}
		return 0, 0, false
	}
	idx = p.prev + 1
	if !p.full {
		u, m := binary.Uvarint(p.b)
		if m <= 0 || u >= uint64(p.n) || int(u) < idx {
			return p.fail(m)
		}
		idx, p.b = int(u), p.b[m:]
	}
	val, m := binary.Varint(p.b)
	if m <= 0 {
		return p.fail(m)
	}
	p.b, p.prev = p.b[m:], idx
	p.left--
	return idx, val, true
}

// fail ends the walk on a malformed pair: truncated when the varint
// read m ran off the end, else an index out of order or range.
func (p *VecPairs) fail(m int) (int, int64, bool) {
	p.err, p.left = ErrBadDelta, 0
	if m <= 0 {
		p.err = ErrTruncated
	}
	return 0, 0, false
}

// Err reports why Next stopped early, nil after a clean end.
func (p *VecPairs) Err() error { return p.err }

// AppendVecDelta appends the delta encoding of cur relative to base and
// returns the extended slice: the pairs where the two differ. It panics
// on a length mismatch, because mixing vectors from systems of different
// sizes is always a programming error (matching vclock's contract).
//
//windar:hotpath
func AppendVecDelta(buf []byte, base, cur vclock.Vec) []byte {
	if len(base) != len(cur) {
		panicDeltaLen(len(base), len(cur))
	}
	changed := 0
	for i := range cur {
		if cur[i] != base[i] {
			changed++
		}
	}
	buf = append(buf, VecDeltaMarker)
	buf = binary.AppendUvarint(buf, uint64(changed))
	for i := range cur {
		if cur[i] != base[i] {
			buf = binary.AppendUvarint(buf, uint64(i))
			buf = binary.AppendVarint(buf, cur[i])
		}
	}
	return buf
}

// panicDeltaLen lives outside the annotated spans: formatting the panic
// message boxes its operands, an allocation the hot path never performs
// but escape analysis would charge to the caller's line. noinline keeps
// the attribution here.
//
//go:noinline
func panicDeltaLen(base, cur int) {
	panic(fmt.Sprintf("wire: delta base length %d != %d", base, cur))
}

// VecSize returns the number of bytes AppendVec would produce for v.
//
//windar:hotpath
func VecSize(v vclock.Vec) int {
	n := UvarintLen(uint64(len(v)))
	for _, x := range v {
		n += VarintLen(x)
	}
	return n
}

// ReadVecDeltaInto decodes a delta written by AppendVecDelta and applies
// it to base, returning the reconstructed vector and the number of bytes
// consumed; base is never mutated. When dst has base's length its
// storage is reused (the steady-state decode is allocation-free),
// otherwise a fresh vector is allocated. dst must not alias base. A nil
// base fails with ErrNoDeltaBase. On error dst's contents are
// unspecified and the returned vector is nil.
//
//windar:hotpath
func ReadVecDeltaInto(dst vclock.Vec, b []byte, base vclock.Vec) (vclock.Vec, int, error) {
	if len(b) == 0 || b[0] != VecDeltaMarker {
		return nil, 0, ErrBadDelta
	}
	if base == nil {
		return nil, 0, ErrNoDeltaBase
	}
	i := 1
	count, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return nil, 0, ErrTruncated
	}
	i += n
	if count > uint64(len(base)) {
		return nil, 0, ErrBadDelta
	}
	var v vclock.Vec
	if len(dst) == len(base) {
		v = dst
		v.CopyFrom(base)
	} else {
		v = base.Clone()
	}
	prev := -1
	for j := uint64(0); j < count; j++ {
		idx, m := binary.Uvarint(b[i:])
		if m <= 0 {
			return nil, 0, ErrTruncated
		}
		i += m
		if idx >= uint64(len(base)) || int(idx) <= prev {
			return nil, 0, ErrBadDelta
		}
		val, m := binary.Varint(b[i:])
		if m <= 0 {
			return nil, 0, ErrTruncated
		}
		i += m
		v[idx] = val
		prev = int(idx)
	}
	return v, i, nil
}
