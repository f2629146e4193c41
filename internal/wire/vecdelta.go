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
// indices, so applying a delta is idempotent: re-applying it to the
// post-state is a no-op. That property lets readers re-decode a
// message against an already-advanced base (e.g. extracting the
// delivery demand after the delivery merged the vector) and still get
// the exact reconstruction.
//
// A delta is only decodable against the previous vector on the same
// FIFO channel; ReadVecDelta takes that base explicitly and fails with
// ErrNoDeltaBase when the caller has none (a fresh incarnation before
// the sender's next full refresh, handled by core.TDI's refresh
// cadence and its post-recovery resync floors).
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
// range, not strictly increasing, or a count exceeding the base length.
var ErrBadDelta = errors.New("wire: malformed delta vector")

// AppendVecDelta appends the delta encoding of cur relative to base and
// returns the extended slice. It panics on a length mismatch, because
// mixing vectors from systems of different sizes is always a
// programming error (matching vclock's contract).
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

// VecDeltaSize returns the number of bytes AppendVecDelta would produce
// without allocating; the sender uses it to pick the smaller encoding.
//
//windar:hotpath
func VecDeltaSize(base, cur vclock.Vec) int {
	if len(base) != len(cur) {
		panicDeltaLen(len(base), len(cur))
	}
	changed := 0
	n := 1 // marker
	for i := range cur {
		if cur[i] != base[i] {
			changed++
			n += UvarintLen(uint64(i)) + VarintLen(cur[i])
		}
	}
	return n + UvarintLen(uint64(changed))
}

// VecChanged counts the elements that differ between base and cur — the
// pair count a delta would carry.
//
//windar:hotpath
func VecChanged(base, cur vclock.Vec) int {
	changed := 0
	for i := range cur {
		if cur[i] != base[i] {
			changed++
		}
	}
	return changed
}

// ReadVecDelta decodes a delta written by AppendVecDelta and applies it
// to base, returning the reconstructed vector (an independent copy;
// base is never mutated) and the number of bytes consumed. base must be
// the previous vector decoded on the same channel; nil base fails with
// ErrNoDeltaBase.
func ReadVecDelta(b []byte, base vclock.Vec) (vclock.Vec, int, error) {
	return ReadVecDeltaInto(nil, b, base)
}

// ReadVecDeltaInto is ReadVecDelta decoding into dst: when dst has
// base's length its storage is reused (the steady-state decode becomes
// allocation-free), otherwise a fresh vector is allocated. dst must not
// alias base. On error dst's contents are unspecified and the returned
// vector is nil.
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
		// Strictly increasing indices bounded by len(base) cap the pair
		// count; a larger claim is garbage, rejected before any work.
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

// ReadVecAny decodes either encoding: a v1 full vector (returned as-is,
// base unused) or a v2 delta applied to base. isDelta reports which
// layout was seen, so callers can account refresh cadence.
func ReadVecAny(b []byte, base vclock.Vec) (v vclock.Vec, n int, isDelta bool, err error) {
	return ReadVecAnyInto(nil, b, base)
}

// ReadVecAnyInto is ReadVecAny decoding into dst (see ReadVecDeltaInto
// for the reuse contract; dst must not alias base).
//
//windar:hotpath
func ReadVecAnyInto(dst vclock.Vec, b []byte, base vclock.Vec) (v vclock.Vec, n int, isDelta bool, err error) {
	if len(b) == 0 {
		return nil, 0, false, ErrTruncated
	}
	if b[0] == VecDeltaMarker {
		v, n, err = ReadVecDeltaInto(dst, b, base)
		return v, n, true, err
	}
	v, n, err = ReadVecInto(dst, b)
	return v, n, false, err
}
