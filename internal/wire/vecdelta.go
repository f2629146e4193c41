// TDI's piggyback (wire format v4), and a base-relative vector delta.
//
// A piggyback from sender s in an n-rank system is empty — zero bytes:
// nothing changed since the last send to the destination — or starts
// with a uvarint header h:
//
//	h = 0          full, absolute  uvarint v[s] | n-1 × varint diff
//	h odd          own-only        v[s] = base + 1 + h>>1; nothing follows
//	h = 2k, k < n  delta           uvarint inc | k × (uvarint index, varint diff)
//	h = 2n         full, relative  uvarint inc | n-1 × varint diff
//
// base is the v[s] that the previous piggyback on the same channel
// carried, and inc = v[s] − base − 1: between two sends that carry
// anything the sender delivered at least once, which raised v[s]. Every
// form but the absolute full vector needs that base, so the empty, the
// own-only, the delta and the relative full piggyback are refused
// (ErrNoDeltaBase) from a source the reader holds no base for.
//
// A full vector lists the elements other than v[s] in index order, a
// delta k of them at strictly increasing indices != s. Each diff is the
// zigzag varint of (previous listed value − this value), starting from
// v[s]. The sender's index is implicit: the receiver knows the sender.
// Every other value decodes absolute, so a reader max-merges each pair
// into the vector it holds, and re-applying a piggyback is a no-op.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"windar/internal/vclock"
)

// VecDeltaMarker is the first byte of a base-relative delta
// (AppendVecDelta).
const VecDeltaMarker = 0x00

// ErrNoDeltaBase reports a delta-encoded vector arriving at a reader
// that holds no base to apply it to.
var ErrNoDeltaBase = errors.New("wire: delta vector without base")

// ErrBadDelta reports a structurally invalid vector encoding: indices
// out of range, equal to the sender's or not strictly increasing, a
// count exceeding the vector length, a negative or overflowing value,
// or bytes after the last element.
var ErrBadDelta = errors.New("wire: malformed delta vector")

// AppendVecSince appends sender s's piggyback of the non-negative v and
// returns the extended slice. A nil ver selects the full vector:
// absolute for a negative base, else relative to it. Otherwise it is
// Singhal and Kshemkalyani's differential piggyback — v[s] and each v[k]
// whose version ver[k] (at which it last changed) is above since (that
// of the last send to the destination), own-only when no k qualifies —
// and base must be the channel's, below v[s].
//
//windar:hotpath
func AppendVecSince(buf []byte, v vclock.Vec, s int, ver []uint64, since uint64, base int64) []byte {
	k := 0
	for i, u := range ver {
		if u > since && i != s {
			k++
		}
	}
	h, first := vecHeader(len(v), v[s], ver != nil, k, base)
	buf = binary.AppendUvarint(buf, h)
	if h&1 == 1 {
		return buf
	}
	buf = binary.AppendUvarint(buf, first)
	prev := v[s]
	for i, x := range v {
		if i != s && (ver == nil || ver[i] > since) {
			if ver != nil {
				buf = binary.AppendUvarint(buf, uint64(i))
			}
			buf = binary.AppendVarint(buf, prev-x)
			prev = x
		}
	}
	return buf
}

// vecHeader returns the header of sender s's piggyback and the uvarint
// that follows it (unless h is odd): v[s] for the absolute full vector,
// the increment over base for the other forms.
func vecHeader(n int, own int64, delta bool, k int, base int64) (h, first uint64) {
	inc := uint64(own - base - 1)
	switch {
	case delta && k == 0:
		return inc<<1 | 1, 0
	case delta:
		return uint64(k) << 1, inc
	case base >= 0:
		return uint64(n) << 1, inc
	}
	return 0, uint64(own)
}

// VecSinceSize returns the number of bytes AppendVecSince would produce
// and the number of integers it carries (the Fig. 5 unit: n for a full
// vector, 1 own-only, 2+2k for a delta of k pairs), without allocating;
// the sender uses it to pick the smaller encoding.
//
//windar:hotpath
func VecSinceSize(v vclock.Vec, s int, ver []uint64, since uint64, base int64) (size, ids int) {
	k, prev := 0, v[s]
	for i, x := range v {
		if i != s && (ver == nil || ver[i] > since) {
			if ver != nil {
				size += UvarintLen(uint64(i))
			}
			size += VarintLen(prev - x)
			k, prev = k+1, x
		}
	}
	h, first := vecHeader(len(v), v[s], ver != nil, k, base)
	switch {
	case h&1 == 1:
		return UvarintLen(h), 1
	case ver == nil:
		return UvarintLen(h) + UvarintLen(first) + size, len(v)
	}
	return UvarintLen(h) + UvarintLen(first) + size, 2 + 2*k
}

// VecPairs walks the (index, value) pairs a piggyback carries, whatever
// its form: the sender's element first, then the others in increasing
// index order; nothing for the empty piggyback. It reads in place and
// allocates nothing; the caller owns it, and Reset starts each walk.
// Next returns false at the end and on malformed input; Err then tells
// which.
type VecPairs struct {
	b    []byte // unread bytes
	n, s int
	left int // pairs still to read after the sender's
	next int // lowest index the next pair may have
	prev int64
	own  bool // the sender's pair is still to be returned
	// dense: the pairs are every element but the sender's, in index
	// order, so no index is written (a full vector).
	dense bool
	err   error
}

// Reset starts p reading b as sender s's piggyback of an n-element
// vector. base is the v[s] the previous piggyback on the channel
// carried, negative when the reader holds none.
//
//windar:hotpath
func (p *VecPairs) Reset(b []byte, n, s int, base int64) {
	*p = VecPairs{b: b, n: n, s: s}
	if len(b) == 0 {
		if base < 0 {
			p.err = ErrNoDeltaBase
		}
		return
	}
	h, ok := p.uvarint()
	k, own := h>>1, h>>1 // own: the increment when h is odd
	if ok && h&1 == 0 {
		own, ok = p.uvarint()
		p.left, p.dense = int(k), k == 0 || k == uint64(n)
	}
	switch {
	case !ok: // truncated
	case h&1 == 0 && k > uint64(n), // a delta lists at most n-1 pairs; k = n is a full vector
		h == 0 && own > math.MaxInt64,
		h != 0 && base >= 0 && own >= uint64(math.MaxInt64-base): // base + 1 + own overflows
		p.err = ErrBadDelta
	case h != 0 && base < 0:
		p.err = ErrNoDeltaBase
	default:
		if h != 0 {
			own += uint64(base) + 1
		}
		if p.dense {
			p.left = n - 1
		}
		p.prev, p.own = int64(own), true
		return
	}
	p.left = 0
}

// uvarint reads one uvarint, or ends the walk on a truncated one.
func (p *VecPairs) uvarint() (uint64, bool) {
	u, m := binary.Uvarint(p.b)
	if m <= 0 {
		p.err, p.left = ErrTruncated, 0
		return 0, false
	}
	p.b = p.b[m:]
	return u, true
}

// Next returns the next pair.
//
//windar:hotpath
func (p *VecPairs) Next() (idx int, val int64, ok bool) {
	if p.own {
		p.own = false
		return p.s, p.prev, true
	}
	if p.left == 0 {
		if len(p.b) != 0 && p.err == nil { // bytes after the last pair
			p.err = ErrBadDelta
		}
		return 0, 0, false
	}
	idx = p.next
	if p.dense {
		if idx == p.s {
			idx++
		}
	} else {
		u, ok := p.uvarint()
		if !ok || u >= uint64(p.n) || int(u) < idx || int(u) == p.s {
			return p.fail(ErrBadDelta)
		}
		idx = int(u)
	}
	d, m := binary.Varint(p.b)
	if m <= 0 {
		return p.fail(ErrTruncated)
	}
	// prev >= 0, so an overflowing difference wraps negative.
	if val = p.prev - d; val < 0 {
		return p.fail(ErrBadDelta)
	}
	p.b, p.prev, p.next = p.b[m:], val, idx+1
	p.left--
	return idx, val, true
}

// fail ends the walk on a malformed pair, unless a truncation already
// has.
func (p *VecPairs) fail(err error) (int, int64, bool) {
	if p.err == nil {
		p.err = err
	}
	p.left = 0
	return 0, 0, false
}

// Err reports why Next stopped early, nil after a clean end.
func (p *VecPairs) Err() error { return p.err }

// AppendVecDelta appends the delta of cur relative to base and returns
// the extended slice: 0x00 | uvarint(changed) | changed × (uvarint
// index, varint value), the pairs where the two differ. It panics
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
