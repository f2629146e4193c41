package wire

import (
	"encoding/binary"
	"math"
	"math/big"
	"slices"
	"testing"

	"windar/internal/vclock"
)

// FuzzReadVecDelta feeds arbitrary bytes to the delta decoder: it must
// never panic, never allocate beyond the base length, and never mutate
// the base — this is the exact path a corrupt TCP frame reaches through
// core.TDI's piggyback ingest.
func FuzzReadVecDelta(f *testing.F) {
	base := vclock.Vec{3, 1, 4, 1, 5, 9, 2, 6}
	f.Add(AppendVecDelta(nil, base, vclock.Vec{3, 1, 4, 2, 5, 9, 2, 7}))
	f.Add([]byte{VecDeltaMarker})
	f.Add([]byte{VecDeltaMarker, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{VecDeltaMarker, 2, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		orig := base.Clone()
		v, n, err := ReadVecDeltaInto(nil, b, base)
		if !base.Equal(orig) {
			t.Fatalf("ReadVecDeltaInto mutated the base: %v -> %v", orig, base)
		}
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if len(v) != len(base) {
			t.Fatalf("reconstructed length %d, base %d", len(v), len(base))
		}
		// An accepted delta must round-trip: re-encoding the
		// reconstruction against the same base reproduces it.
		re := AppendVecDelta(nil, base, v)
		v2, _, err := ReadVecDeltaInto(nil, re, base)
		if err != nil {
			t.Fatalf("re-decode of accepted delta failed: %v", err)
		}
		if !v2.Equal(v) {
			t.Fatalf("unstable delta round trip: %v vs %v", v, v2)
		}
	})
}

// FuzzVecDeltaRoundTrip drives the encoder from fuzzer-chosen vectors:
// every (base, cur) pair must decode back to cur exactly.
func FuzzVecDeltaRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), int64(1), int64(9), int64(3))
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(-1), int64(1<<40), int64(7), int64(-1), int64(1<<40), int64(8))
	f.Fuzz(func(t *testing.T, b0, b1, b2, c0, c1, c2 int64) {
		base := vclock.Vec{b0, b1, b2}
		cur := vclock.Vec{c0, c1, c2}
		enc := AppendVecDelta(nil, base, cur)
		v, n, err := ReadVecDeltaInto(nil, enc, base)
		if err != nil {
			t.Fatalf("decode of fresh delta failed: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
		if !v.Equal(cur) {
			t.Fatalf("reconstructed %v, want %v (base %v)", v, cur, base)
		}
	})
}

// refPairs is a reference decoder for TDI's v3 piggyback, written for
// clarity rather than speed: the pairs sender s's piggyback b carries
// in an n-element vector, and whether b is well-formed. It checks value
// range with big integers, so no overflow can hide.
func refPairs(b []byte, n, s int) (pairs [][2]int64, full, ok bool) {
	if len(b) == 0 {
		return nil, false, true
	}
	h, m := binary.Uvarint(b)
	if m <= 0 {
		return nil, false, false
	}
	b = b[m:]
	if h%2 == 1 {
		return [][2]int64{{int64(s), int64(h / 2)}}, false, len(b) == 0
	}
	k := h / 2
	if k > uint64(n-1) {
		return nil, false, false
	}
	own, m := binary.Uvarint(b)
	if m <= 0 || own > math.MaxInt64 {
		return nil, false, false
	}
	b = b[m:]
	pairs = [][2]int64{{int64(s), int64(own)}}
	var idx []int
	if k == 0 {
		full = true
		for i := 0; i < n; i++ {
			if i != s {
				idx = append(idx, i)
			}
		}
	}
	prev := new(big.Int).SetUint64(own)
	for j := 0; full && j < len(idx) || !full && j < int(k); j++ {
		i := 0
		if full {
			i = idx[j]
		} else {
			u, m := binary.Uvarint(b)
			if m <= 0 || u >= uint64(n) || int(u) == s || len(pairs) > 1 && int64(u) <= pairs[len(pairs)-1][0] {
				return nil, false, false
			}
			i, b = int(u), b[m:]
		}
		d, m := binary.Varint(b)
		if m <= 0 {
			return nil, false, false
		}
		b = b[m:]
		prev.Sub(prev, big.NewInt(d))
		if prev.Sign() < 0 || !prev.IsInt64() {
			return nil, false, false
		}
		pairs = append(pairs, [2]int64{int64(i), prev.Int64()})
	}
	return pairs, full, len(b) == 0
}

// walkPairs collects everything ReadVecPairs yields for b.
func walkPairs(b []byte, n, s int) (pairs [][2]int64, full bool, err error) {
	p := ReadVecPairs(b, n, s)
	for k, v, ok := p.Next(); ok; k, v, ok = p.Next() {
		pairs = append(pairs, [2]int64{int64(k), v})
	}
	return pairs, p.Full(), p.Err()
}

// FuzzVecPairs is a differential target for the v3 piggyback reader:
// on arbitrary bytes, for a fuzzer-chosen system size and sender, it
// must accept exactly what refPairs accepts and yield the same pairs,
// never panicking; and re-encoding an accepted piggyback must read back
// as the same pairs.
func FuzzVecPairs(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x06, 0x02, 0x05}, uint8(3), uint8(1))
	f.Add([]byte{0x02, 0x05, 0x03, 0x05}, uint8(3), uint8(1))
	f.Add([]byte{0x0B}, uint8(3), uint8(1))
	f.Add([]byte{0x04, 0x05, 0x02, 0x00, 0x00, 0x00}, uint8(3), uint8(1))
	f.Add([]byte{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x01}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, b []byte, n8, s8 uint8) {
		n := 1 + int(n8)%64
		s := int(s8) % n
		got, full, err := walkPairs(b, n, s)
		want, wantFull, ok := refPairs(b, n, s)
		if (err == nil) != ok {
			t.Fatalf("% x (n=%d, s=%d): reader err %v, reference ok %v", b, n, s, err, ok)
		}
		if !ok {
			return
		}
		if full != wantFull || !slices.Equal(got, want) {
			t.Fatalf("% x (n=%d, s=%d): reader %v (full %v), reference %v (full %v)", b, n, s, got, full, want, wantFull)
		}
		if len(b) == 0 {
			return
		}
		v, ver := vclock.New(n), []uint64(nil)
		if !full {
			ver = make([]uint64, n)
		}
		for _, p := range got {
			v[p[0]] = p[1]
			if !full && int(p[0]) != s {
				ver[p[0]] = 1
			}
		}
		re := AppendVecSince(nil, v, s, ver, 0)
		if again, _, err := walkPairs(re, n, s); err != nil || !slices.Equal(again, got) {
			t.Fatalf("% x re-encoded as % x reads %v (err %v), want %v", b, re, again, err, got)
		}
	})
}
