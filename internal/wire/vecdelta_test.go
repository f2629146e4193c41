package wire

import (
	"errors"
	"testing"

	"windar/internal/vclock"
)

func TestVecDeltaRoundTrip(t *testing.T) {
	cases := []struct {
		name      string
		base, cur vclock.Vec
	}{
		{"no-change", vclock.Vec{1, 2, 3}, vclock.Vec{1, 2, 3}},
		{"one-change", vclock.Vec{1, 2, 3}, vclock.Vec{1, 7, 3}},
		{"all-change", vclock.Vec{0, 0, 0, 0}, vclock.Vec{4, 3, 2, 1}},
		{"negatives", vclock.Vec{-5, 0, 9}, vclock.Vec{-5, -1, 1 << 40}},
		{"single-rank", vclock.Vec{3}, vclock.Vec{4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := AppendVecDelta(nil, tc.base, tc.cur)
			if b[0] != VecDeltaMarker {
				t.Fatalf("delta does not start with marker: % x", b)
			}
			v, n, err := ReadVecDeltaInto(nil, b, tc.base)
			if err != nil {
				t.Fatalf("ReadVecDeltaInto: %v", err)
			}
			if n != len(b) {
				t.Fatalf("consumed %d of %d bytes", n, len(b))
			}
			if !v.Equal(tc.cur) {
				t.Fatalf("reconstructed %v, want %v", v, tc.cur)
			}
			// Idempotence: absolute values mean applying the delta to the
			// post-state reproduces the post-state.
			v2, _, err := ReadVecDeltaInto(nil, b, tc.cur)
			if err != nil {
				t.Fatalf("re-apply: %v", err)
			}
			if !v2.Equal(tc.cur) {
				t.Fatalf("re-apply gave %v, want %v", v2, tc.cur)
			}
		})
	}
}

func TestVecDeltaDoesNotMutateBase(t *testing.T) {
	base := vclock.Vec{1, 2, 3}
	b := AppendVecDelta(nil, base, vclock.Vec{9, 2, 8})
	v, _, err := ReadVecDeltaInto(nil, b, base)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Equal(vclock.Vec{1, 2, 3}) {
		t.Fatalf("base mutated to %v", base)
	}
	v[0] = 77
	if base[0] == 77 {
		t.Fatal("returned vector aliases the base")
	}
}

func TestVecDeltaNoBase(t *testing.T) {
	b := AppendVecDelta(nil, vclock.Vec{0, 0}, vclock.Vec{1, 0})
	if _, _, err := ReadVecDeltaInto(nil, b, nil); !errors.Is(err, ErrNoDeltaBase) {
		t.Fatalf("nil base: got %v, want ErrNoDeltaBase", err)
	}
}

func TestVecDeltaRejectsMalformed(t *testing.T) {
	base := vclock.Vec{0, 0, 0}
	bad := [][]byte{
		{},                              // empty
		{VecDeltaMarker},                // missing count
		{VecDeltaMarker, 9},             // count exceeds base length
		{VecDeltaMarker, 1},             // truncated pair
		{VecDeltaMarker, 1, 7, 2},       // index out of range
		{VecDeltaMarker, 2, 1, 2, 1, 4}, // indices not strictly increasing
		{VecDeltaMarker, 2, 1, 2, 0, 4}, // indices decreasing
		{VecDeltaMarker, 1, 0},          // index without value
		{0x01, 0x02},                    // not a delta at all
	}
	for i, b := range bad {
		if _, _, err := ReadVecDeltaInto(nil, b, base); err == nil {
			t.Errorf("case %d (% x): accepted malformed delta", i, b)
		}
	}
}

// TestReadVecPairsDispatch: one reader takes all three piggyback
// encodings — a full vector yields every element, a delta its pairs, an
// empty piggyback nothing — and none of them needs a base.
func TestReadVecPairsDispatch(t *testing.T) {
	base := vclock.Vec{1, 2, 3}
	cur := vclock.Vec{1, 5, 3}
	collect := func(b []byte) (vclock.Vec, bool, int) {
		t.Helper()
		v, pairs := vclock.Vec{-1, -1, -1}, 0
		p := ReadVecPairs(b, len(cur))
		for k, x, ok := p.Next(); ok; k, x, ok = p.Next() {
			v[k] = x
			pairs++
		}
		if err := p.Err(); err != nil {
			t.Fatalf("% x: %v", b, err)
		}
		return v, p.Full(), pairs
	}
	if v, full, pairs := collect(AppendVec(nil, cur)); !full || pairs != 3 || !v.Equal(cur) {
		t.Fatalf("full: v=%v full=%v pairs=%d", v, full, pairs)
	}
	if v, full, pairs := collect(AppendVecDelta(nil, base, cur)); full || pairs != 1 || !v.Equal(vclock.Vec{-1, 5, -1}) {
		t.Fatalf("delta: v=%v full=%v pairs=%d", v, full, pairs)
	}
	if _, full, pairs := collect(nil); full || pairs != 0 {
		t.Fatalf("empty: full=%v pairs=%d", full, pairs)
	}
}

// TestVecPairsRejectsMalformed: everything TestVecDeltaRejectsMalformed
// refuses (bar the empty piggyback, which is valid here), plus full
// vectors of the wrong length and trailing bytes, ends the walk with an
// error.
func TestVecPairsRejectsMalformed(t *testing.T) {
	bad := [][]byte{
		{VecDeltaMarker},
		{VecDeltaMarker, 9},
		{VecDeltaMarker, 1},
		{VecDeltaMarker, 1, 7, 2},
		{VecDeltaMarker, 2, 1, 2, 1, 4},
		{VecDeltaMarker, 2, 1, 2, 0, 4},
		{VecDeltaMarker, 1, 0},
		{VecDeltaMarker, 0, 0},         // trailing byte after the pairs
		{0x02, 0x02, 0x04},             // full vector of length 2, want 3
		{0x03, 0x02, 0x04, 0x06, 0x08}, // trailing byte after a full vector
		{0x03, 0x02, 0x04},             // truncated full vector
		{0xFF},                         // truncated length
	}
	for i, b := range bad {
		p := ReadVecPairs(b, 3)
		for _, _, ok := p.Next(); ok; _, _, ok = p.Next() {
		}
		if p.Err() == nil {
			t.Errorf("case %d (% x): accepted malformed piggyback", i, b)
		}
	}
}

// TestVecSinceSelectsStampedEntries: the differential encoder emits
// exactly the entries stamped after since, in the delta layout, at the
// size VecSinceSize predicts.
func TestVecSinceSelectsStampedEntries(t *testing.T) {
	v := vclock.Vec{10, 20, 30, 40}
	ver := []uint64{1, 5, 2, 7}
	for since, want := range map[uint64]vclock.Vec{
		0: {10, 20, 30, 40},
		2: {-1, 20, -1, 40},
		5: {-1, -1, -1, 40},
		7: {-1, -1, -1, -1},
	} {
		b := AppendVecSince(nil, v, ver, since)
		size, pairs := VecSinceSize(v, ver, since)
		if size != len(b) {
			t.Fatalf("since %d: VecSinceSize=%d, encoded %d bytes", since, size, len(b))
		}
		got, n := vclock.Vec{-1, -1, -1, -1}, 0
		p := ReadVecPairs(b, len(v))
		for k, x, ok := p.Next(); ok; k, x, ok = p.Next() {
			got[k] = x
			n++
		}
		if p.Err() != nil || p.Full() || n != pairs || !got.Equal(want) {
			t.Fatalf("since %d: got %v (%d pairs, err %v), want %v", since, got, n, p.Err(), want)
		}
	}
}

func TestVecSizeMatchesAppendVec(t *testing.T) {
	for _, v := range []vclock.Vec{{0}, {1, 2, 3}, {-9, 1 << 50, 0, 7}} {
		if got, want := VecSize(v), len(AppendVec(nil, v)); got != want {
			t.Errorf("VecSize(%v)=%d, AppendVec produced %d", v, got, want)
		}
	}
}

func TestVecDeltaSmallerWhenFewChanges(t *testing.T) {
	// A 16-rank vector with one changed element: the delta must beat the
	// full encoding — this is the entire point of wire format v2.
	base := vclock.New(16)
	for i := range base {
		base[i] = int64(100 + i)
	}
	cur := base.Clone()
	cur[5]++
	if ds, fs := len(AppendVecDelta(nil, base, cur)), VecSize(cur); ds >= fs {
		t.Fatalf("delta %d bytes >= full %d bytes", ds, fs)
	}
}
