package wire

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
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

// TestReadVecPairsDispatch: one reader takes all five piggyback forms —
// a full vector yields every element, absolute or relative to the
// channel's base, a delta the sender's element and its pairs, an
// own-only delta the sender's element alone, an empty piggyback nothing
// — and only the absolute full vector reads without a base.
func TestReadVecPairsDispatch(t *testing.T) {
	const s, base = 1, 2
	cur := vclock.Vec{1, 5, 3}
	collect := func(b []byte, base int64) (vclock.Vec, bool, int, error) {
		v, pairs := vclock.Vec{-1, -1, -1}, 0
		var p VecPairs
		p.Reset(b, len(cur), s, base)
		for k, x, ok := p.Next(); ok; k, x, ok = p.Next() {
			v[k] = x
			pairs++
		}
		return v, len(b) > 0 && b[0] == 0, pairs, p.Err()
	}
	for _, c := range []struct {
		name  string
		b     []byte
		full  bool
		pairs int
		want  vclock.Vec
	}{
		{"full", AppendVecSince(nil, cur, s, nil, 0, -1), true, 3, cur},
		{"relative full", AppendVecSince(nil, cur, s, nil, 0, base), false, 3, cur},
		{"delta", AppendVecSince(nil, cur, s, []uint64{0, 0, 2}, 1, base), false, 2, vclock.Vec{-1, 5, 3}},
		{"own-only", AppendVecSince(nil, cur, s, []uint64{0, 2, 0}, 1, base), false, 1, vclock.Vec{-1, 5, -1}},
		{"empty", nil, false, 0, vclock.Vec{-1, -1, -1}},
	} {
		v, full, pairs, err := collect(c.b, base)
		if err != nil || full != c.full || pairs != c.pairs || !v.Equal(c.want) {
			t.Errorf("%s % x: v=%v full=%v pairs=%d err=%v", c.name, c.b, v, full, pairs, err)
		}
		if _, _, _, err := collect(c.b, -1); (err == nil) != c.full {
			t.Errorf("%s without a base: err %v", c.name, err)
		} else if err != nil && !errors.Is(err, ErrNoDeltaBase) {
			t.Errorf("%s without a base: err %v, want ErrNoDeltaBase", c.name, err)
		}
	}
	if own := AppendVecSince(nil, cur, s, []uint64{0, 2, 0}, 1, base); len(own) != 1 {
		t.Errorf("own-only % x is not one byte", own)
	}
}

// TestVecPairsRejectsMalformed: every structural fault of a v4
// piggyback from sender 1 of 3, on a channel whose base is 4, ends the
// walk with an error.
func TestVecPairsRejectsMalformed(t *testing.T) {
	bad := [][]byte{
		{0xFF},                               // truncated header
		{0x08, 0x05, 0x00, 0x00, 0x02, 0x00}, // k = 4 > n
		{0x00},                               // full vector without v[s]
		{0x06},                               // relative full vector without its increment
		{0x00, 0x05, 0x00},                   // full vector one element short
		{0x06, 0x05, 0x00},                   // relative full vector one element short
		{0x00, 0x05, 0x00, 0x00, 0x00},       // trailing byte after a full vector
		{0x06, 0x05, 0x00, 0x00, 0x00},       // trailing byte after a relative full vector
		{0x02, 0x05},                         // delta without its pair
		{0x02, 0x05, 0x00},                   // index without value
		{0x02, 0x05, 0x07, 0x00},             // index >= n
		{0x02, 0x05, 0x01, 0x00},             // index equal to the sender's
		{0x04, 0x05, 0x02, 0x00, 0x00, 0x00}, // indices decreasing
		{0x04, 0x05, 0x02, 0x00, 0x02, 0x00}, // index repeated
		{0x02, 0x00, 0x00, 0x0C},             // 5 - 6: a negative value
		{0x02, 0x05, 0x00, 0x00, 0x00},       // trailing byte after a delta
		{0x03, 0x00},                         // trailing byte after own-only
		{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0}, // v[s] > MaxInt64
		{0x02, 0xFA, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x00, 0x01}, // MaxInt64 - (-1) overflows
		{0xF7, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},             // 4 + 1 + (2^63 - 5): the increment overflows
		{0x06, 0xFB, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x00, 0x00}, // 4 + 1 + (2^63 - 4) in a relative full vector
	}
	for i, b := range bad {
		var p VecPairs
		p.Reset(b, 3, 1, 4)
		for _, _, ok := p.Next(); ok; _, _, ok = p.Next() {
		}
		if p.Err() == nil {
			t.Errorf("case %d (% x): accepted malformed piggyback", i, b)
		}
	}
	// The largest increment that fits reads.
	var p VecPairs
	p.Reset([]byte{0xF5, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, 3, 1, 4)
	if _, v, ok := p.Next(); !ok || v != math.MaxInt64 {
		t.Errorf("4 + 1 + (2^63 - 6): (%d, %v), err %v", v, ok, p.Err())
	}
}

// TestVecSinceSelectsStampedEntries: the differential encoder emits the
// sender's element plus exactly the entries stamped after since, at the
// size and integer count VecSinceSize predicts, and a nil ver selects
// the full vector, absolute or relative.
func TestVecSinceSelectsStampedEntries(t *testing.T) {
	const s, base = 1, 17
	v := vclock.Vec{10, 20, 30, 40}
	ver := []uint64{1, 5, 2, 7}
	for since, want := range map[uint64]vclock.Vec{
		0: {10, 20, 30, 40},
		1: {-1, 20, 30, 40},
		2: {-1, 20, -1, 40},
		5: {-1, 20, -1, 40},
		7: {-1, 20, -1, -1},
	} {
		b := AppendVecSince(nil, v, s, ver, since, base)
		size, ids := VecSinceSize(v, s, ver, since, base)
		if size != len(b) {
			t.Fatalf("since %d: VecSinceSize=%d, encoded %d bytes", since, size, len(b))
		}
		got, pairs := vclock.Vec{-1, -1, -1, -1}, 0
		var p VecPairs
		p.Reset(b, len(v), s, base)
		for k, x, ok := p.Next(); ok; k, x, ok = p.Next() {
			got[k] = x
			pairs++
		}
		wantIDs := 2 + 2*(pairs-1)
		if pairs == 1 {
			wantIDs = 1
		}
		if p.Err() != nil || b[0] == 0 || ids != wantIDs || !got.Equal(want) {
			t.Fatalf("since %d: got %v (%d ids, err %v), want %v", since, got, ids, p.Err(), want)
		}
	}
	for _, base := range []int64{-1, base} {
		b := AppendVecSince(nil, v, s, nil, 0, base)
		if size, ids := VecSinceSize(v, s, nil, 0, base); size != len(b) || ids != len(v) {
			t.Fatalf("full, base %d: VecSinceSize=(%d, %d), encoded %d bytes of %d ids", base, size, ids, len(b), len(v))
		}
	}
}

// varintEdges are values around the zigzag varint length steps: a
// difference below 2^6 takes one byte, below 2^13 two, and so on.
var varintEdges = []int64{0, 1, 1<<6 - 1, 1 << 6, 1<<13 - 1, 1 << 13, 1<<20 - 1, 1 << 20, 1<<27 - 1, 1 << 27, 1 << 40}

// TestVecSinceProperty: for random n <= 64, random non-negative vectors
// whose neighbours sit at varint edges apart or far apart in either
// direction, random changed sets and random channel bases below v[s],
// decoding the encoding against the base yields exactly the listed
// absolute pairs — the sender's element, then the changed ones — at the
// predicted size and id count; max-merging it twice equals merging it
// once; and of the two forms a sender with a base may pick, the smaller
// is the one that carries fewer bytes.
func TestVecSinceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(64)
		s := rng.Intn(n)
		v := vclock.New(n)
		base := int64(1 << 30)
		if rng.Intn(2) == 0 {
			base = rng.Int63n(1 << 50)
		}
		for i := range v {
			d := varintEdges[rng.Intn(len(varintEdges))]
			if rng.Intn(2) == 0 {
				d = -d
			}
			if v[i] = base + d; v[i] < 0 {
				v[i] = -v[i]
			}
			if rng.Intn(8) == 0 {
				v[i] = rng.Int63n(1 << 62)
			}
		}
		v[s] = max(v[s], 1) // a sender that sent before has delivered since
		ver := make([]uint64, n)
		want := [][2]int64{{int64(s), v[s]}}
		for i := range ver {
			if rng.Intn(3) == 0 {
				ver[i] = 2
				if i != s {
					want = append(want, [2]int64{int64(i), v[i]})
				}
			}
		}
		all := [][2]int64{{int64(s), v[s]}}
		for i := range v {
			if i != s {
				all = append(all, [2]int64{int64(i), v[i]})
			}
		}
		// The channel's base sits below v[s], often close to it.
		chBase := v[s] - 1 - rng.Int63n(min(v[s], 1<<rng.Intn(40)))
		var sizes [3]int
		for form, c := range []struct {
			ver   []uint64
			base  int64
			pairs [][2]int64
		}{{ver, chBase, want}, {nil, chBase, all}, {nil, -1, all}} {
			b := AppendVecSince(nil, v, s, c.ver, 1, c.base)
			size, ids := VecSinceSize(v, s, c.ver, 1, c.base)
			got, err := walkPairs(b, n, s, c.base)
			if full := b[0] == 0; err != nil || full != (c.base < 0) || !slices.Equal(got, c.pairs) {
				t.Fatalf("n=%d s=%d v=%v ver=%v base %d: read % x as %v (err %v), want %v", n, s, v, c.ver, c.base, b, got, err, c.pairs)
			}
			wantIDs := n
			if c.ver != nil {
				wantIDs = 2 * len(got)
				if len(got) == 1 {
					wantIDs = 1
				}
			}
			if size != len(b) || ids != wantIDs {
				t.Fatalf("n=%d: predicted %d B / %d ids, encoded %d B / want %d ids", n, size, ids, len(b), wantIDs)
			}
			merged := vclock.New(n)
			for round := 0; round < 2; round++ {
				var p VecPairs
				p.Reset(b, n, s, c.base)
				for k, x, ok := p.Next(); ok; k, x, ok = p.Next() {
					merged[k] = max(merged[k], x)
				}
				if round == 0 {
					continue
				}
				for _, pr := range c.pairs {
					if merged[pr[0]] != pr[1] {
						t.Fatalf("n=%d: re-applying changed element %d to %d", n, pr[0], merged[pr[0]])
					}
				}
			}
			sizes[form] = len(b)
		}
		if n > 1 && len(want) == n && sizes[0] <= sizes[1] {
			t.Fatalf("n=%d: a delta listing every element (%d B) is not larger than the full vector (%d B)", n, sizes[0], sizes[1])
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

// TestVecSinceLayout pins the v4 bytes of each form from sender 1 on a
// channel whose previous piggyback carried v[1] = 17: the absolute full
// vector carries v[1], every other form the increment 20 - 17 - 1 = 2;
// each value after v[s] is the zigzag difference from the one listed
// before it, not from v[s].
func TestVecSinceLayout(t *testing.T) {
	v := vclock.Vec{10, 20, 90, 95}
	for _, c := range []struct {
		name string
		ver  []uint64
		base int64
		want []byte
	}{
		// 20-10 = 10 → 20; 10-90 = -80 → 159 (0x9F 0x01); 90-95 = -5 → 9.
		{"full", nil, -1, []byte{0x00, 20, 20, 0x9F, 0x01, 9}},
		{"relative full", nil, 17, []byte{0x08, 2, 20, 0x9F, 0x01, 9}},
		{"delta", []uint64{0, 2, 2, 2}, 17, []byte{0x04, 2, 2, 0x8B, 0x01, 3, 9}}, // 20-90 = -70 → 139
		{"own-only", []uint64{0, 2, 0, 0}, 17, []byte{0x05}},
	} {
		if got := AppendVecSince(nil, v, 1, c.ver, 1, c.base); !bytes.Equal(got, c.want) {
			t.Errorf("%s: % x, want % x", c.name, got, c.want)
		}
	}
}
