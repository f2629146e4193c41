package wire

import (
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
// every (base, cur) pair must decode back to cur exactly, and
// ReadVecPairs must yield exactly the pairs where cur differs from base.
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
		applied := base.Clone()
		p := ReadVecPairs(enc, len(base))
		if p.Full() {
			t.Fatal("a delta read as a full vector")
		}
		for k, x, ok := p.Next(); ok; k, x, ok = p.Next() {
			if base[k] == x {
				t.Fatalf("pair (%d, %d) for an unchanged element", k, x)
			}
			applied[k] = x
		}
		if p.Err() != nil || !applied.Equal(cur) {
			t.Fatalf("pairs applied to base gave %v (err %v), want %v", applied, p.Err(), cur)
		}
	})
}
