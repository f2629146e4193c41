package wire

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"windar/internal/vclock"
)

func benchEnvelope(payload, pig int) *Envelope {
	return &Envelope{
		Kind: KindApp, From: 3, To: 17, Incarnation: 1, Tag: 42,
		SendIndex: 123456,
		Piggyback: make([]byte, pig),
		Payload:   make([]byte, payload),
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, c := range []struct {
		name         string
		payload, pig int
	}{
		{"small", 64, 32},
		{"luLine", 480, 32},
		{"btFace", 28800, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			env := benchEnvelope(c.payload, c.pig)
			b.ReportAllocs()
			b.SetBytes(int64(EncodedSize(env)))
			for i := 0; i < b.N; i++ {
				_ = Encode(env)
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, c := range []struct {
		name         string
		payload, pig int
	}{
		{"small", 64, 32},
		{"btFace", 28800, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := Encode(benchEnvelope(c.payload, c.pig))
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				if _, err := Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameWrite measures the pooled framed-encode hot path used by
// the tcp transport: AppendFrame into one reused buffer per envelope.
func BenchmarkFrameWrite(b *testing.B) {
	for _, c := range []struct {
		name         string
		payload, pig int
	}{
		{"small", 64, 32},
		{"btFace", 28800, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			env := benchEnvelope(c.payload, c.pig)
			var buf []byte
			b.ReportAllocs()
			b.SetBytes(int64(FrameSize(env)))
			for i := 0; i < b.N; i++ {
				buf = AppendFrame(buf[:0], env)
			}
		})
	}
}

// TestEncodeAllocRegression pins the allocation counts of the envelope
// encode paths: the seed baseline (Encode) allocates one buffer per
// message; appending into a reused buffer must allocate nothing.
func TestEncodeAllocRegression(t *testing.T) {
	env := benchEnvelope(480, 32)

	baseline := testing.AllocsPerRun(200, func() {
		_ = Encode(env)
	})
	if baseline < 1 {
		t.Fatalf("seed baseline Encode allocates %.1f/op; expected at least 1 (the buffer)", baseline)
	}

	buf := AppendEncode(nil, env) // warm the reused buffer
	appendPath := testing.AllocsPerRun(200, func() {
		buf = AppendEncode(buf[:0], env)
	})
	if appendPath != 0 {
		t.Errorf("AppendEncode into a warm buffer allocates %.1f/op, want 0", appendPath)
	}
}

// TestDecodeAllocRegression pins the framed decode path: FrameReader
// reuses its body buffer, so reading a framed envelope from a stream
// must not allocate more than the bare Decode baseline (which must copy
// out the envelope, piggyback and payload).
func TestDecodeAllocRegression(t *testing.T) {
	env := benchEnvelope(480, 32)
	encoded := Encode(env)

	baseline := testing.AllocsPerRun(200, func() {
		if _, err := Decode(encoded); err != nil {
			t.Fatal(err)
		}
	})

	framed := AppendFrame(nil, env)
	var stream bytes.Reader
	fr := NewFrameReader(&stream)
	stream.Reset(framed)
	if _, err := fr.Read(); err != nil { // warm the body buffer
		t.Fatal(err)
	}
	pooled := testing.AllocsPerRun(200, func() {
		stream.Reset(framed)
		if _, err := fr.Read(); err != nil {
			t.Fatal(err)
		}
	})
	// The framed path adds stream handling on top of Decode; buffer reuse
	// must make that addition free.
	if pooled > baseline {
		t.Errorf("framed decode allocates %.1f/op, bare Decode %.1f/op; frame buffer pooling regressed",
			pooled, baseline)
	}
}

// vecForm is one of TDI's four piggyback forms (wire format v4) of an
// n-element vector from sender 1: the arguments AppendVecSince takes,
// and the channel base VecPairs.Reset reads it against.
type vecForm struct {
	name  string
	v     vclock.Vec
	ver   []uint64
	since uint64
	base  int64
}

// vecForms returns the own-only, delta (two pairs), relative full and
// absolute full forms of one n-element vector, n >= 4.
func vecForms(n int) []vecForm {
	v := vclock.New(n)
	for i := range v {
		v[i] = int64(i*1000 + 7)
	}
	delta := make([]uint64, n)
	delta[0], delta[n-1] = 2, 2
	base := v[1] - 3
	return []vecForm{
		{"own", v, make([]uint64, n), 1, base},
		{"delta", v, delta, 1, base},
		{"relative", v, nil, 0, base},
		{"absolute", v, nil, 0, -1},
	}
}

// roundTrip encodes f into buf and walks it back through p, returning
// the reused buffer.
func (f vecForm) roundTrip(tb testing.TB, buf []byte, p *VecPairs) []byte {
	buf = AppendVecSince(buf[:0], f.v, 1, f.ver, f.since, f.base)
	p.Reset(buf, len(f.v), 1, f.base)
	for _, _, ok := p.Next(); ok; _, _, ok = p.Next() {
	}
	if err := p.Err(); err != nil {
		tb.Fatalf("%s: %v", f.name, err)
	}
	return buf
}

// BenchmarkVecCodec times TDI's piggyback codec, AppendVecSince into a
// reused buffer and a VecPairs walk, on each of its four forms.
func BenchmarkVecCodec(b *testing.B) {
	for _, n := range []int{4, 32} {
		for _, f := range vecForms(n) {
			b.Run(fmt.Sprintf("n%d/%s", n, f.name), func(b *testing.B) {
				var p VecPairs
				buf := f.roundTrip(b, nil, &p)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf = f.roundTrip(b, buf, &p)
				}
			})
		}
	}
}

// allocWindow is how many calls allocFree makes, and windowMallocs how
// many allocations it forgives: the window itself costs a constant
// handful, however many calls it spans.
const allocWindow, windowMallocs = 65536, 8

// allocFree reports whether allocWindow calls of f allocate nothing,
// counted exactly: testing.AllocsPerRun truncates, so it would read an
// allocation amortised over a few calls as none, while here one every
// 4 096 calls fails.
func allocFree(f func()) (uint64, bool) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocWindow; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	return got, got <= windowMallocs
}

// TestVecCodecAllocFree holds the vector codecs to zero allocations into
// warm buffers: BenchmarkVecCodec's four piggyback forms, and the
// base-relative delta and plain vector readers.
func TestVecCodecAllocFree(t *testing.T) {
	for _, n := range []int{4, 32} {
		for _, f := range vecForms(n) {
			var p VecPairs
			buf := f.roundTrip(t, nil, &p)
			if got, ok := allocFree(func() { buf = f.roundTrip(t, buf, &p) }); !ok {
				t.Errorf("n%d/%s: %d allocs in %d calls, want 0", n, f.name, got, allocWindow)
			}
		}
		base, cur := vclock.New(n), vclock.New(n)
		cur[0], cur[n-1] = 5, 9
		delta := AppendVecDelta(nil, base, cur)
		full := AppendVec(nil, cur)
		dst := vclock.New(n)
		if got, ok := allocFree(func() {
			delta = AppendVecDelta(delta[:0], base, cur)
			dst, _, _ = ReadVecDeltaInto(dst, delta, base)
			full = AppendVec(full[:0], cur)
			dst, _, _ = ReadVecInto(dst, full)
		}); !ok {
			t.Errorf("n%d: delta and plain vector codecs: %d allocs in %d calls, want 0", n, got, allocWindow)
		}
	}
}
