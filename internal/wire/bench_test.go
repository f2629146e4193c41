package wire

import (
	"bytes"
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

func BenchmarkVecCodec(b *testing.B) {
	for _, n := range []int{4, 32} {
		b.Run(map[int]string{4: "n4", 32: "n32"}[n], func(b *testing.B) {
			v := vclock.New(n)
			for i := range v {
				v[i] = int64(i * 1000)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf := AppendVec(nil, v)
				if _, _, err := ReadVec(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
