package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// decodeStream is the reference: DecodeFrame applied repeatedly to the
// whole stream. It returns the frames decoded and the error that
// stopped it (nil at a clean end).
func decodeStream(b []byte) ([]*Envelope, error) {
	var out []*Envelope
	for len(b) > 0 {
		env, n, err := DecodeFrame(b)
		if err != nil {
			return out, err
		}
		out = append(out, env)
		b = b[n:]
	}
	return out, nil
}

// decodePieces feeds b to DecodeFrameInto the way a transport does: the
// stream arrives in pieces of cut() bytes, every complete frame is
// decoded as soon as it is there, the tail is kept. It returns the
// frames, the undecoded tail and the corruption error, if any. Like a
// transport's connection it decodes into pooled envelopes, recycled
// frame after frame, so the differential below also holds DecodeFrame
// (own allocations) against payloads lent from reused scratch.
func decodePieces(b []byte, cut func() int) ([]*Envelope, []byte, error) {
	var out []*Envelope
	var buf []byte
	for len(b) > 0 {
		k := min(max(cut(), 1), len(b))
		buf = append(buf, b[:k]...)
		b = b[k:]
		for {
			env := GetEnvelope()
			n, err := DecodeFrameInto(env, buf)
			if err != nil {
				return out, buf, err
			}
			if n == 0 {
				Recycle(env)
				break
			}
			// Copy out of the pooled envelope before Recycle poisons
			// its lent payload, as DecodeFrame's fresh one would hold
			// it, so the two sequences compare equal.
			out = append(out, &Envelope{
				Kind: env.Kind, From: env.From, To: env.To, Incarnation: env.Incarnation,
				Tag: env.Tag, SendIndex: env.SendIndex, Resent: env.Resent, Span: env.Span,
				Piggyback: bytes.Clone(env.Piggyback), Payload: bytes.Clone(env.Payload),
			})
			Recycle(env)
			buf = buf[n:]
		}
	}
	return out, buf, nil
}

// checkStreamAgrees is the differential property FuzzFrameStream and
// the tests below share: however the stream is cut, the incremental
// decoder yields exactly the frames DecodeFrame yields on the
// concatenation, calls a stream corrupt only where DecodeFrame fails,
// and keeps a tail only where DecodeFrame reports truncation.
func checkStreamAgrees(t *testing.T, b []byte, cut func() int) (frames int) {
	t.Helper()
	want, wantErr := decodeStream(b)
	got, tail, err := decodePieces(b, cut)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental decode yielded %d frames, DecodeFrame %d:\ngot  %+v\nwant %+v", len(got), len(want), got, want)
	}
	switch {
	case err != nil:
		if wantErr == nil {
			t.Fatalf("incremental decoder failed with %v on a stream DecodeFrame accepts", err)
		}
		for _, class := range []error{ErrFrameMagic, ErrFrameVersion, ErrFrameTooLarge} {
			if errors.Is(err, class) != errors.Is(wantErr, class) {
				t.Fatalf("incremental decoder failed with %v, DecodeFrame with %v", err, wantErr)
			}
		}
	case len(tail) > 0:
		if !errors.Is(wantErr, ErrTruncated) {
			t.Fatalf("incremental decoder kept a %d-byte tail, DecodeFrame said %v", len(tail), wantErr)
		}
	case wantErr != nil:
		t.Fatalf("incremental decoder consumed a stream DecodeFrame rejects with %v", wantErr)
	}
	return len(got)
}

// randomFrames frames n random envelopes back to back and returns the
// stream and each frame's start offset.
func randomFrames(rng *rand.Rand, n int) (stream []byte, starts []int) {
	blob := func(max int) []byte {
		b := make([]byte, rng.Intn(max))
		rng.Read(b)
		return b
	}
	for i := 0; i < n; i++ {
		env := &Envelope{
			Kind: Kind(1 + rng.Intn(6)), From: rng.Intn(64), To: rng.Intn(64),
			Incarnation: int32(rng.Intn(5)), Tag: int32(rng.Intn(200) - 100),
			SendIndex: rng.Int63n(1 << 40), Resent: rng.Intn(8) == 0,
			Piggyback: blob(40), Payload: blob(3000),
		}
		if rng.Intn(4) == 0 {
			env.Span.Trace, env.Span.Span, env.Span.Parent = rng.Uint64()|1, rng.Uint64(), rng.Uint64()
		}
		starts = append(starts, len(stream))
		stream = AppendFrame(stream, env)
	}
	return stream, starts
}

// TestFrameStreamSplits: random frames, concatenated and fed in random
// split sizes — from a byte at a time to several frames at once — decode
// to exactly the DecodeFrame sequence.
func TestFrameStreamSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 50; round++ {
		stream, starts := randomFrames(rng, 1+rng.Intn(20))
		maxCut := []int{1, 7, 300, 5000, len(stream)}[round%5]
		if got := checkStreamAgrees(t, stream, func() int { return 1 + rng.Intn(maxCut) }); got != len(starts) {
			t.Fatalf("round %d: decoded %d of %d frames", round, got, len(starts))
		}
	}
}

// TestFrameStreamCorruption: a flipped byte never panics and never
// breaks agreement with DecodeFrame; flipped in a frame's magic or
// version byte it is an error, reported after exactly the frames
// written before it. (The format carries no checksum, so a flip inside
// a body can decode — to whatever DecodeFrame also makes of it.)
func TestFrameStreamCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for round := 0; round < 200; round++ {
		stream, starts := randomFrames(rng, 1+rng.Intn(8))
		cut := func() int { return 1 + rng.Intn(400) }

		anywhere := bytes.Clone(stream)
		anywhere[rng.Intn(len(anywhere))] ^= 1 << rng.Intn(8)
		checkStreamAgrees(t, anywhere, cut)

		k := rng.Intn(len(starts))
		header := bytes.Clone(stream)
		header[starts[k]+rng.Intn(2)] ^= 1 << rng.Intn(8)
		got, _, err := decodePieces(header, cut)
		if !errors.Is(err, ErrFrameMagic) && !errors.Is(err, ErrFrameVersion) {
			t.Fatalf("round %d: corrupt header of frame %d gave error %v", round, k, err)
		}
		want, _ := decodeStream(stream[:starts[k]])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: %d frames before the corrupt header, want the %d written", round, len(got), k)
		}
	}
}

// FuzzFrameStream: arbitrary bytes cut at arbitrary points through the
// incremental decoder must agree with DecodeFrame on the concatenation.
// cuts gives the piece sizes, cycled.
func FuzzFrameStream(f *testing.F) {
	var stream []byte
	for _, env := range frameCorpus() {
		stream = AppendFrame(stream, env)
	}
	f.Add(stream, []byte{0})
	f.Add(stream, []byte{1, 40, 3})
	f.Add(stream[:len(stream)-3], []byte{200})
	f.Add([]byte{FrameMagic, FrameVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, []byte{2})
	f.Fuzz(func(t *testing.T, b, cuts []byte) {
		i := 0
		checkStreamAgrees(t, b, func() int {
			if len(cuts) == 0 {
				return len(b)
			}
			i++
			return int(cuts[i%len(cuts)])
		})
	})
}
