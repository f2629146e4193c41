package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the envelope decoder. Decode must
// never panic, and any envelope it accepts must re-encode to a form that
// decodes to the identical envelope (the codec is stable after one
// round). DecodeInto into one reused envelope across every input — its
// scratch lending each payload, as on a connection — must accept exactly
// what Decode accepts and yield the same envelope.
func FuzzDecode(f *testing.F) {
	var reused Envelope
	for _, env := range frameCorpus() {
		f.Add(Encode(env))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindApp)})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := Decode(b)
		if rerr := DecodeInto(&reused, b); (rerr == nil) != (err == nil) {
			t.Fatalf("Decode said %v, DecodeInto into a reused envelope %v", err, rerr)
		}
		if err != nil {
			return
		}
		got := reused
		got.pigBuf, got.payBuf = nil, nil
		if !reflect.DeepEqual(&got, env) {
			t.Fatalf("decode into a reused envelope differs:\nreused %+v\nfresh  %+v", &got, env)
		}
		re := Encode(env)
		env2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of accepted envelope failed: %v", err)
		}
		if env.Kind != env2.Kind || env.From != env2.From || env.To != env2.To ||
			env.Incarnation != env2.Incarnation || env.Tag != env2.Tag ||
			env.SendIndex != env2.SendIndex || env.Resent != env2.Resent ||
			!bytes.Equal(env.Piggyback, env2.Piggyback) || !bytes.Equal(env.Payload, env2.Payload) {
			t.Fatalf("unstable round trip:\nfirst  %+v\nsecond %+v", env, env2)
		}
		if len(Encode(env2)) != EncodedSize(env2) {
			t.Fatalf("EncodedSize disagrees with Encode for %+v", env2)
		}
	})
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame parser: no panics,
// no unbounded allocation from hostile length prefixes, and any accepted
// frame must survive a re-frame round trip.
func FuzzDecodeFrame(f *testing.F) {
	for _, env := range frameCorpus() {
		f.Add(AppendFrame(nil, env))
	}
	f.Add([]byte{FrameMagic})
	f.Add([]byte{FrameMagic, FrameVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, b []byte) {
		env, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(b))
		}
		re := AppendFrame(nil, env)
		env2, _, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if env.Kind != env2.Kind || env.SendIndex != env2.SendIndex ||
			!bytes.Equal(env.Payload, env2.Payload) || !bytes.Equal(env.Piggyback, env2.Piggyback) {
			t.Fatalf("unstable frame round trip:\nfirst  %+v\nsecond %+v", env, env2)
		}
	})
}

// FuzzReadVec guards the shared piggyback vector codec against corrupt
// input: ReadVec must never panic nor allocate beyond its input size.
func FuzzReadVec(f *testing.F) {
	f.Add([]byte{0})
	f.Add(AppendVec(nil, []int64{1, -5, 1 << 40}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := ReadVec(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("ReadVec consumed %d of %d bytes", n, len(b))
		}
		re := AppendVec(nil, v)
		v2, _, err := ReadVec(re)
		if err != nil {
			t.Fatalf("re-decode of accepted vector failed: %v", err)
		}
		if len(v) != len(v2) {
			t.Fatalf("unstable vector round trip: %v vs %v", v, v2)
		}
		for i := range v {
			if v[i] != v2[i] {
				t.Fatalf("unstable vector round trip at %d: %v vs %v", i, v, v2)
			}
		}
	})
}
