package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// frameCorpus returns one representative envelope per Kind, plus edge
// shapes (empty payloads, negative-ish varints, large piggyback).
func frameCorpus() []*Envelope {
	return []*Envelope{
		{Kind: KindApp, From: 0, To: 1, Incarnation: 0, Tag: 0, SendIndex: 1,
			Piggyback: []byte{1, 2, 3}, Payload: []byte("hello")},
		{Kind: KindRollback, From: 3, To: 0, Incarnation: 2, SendIndex: 0,
			Payload: bytes.Repeat([]byte{0xAB}, 100)},
		{Kind: KindResponse, From: 1, To: 3, Incarnation: 1, Payload: []byte{0}},
		{Kind: KindCkptAdvance, From: 7, To: 2, Incarnation: 5, Payload: []byte{2, 4}},
		{Kind: KindDeterminant, From: 2, To: 6, Tag: -1, SendIndex: 1 << 40,
			Piggyback: bytes.Repeat([]byte{7}, 300)},
		{Kind: KindDeterminantAck, From: 6, To: 2, Incarnation: 1 << 20},
		{Kind: KindApp, From: 31, To: 30, Tag: 99, SendIndex: 12345, Resent: true},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, env := range frameCorpus() {
		buf := AppendFrame(nil, env)
		if len(buf) != FrameSize(env) {
			t.Errorf("FrameSize(%v) = %d, encoded %d", env.Kind, FrameSize(env), len(buf))
		}
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("DecodeFrame(%v): %v", env.Kind, err)
		}
		if n != len(buf) {
			t.Errorf("DecodeFrame(%v) consumed %d of %d", env.Kind, n, len(buf))
		}
		assertEnvelopeEqual(t, env, got)
	}
}

func TestFrameStream(t *testing.T) {
	corpus := frameCorpus()
	var frames []byte
	for _, env := range corpus {
		frames = AppendFrame(frames, env)
	}
	fr := NewFrameReader(bytes.NewReader(frames))
	for i, env := range corpus {
		got, err := fr.Read()
		if err != nil {
			t.Fatalf("Read #%d: %v", i, err)
		}
		assertEnvelopeEqual(t, env, got)
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("Read past end = %v, want io.EOF", err)
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	good := AppendFrame(nil, frameCorpus()[0])

	// Truncations at every prefix length must error, never panic.
	for i := 0; i < len(good); i++ {
		if _, _, err := DecodeFrame(good[:i]); err == nil {
			t.Errorf("DecodeFrame of %d-byte prefix succeeded", i)
		}
	}

	bad := append([]byte(nil), good...)
	bad[0] = 0x00
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrFrameMagic) {
		t.Errorf("bad magic: %v", err)
	}

	bad = append([]byte(nil), good...)
	bad[1] = FrameVersion + 1
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrFrameVersion) {
		t.Errorf("bad version: %v", err)
	}

	// A hostile length prefix must be rejected before allocation.
	huge := []byte{FrameMagic, FrameVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("huge length: %v", err)
	}

	fr := NewFrameReader(bytes.NewReader(good[:len(good)-2]))
	if _, err := fr.Read(); err != io.ErrUnexpectedEOF {
		t.Errorf("stream truncated mid-frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestFrameReaderRejectsVersionSkew(t *testing.T) {
	buf := AppendFrame(nil, frameCorpus()[0])
	buf[1] = 9
	if _, err := NewFrameReader(bytes.NewReader(buf)).Read(); !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("version 9 accepted: %v", err)
	}
}

func assertEnvelopeEqual(t *testing.T, want, got *Envelope) {
	t.Helper()
	// Decode canonicalizes empty slices to nil; normalize before compare.
	w := *want
	if len(w.Piggyback) == 0 {
		w.Piggyback = nil
	}
	if len(w.Payload) == 0 {
		w.Payload = nil
	}
	if !reflect.DeepEqual(&w, got) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v", &w, got)
	}
}
