// Package wire defines the binary envelope format every message in the
// simulated cluster travels in, plus small codec helpers (varint vectors)
// shared by the logging protocols' piggyback encoders.
//
// The format is a compact varint framing, not a general-purpose
// serialization: the fabric is in-process, so the encoding exists to make
// byte accounting honest (piggyback size in Fig. 6 is measured on real
// encoded bytes) and to force protocols to round-trip their state the way
// a networked implementation would.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"windar/internal/vclock"
	"windar/layer"
)

// Kind discriminates the envelope types used by the rollback-recovery
// layer. Application payloads and every control message of Algorithm 1
// share one envelope format so that the fabric treats them uniformly.
type Kind uint8

const (
	// KindApp is an application message: logged by its sender,
	// piggybacked with protocol metadata, subject to delivery control.
	KindApp Kind = 1 + iota
	// KindRollback is the ROLLBACK broadcast an incarnation sends after
	// restoring its last checkpoint (Algorithm 1 line 46). Its payload is
	// the checkpointed last_deliver_index vector.
	KindRollback
	// KindResponse answers a ROLLBACK (line 48). Its payload carries the
	// responder's last_deliver_index entry for the recovering process so
	// repetitive sends can be suppressed.
	KindResponse
	// KindCkptAdvance is the CHECKPOINT_ADVANCE log-release notice
	// (line 36): the payload carries the checkpointed deliver index so
	// the receiver can free log items that can never be replayed again.
	KindCkptAdvance
	// KindDeterminant carries a batch of delivery-event determinants from
	// a process to the TEL stable event logger.
	KindDeterminant
	// KindDeterminantAck is the event logger's acknowledgement, carrying
	// the per-process stable event counts.
	KindDeterminantAck
)

// String implements fmt.Stringer for diagnostics and traces.
func (k Kind) String() string {
	switch k {
	case KindApp:
		return "APP"
	case KindRollback:
		return "ROLLBACK"
	case KindResponse:
		return "RESPONSE"
	case KindCkptAdvance:
		return "CKPT_ADVANCE"
	case KindDeterminant:
		return "DETERMINANT"
	case KindDeterminantAck:
		return "DETERMINANT_ACK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Envelope is the unit the fabric transports between ranks.
type Envelope struct {
	Kind        Kind
	From        int   // sender rank
	To          int   // destination rank
	Incarnation int32 // sender incarnation number at send time
	Tag         int32 // application tag (KindApp only)
	// SendIndex is the per-(From,To) application message counter
	// (last_send_index[To] at the sender when the message left). It
	// identifies the message for duplicate suppression and log replay.
	SendIndex int64
	// Resent marks a message re-transmitted from a sender log during a
	// peer's rolling forward, for tracing and metrics only — receivers
	// must treat resent and fresh copies identically.
	Resent    bool
	Piggyback []byte // protocol-owned metadata
	Payload   []byte // application bytes or control body
	// Span is the optional causal span context (flag bit flagSpan). A
	// zero context encodes exactly as the pre-span format, so traced and
	// untraced peers interoperate and old traces decode unchanged.
	Span layer.SpanContext

	// pigBuf and payBuf are DecodeInto's piggyback and payload scratch:
	// Piggyback, and a lent Payload, alias them after a pooled decode,
	// so the storage survives Recycle and the next decode reuses it.
	// pooled marks an envelope obtained from GetEnvelope as eligible for
	// Recycle (see pool.go).
	pigBuf []byte
	payBuf []byte
	pooled bool
}

// Envelope flag bits (the second encoded byte).
const (
	// flagResent marks a sender-log retransmission.
	flagResent byte = 1 << 0
	// flagSpan marks a span context appended after the payload (three
	// uvarints: trace, span, parent). Appending keeps the format
	// versioned and backward compatible: decoders that predate the flag
	// parse every original field identically and ignore the trailing
	// span bytes.
	flagSpan byte = 1 << 1
)

// Encode serializes e into a fresh byte slice.
func Encode(e *Envelope) []byte {
	return AppendEncode(make([]byte, 0, 32+len(e.Piggyback)+len(e.Payload)), e)
}

// AppendEncode appends e's encoding to buf and returns the extended
// slice. It is the allocation-free core of Encode: callers that reuse a
// buffer (the framed stream writers, the fabric's per-link ring)
// pay no per-message allocation once the buffer has grown to a steady
// size.
func AppendEncode(buf []byte, e *Envelope) []byte {
	buf = append(buf, byte(e.Kind))
	var flags byte
	if e.Resent {
		flags |= flagResent
	}
	if !e.Span.IsZero() {
		flags |= flagSpan
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, int64(e.From))
	buf = binary.AppendVarint(buf, int64(e.To))
	buf = binary.AppendVarint(buf, int64(e.Incarnation))
	buf = binary.AppendVarint(buf, int64(e.Tag))
	buf = binary.AppendVarint(buf, e.SendIndex)
	buf = binary.AppendUvarint(buf, uint64(len(e.Piggyback)))
	buf = append(buf, e.Piggyback...)
	buf = binary.AppendUvarint(buf, uint64(len(e.Payload)))
	buf = append(buf, e.Payload...)
	if flags&flagSpan != 0 {
		buf = binary.AppendUvarint(buf, e.Span.Trace)
		buf = binary.AppendUvarint(buf, e.Span.Span)
		buf = binary.AppendUvarint(buf, e.Span.Parent)
	}
	return buf
}

// ErrTruncated reports a decode that ran out of bytes.
var ErrTruncated = errors.New("wire: truncated envelope")

// Decode parses an envelope previously produced by Encode into a fresh
// envelope that owns every byte it references. Empty piggybacks and
// payloads decode to nil.
func Decode(b []byte) (*Envelope, error) {
	e := new(Envelope)
	if err := DecodeInto(e, b); err != nil {
		return nil, err
	}
	e.pigBuf, e.payBuf = nil, nil // never recycled: Piggyback and Payload alone keep the bytes
	return e, nil
}

// EncodedSize returns the number of bytes Encode would produce without
// allocating the buffer. The fabric uses it for transmission-time and
// bandwidth accounting.
func EncodedSize(e *Envelope) int {
	n := 2
	n += VarintLen(int64(e.From))
	n += VarintLen(int64(e.To))
	n += VarintLen(int64(e.Incarnation))
	n += VarintLen(int64(e.Tag))
	n += VarintLen(e.SendIndex)
	n += UvarintLen(uint64(len(e.Piggyback))) + len(e.Piggyback)
	n += UvarintLen(uint64(len(e.Payload))) + len(e.Payload)
	if !e.Span.IsZero() {
		n += UvarintLen(e.Span.Trace) + UvarintLen(e.Span.Span) + UvarintLen(e.Span.Parent)
	}
	return n
}

// VarintLen returns the number of bytes binary.AppendVarint emits for v.
func VarintLen(v int64) int { return UvarintLen(uint64(v)<<1 ^ uint64(v>>63)) }

// UvarintLen returns the number of bytes binary.AppendUvarint emits for
// v: seven value bits per byte.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendVec appends a length-prefixed varint encoding of v to buf and
// returns the extended slice: the vector field of checkpoints, control
// messages and snapshots. (TDI's piggyback has its own layout, v3.)
func AppendVec(buf []byte, v vclock.Vec) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = binary.AppendVarint(buf, x)
	}
	return buf
}

// ReadVec decodes a vector written by AppendVec from b, returning the
// vector and the number of bytes consumed.
func ReadVec(b []byte) (vclock.Vec, int, error) {
	return ReadVecInto(nil, b)
}

// ReadVecInto is ReadVec decoding into dst: when dst already has the
// encoded length its storage is reused, making the steady-state decode
// allocation-free; otherwise a fresh vector is allocated. On error dst's
// contents are unspecified and the returned vector is nil.
func ReadVecInto(dst vclock.Vec, b []byte) (vclock.Vec, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, ErrTruncated
	}
	i := n
	if l > uint64(len(b)) { // cheap sanity bound before allocating
		return nil, 0, ErrTruncated
	}
	v := dst
	if uint64(len(v)) != l {
		v = vclock.New(int(l))
	}
	for j := range v {
		x, m := binary.Varint(b[i:])
		if m <= 0 {
			return nil, 0, ErrTruncated
		}
		v[j] = x
		i += m
	}
	return v, i, nil
}
