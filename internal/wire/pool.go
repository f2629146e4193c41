// Envelope pooling for the decode paths. A transport decodes into a
// pooled envelope, the harness hands it back once the application is
// done with the message, and since the payload lives in the envelope's
// own scratch the steady state allocates nothing per message. The encode
// side needs no pool: every transport encodes into memory its link owns
// (the fabric's ring, the tcp link's chunks).
package wire

import (
	"encoding/binary"
	"sync"
)

// envPool recycles envelopes for the receive path: a transport decodes
// into a pooled envelope with DecodeInto, the harness recycles it once
// the payload's lend is over. The piggyback and payload scratch ride
// along (pigBuf, payBuf), so a recycled envelope decodes its next
// message without allocating.
var envPool sync.Pool

func init() { envPool.New = newEnvelopeSlab }

// Pool misses come in bursts — a recovery resend fills an inbox far
// faster than the recovering rank drains it, and the garbage collector
// empties the pool between bursts — so a miss allocates a slab: envSlab
// envelopes, each with an inline piggyback scratch that holds a full
// vector for up to a dozen ranks and an inline payload scratch that
// holds a flood-sized payload, in one allocation. One is returned, the
// rest are banked in the pool. An envelope still referenced keeps its
// slab (7.5 KiB) alive.
const (
	envSlab      = 32
	envPigInline = 32
	envPayInline = 32
)

type envSlot struct {
	env Envelope
	pig [envPigInline]byte
	pay [envPayInline]byte
}

func newEnvelopeSlab() any {
	slab := make([]envSlot, envSlab)
	for i := range slab {
		slab[i].env.pigBuf = slab[i].pig[:0]
		slab[i].env.payBuf = slab[i].pay[:0]
		if i > 0 {
			envPool.Put(&slab[i].env)
		}
	}
	return &slab[0].env
}

// GetEnvelope returns a zeroed envelope from the pool, marked so that
// Recycle will accept it back. Envelopes constructed with a literal are
// never pooled — Recycle ignores them — so test fixtures and sender-side
// envelopes need no special handling.
func GetEnvelope() *Envelope {
	e := envPool.Get().(*Envelope)
	e.pooled = true
	return e
}

// CopyInto deep-copies src into dst, giving the receiver its own
// envelope with no slice shared with the sender: the piggyback lands in
// dst's piggyback scratch, the payload is placed by setPayload. It is the
// inline-delivery equivalent of an encode/decode round trip, minus the
// varint work; the queued fabric path and the TCP transport still
// round-trip every message through the wire format.
func CopyInto(dst, src *Envelope) {
	pig, pay, pooled := dst.pigBuf, dst.payBuf, dst.pooled
	*dst = *src
	dst.pigBuf, dst.payBuf, dst.pooled = pig, pay[:0], pooled
	if len(src.Piggyback) > 0 {
		dst.pigBuf = append(dst.pigBuf[:0], src.Piggyback...)
		dst.Piggyback = dst.pigBuf
	} else {
		dst.Piggyback = nil
	}
	dst.setPayload(src.Payload)
}

// Poison is the byte Recycle writes over every payload byte it lent.
const Poison byte = 0xA5

// setPayload gives e a copy of src, and is the one place the
// payload-ownership rule is decided. Application and CHECKPOINT_ADVANCE
// payloads up to ArenaMax are copied into e's payload scratch: they are
// lent, valid until e is recycled, and the scratch grows to the largest
// such payload once and is kept. Protocols slice the other control
// payloads (ROLLBACK vectors, RESPONSE recovery data) into state that
// outlives the recovery, so those, like any payload over ArenaMax, are an
// allocation of their own. An advance is read into two integers and kept
// by no one. Either way the slice is capacity-clipped, so an append by
// its holder copies out.
func (e *Envelope) setPayload(src []byte) {
	n := len(src)
	switch {
	case n == 0:
		e.Payload = nil
	case (e.Kind == KindApp || e.Kind == KindCkptAdvance) && n <= ArenaMax:
		e.payBuf = append(e.payBuf[:0], src...) // amortised: grows to the largest lent payload once, then reused
		e.Payload = e.payBuf[:n:n]
	default:
		e.Payload = make([]byte, n) // control or oversize: the slice owns its allocation
		copy(e.Payload, src)
	}
}

// Recycle returns an envelope obtained from GetEnvelope to the pool,
// dropping every reference it holds. The payload bytes it lent (see
// setPayload) are overwritten with Poison first: a holder that kept a
// lent payload past its lend reads poison, not its old bytes, until the
// envelope carries a later message. Safe
// to call on nil, on envelopes that did not come from the pool, and at
// most once per GetEnvelope: the pooled mark is cleared on the way in,
// so a double recycle is a no-op rather than a double free.
func Recycle(e *Envelope) {
	if e == nil || !e.pooled {
		return
	}
	pay := e.payBuf
	for i := range pay {
		pay[i] = Poison
	}
	*e = Envelope{pigBuf: e.pigBuf[:0], payBuf: pay[:0]}
	envPool.Put(e)
}

// DecodeInto parses an envelope previously produced by Encode into e,
// reusing e's piggyback and payload scratch. Neither aliases b: the
// piggyback is copied into its scratch, the payload placed by setPayload
// — lent from e's scratch until e is recycled, or, for the other control
// kinds and oversize payloads, an allocation of its own. On error e's
// contents are unspecified.
func DecodeInto(e *Envelope, b []byte) error {
	if len(b) < 2 {
		return ErrTruncated
	}
	flags := b[1]
	pig, pay, pooled := e.pigBuf, e.payBuf, e.pooled
	*e = Envelope{Kind: Kind(b[0]), Resent: flags&flagResent != 0, pigBuf: pig, payBuf: pay[:0], pooled: pooled}
	i := 2
	readInt := func() (int64, error) {
		v, n := binary.Varint(b[i:])
		if n <= 0 {
			return 0, ErrTruncated
		}
		i += n
		return v, nil
	}
	v, err := readInt()
	if err != nil {
		return err
	}
	e.From = int(v)
	if v, err = readInt(); err != nil {
		return err
	}
	e.To = int(v)
	if v, err = readInt(); err != nil {
		return err
	}
	e.Incarnation = int32(v)
	if v, err = readInt(); err != nil {
		return err
	}
	e.Tag = int32(v)
	if e.SendIndex, err = readInt(); err != nil {
		return err
	}
	// Piggyback: copied into the reused scratch. Protocols decode it
	// during Deliverable/OnDeliver and never retain the raw bytes, so
	// the scratch may be overwritten once the envelope is recycled.
	l, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return ErrTruncated
	}
	i += n
	if uint64(len(b)-i) < l {
		return ErrTruncated
	}
	if l > 0 {
		e.pigBuf = append(e.pigBuf[:0], b[i:i+int(l)]...)
		e.Piggyback = e.pigBuf
		i += int(l)
	}
	// Payload: a copy, lent or owned (see setPayload).
	l, n = binary.Uvarint(b[i:])
	if n <= 0 {
		return ErrTruncated
	}
	i += n
	if uint64(len(b)-i) < l {
		return ErrTruncated
	}
	e.setPayload(b[i : i+int(l)])
	i += int(l)
	if flags&flagSpan != 0 {
		readUint := func() (uint64, error) {
			v, n := binary.Uvarint(b[i:])
			if n <= 0 {
				return 0, ErrTruncated
			}
			i += n
			return v, nil
		}
		if e.Span.Trace, err = readUint(); err != nil {
			return err
		}
		if e.Span.Span, err = readUint(); err != nil {
			return err
		}
		if e.Span.Parent, err = readUint(); err != nil {
			return err
		}
	}
	return nil
}
