// Envelope pooling for the decode paths. A transport decodes into a
// pooled envelope, the harness hands it back once the message is
// delivered, and with an Arena behind the payload copy the steady state
// allocates nothing per message. The encode side needs no pool: every
// transport encodes into memory its link owns (the fabric's ring, the tcp
// link's chunks).
package wire

import (
	"encoding/binary"
	"sync"
)

// envPool recycles envelopes for the receive path: a transport decodes
// into a pooled envelope with DecodeInto, the harness recycles it after
// the delivery commits. The piggyback scratch rides along (pigBuf), so a
// recycled envelope decodes its next piggyback without allocating.
var envPool sync.Pool

func init() { envPool.New = newEnvelopeSlab }

// Pool misses come in bursts — a recovery resend fills an inbox far
// faster than the recovering rank drains it, and the garbage collector
// empties the pool between bursts — so a miss allocates a slab: envSlab
// envelopes, each with an inline piggyback scratch that holds a full
// vector for up to a dozen ranks, in one allocation. One is returned, the
// rest are banked in the pool. An envelope still referenced keeps its
// slab (6 KiB) alive.
const (
	envSlab      = 32
	envPigInline = 32
)

type envSlot struct {
	env Envelope
	pig [envPigInline]byte
}

func newEnvelopeSlab() any {
	slab := make([]envSlot, envSlab)
	for i := range slab {
		slab[i].env.pigBuf = slab[i].pig[:0]
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

// CopyInto is CopyIntoArena without an arena: the payload copy is an
// allocation of its own.
func CopyInto(dst, src *Envelope) { CopyIntoArena(dst, src, nil) }

// CopyIntoArena deep-copies src into dst, giving the receiver its own
// envelope with no slice shared with the sender: the piggyback lands in
// dst's reusable scratch, the payload is copied under DecodeInto's
// ownership contract (into a, when payloadArena says so). It is the
// inline-delivery equivalent of an encode/decode round trip, minus the
// varint work; the queued fabric path and the TCP transport still
// round-trip every message through the wire format.
func CopyIntoArena(dst, src *Envelope, a *Arena) {
	pig, pooled := dst.pigBuf, dst.pooled
	*dst = *src
	dst.pigBuf, dst.pooled = pig, pooled
	if len(src.Piggyback) > 0 {
		dst.pigBuf = append(dst.pigBuf[:0], src.Piggyback...)
		dst.Piggyback = dst.pigBuf
	} else {
		dst.Piggyback = nil
	}
	dst.Payload = payloadArena(src.Kind, a).Copy(src.Payload)
}

// payloadArena is the one place the payload-ownership rule is decided:
// application and CHECKPOINT_ADVANCE payloads are cut from an arena.
// Protocols slice the other control payloads (ROLLBACK vectors, RESPONSE
// recovery data) into state that outlives the recovery, and a few
// retained bytes must not pin a chunk of delivered application data, so
// those stay allocations of their own. An advance is read into two
// integers and kept by no one.
func payloadArena(k Kind, a *Arena) *Arena {
	if k != KindApp && k != KindCkptAdvance {
		return nil
	}
	return a
}

// Recycle returns an envelope obtained from GetEnvelope to the pool,
// dropping every reference it holds (the payload's bytes are never
// reused — see DecodeInto). Safe to call on nil, on envelopes that did
// not come from the pool, and at most once per GetEnvelope: the pooled
// mark is cleared on the way in, so a double recycle is a no-op rather
// than a double free.
func Recycle(e *Envelope) {
	if e == nil || !e.pooled {
		return
	}
	pig := e.pigBuf[:0]
	*e = Envelope{pigBuf: pig}
	envPool.Put(e)
}

// DecodeInto parses an envelope previously produced by Encode into e,
// reusing e's piggyback scratch capacity. The payload is always a deep
// copy the receiver owns: it is handed to the application (or, for a
// control message, sliced into long-lived protocol state), so its
// lifetime is unbounded while the envelope's ends at Recycle. A payload
// payloadArena assigns to the arena is cut from a when a is non-nil — an immutable,
// capacity-clipped slice of a chunk that is never rewritten, so
// retaining it pins at most ArenaChunk bytes; every other payload, and
// every payload over ArenaMax, is an allocation of its own. On error e's
// contents are unspecified.
func DecodeInto(e *Envelope, b []byte, a *Arena) error {
	if len(b) < 2 {
		return ErrTruncated
	}
	flags := b[1]
	pig, pooled := e.pigBuf, e.pooled
	*e = Envelope{Kind: Kind(b[0]), Resent: flags&flagResent != 0, pigBuf: pig, pooled: pooled}
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
	// Payload: always the receiver's own copy (see above).
	l, n = binary.Uvarint(b[i:])
	if n <= 0 {
		return ErrTruncated
	}
	i += n
	if uint64(len(b)-i) < l {
		return ErrTruncated
	}
	e.Payload = payloadArena(e.Kind, a).Copy(b[i : i+int(l)])
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
