package determinant

import (
	"errors"
	"testing"

	"windar/internal/proto"
	"windar/internal/wire"
)

func TestReplay(t *testing.T) {
	parses := 0
	p := NewReplay("x", 1, 3, func(pig []byte) error {
		parses++
		if len(pig) == 0 {
			return errors.New("empty")
		}
		return nil
	})
	check := func(from int, sendIndex, delivered int64, want proto.Verdict) {
		t.Helper()
		env := &wire.Envelope{Kind: wire.KindApp, From: from, To: 1, SendIndex: sendIndex, Piggyback: []byte{0}}
		if v, err := p.Deliverable(env, delivered); err != nil || v != want {
			t.Fatalf("(%d,#%d) at %d deliveries: %v %v, want %v", from, sendIndex, delivered, v, err, want)
		}
	}

	// A stale RESPONSE before any recovery records nothing: no hold.
	p.Record(D{Sender: 2, SendIndex: 1, Receiver: 1, DeliverIndex: 1})
	check(0, 1, 0, proto.Deliver)

	// Rolling forward from 2 restored deliveries: the record is complete,
	// yet every delivery holds until the collection phase ends.
	p.Begin(2)
	p.Record(D{Sender: 2, SendIndex: 5, Receiver: 1, DeliverIndex: 3})
	p.Record(D{Sender: 0, SendIndex: 9, Receiver: 1, DeliverIndex: 2}) // at the base
	p.Record(D{Sender: 0, SendIndex: 7, Receiver: 0, DeliverIndex: 4}) // another rank's
	check(2, 5, 2, proto.Hold)
	p.OnCollected()

	// Slot 3 is pinned to (2,#5); the other candidate holds.
	check(0, 3, 2, proto.Hold)
	check(2, 5, 2, proto.Deliver)
	p.Delivered(3)
	// Past recorded history, and at slots never recorded here: free choice.
	check(0, 3, 3, proto.Deliver)
	check(0, 4, 1, proto.Deliver)

	// A piggyback that does not parse holds with an error. The check is
	// memoised per (source, send index), yet a forged zero send index on
	// a source never checked before is still parsed.
	before := parses
	for i := 0; i < 2; i++ {
		env := &wire.Envelope{Kind: wire.KindApp, From: 1, To: 1}
		if v, err := p.Deliverable(env, 3); err == nil || v != proto.Hold {
			t.Fatalf("empty piggyback: %v %v, want Hold and an error", v, err)
		}
	}
	if parses != before+1 {
		t.Fatalf("one piggyback parsed %d times, want once", parses-before)
	}
	if _, err := p.Deliverable(&wire.Envelope{From: 3, Piggyback: []byte{0}}, 3); err == nil {
		t.Fatal("piggyback from an out-of-range rank accepted")
	}
}
