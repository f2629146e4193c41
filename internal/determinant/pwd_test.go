package determinant_test

import (
	"encoding/binary"
	"sync"
	"testing"

	"windar/internal/agraph"
	"windar/internal/determinant"
	"windar/internal/proto"
	"windar/internal/tag"
	"windar/internal/tel"
	"windar/internal/wire"
)

type pwd interface {
	proto.Protocol
	proto.Replayer
}

// pwds builds rank 1 of 4 under each PWD protocol, with the encodings of
// an empty piggyback and an empty RESPONSE payload.
var pwds = []struct {
	name      string
	new       func() pwd
	emptyPig  []byte
	emptyResp []byte
}{
	{"tag", func() pwd { return tag.New(1, 4, nil, nil) },
		agraph.AppendNodes(binary.AppendVarint(nil, 0), nil), agraph.AppendNodes(nil, nil)},
	{"tel", func() pwd { return tel.New(1, 4, nil, &sync.Mutex{}, nil, nil) },
		determinant.AppendSlice(nil, nil), determinant.AppendSlice(nil, nil)},
}

// TestUncountedLateResponseKeepsHold: rank 3's RESPONSE answered a dead
// predecessor's ROLLBACK, so the harness did not count it; it must not
// end the collection phase while a peer still owes its answer. Only
// OnCollected does.
func TestUncountedLateResponseKeepsHold(t *testing.T) {
	for _, pc := range pwds {
		t.Run(pc.name, func(t *testing.T) {
			p := pc.new()
			p.BeginRecovery()
			if err := p.OnRecoveryData(3, pc.emptyResp); err != nil {
				t.Fatal(err)
			}
			unrecorded := &wire.Envelope{Kind: wire.KindApp, From: 2, To: 1, SendIndex: 1, Piggyback: pc.emptyPig}
			if v, err := p.Deliverable(unrecorded, 0); err != nil || v != proto.Hold {
				t.Fatalf("uncounted late RESPONSE lifted the hold: %v %v", v, err)
			}
			p.OnCollected()
			if v, err := p.Deliverable(unrecorded, 0); err != nil || v != proto.Deliver {
				t.Fatalf("after OnCollected: %v %v, want Deliver", v, err)
			}
		})
	}
}

// FuzzPWDDecode feeds hostile bytes to every TAG and TEL entry point that
// decodes them — checkpoint Restore, RESPONSE data, and a piggyback
// through Deliverable and OnDeliver — which reach agraph.ReadNodes and
// determinant.ReadSlice. Each call must return, with an error or a
// value, and never panic.
func FuzzPWDDecode(f *testing.F) {
	for _, pc := range pwds {
		f.Add(pc.emptyPig)
		f.Add(pc.emptyResp)
		// Real encodings: a survivor's piggyback, snapshot and recovery
		// record after a few deliveries.
		src := pc.new()
		for i := int64(1); i <= 3; i++ {
			env := &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: i, Piggyback: pc.emptyPig}
			if err := src.OnDeliver(env, i); err != nil {
				f.Fatal(err)
			}
		}
		pig, _ := src.PiggybackForSend(2, 1)
		f.Add(pig)
		f.Add(src.AppendSnapshot(nil))
		f.Add(src.RecoveryData(1, 0))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, pc := range pwds {
			p := pc.new()
			_ = p.Restore(b)
			p.BeginRecovery()
			_ = p.OnRecoveryData(0, b)
			p.OnCollected()
			env := &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: 1, Piggyback: b}
			_, _ = p.Deliverable(env, 0)
			_ = p.OnDeliver(env, 1)
			_ = p.AppendSnapshot(nil)
		}
	})
}
