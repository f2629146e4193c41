package tag

import (
	"encoding/binary"
	"testing"

	"windar/internal/agraph"
	"windar/internal/proto"
	"windar/internal/wire"
)

// sendTo simulates p sending an app message: returns the envelope the
// destination would receive.
func sendTo(t *testing.T, p *TAG, from, to int, sendIndex int64) *wire.Envelope {
	t.Helper()
	pig, _ := p.PiggybackForSend(to, sendIndex)
	return &wire.Envelope{
		Kind: wire.KindApp, From: from, To: to,
		SendIndex: sendIndex, Piggyback: pig,
	}
}

func deliver(t *testing.T, p *TAG, env *wire.Envelope, idx int64) {
	t.Helper()
	if v, err := p.Deliverable(env, idx-1); err != nil || v != proto.Deliver {
		t.Fatalf("Deliverable = %v before delivery %d", v, idx)
	}
	if err := p.OnDeliver(env, idx); err != nil {
		t.Fatalf("OnDeliver: %v", err)
	}
}

func TestFirstSendPiggybacksNothing(t *testing.T) {
	p := New(0, 4, nil, nil)
	pig, ids := p.PiggybackForSend(1, 1)
	if ids != 1 { // just the interval header
		t.Fatalf("identifiers = %d, want 1", ids)
	}
	interval, off := binary.Varint(pig)
	if off <= 0 || interval != 0 {
		t.Fatalf("interval header = %d", interval)
	}
	nodes, _, err := agraph.ReadNodes(pig[off:])
	if err != nil || len(nodes) != 0 {
		t.Fatalf("nodes = %v, err %v", nodes, err)
	}
}

func TestPiggybackGrowsWithHistory(t *testing.T) {
	// The PWD cost: after k deliveries, a send to a fresh destination
	// carries k determinants.
	sender := New(1, 4, nil, nil)
	feeder := New(0, 4, nil, nil)
	for i := int64(1); i <= 10; i++ {
		deliver(t, sender, sendTo(t, feeder, 0, 1, i), i)
	}
	_, ids := sender.PiggybackForSend(2, 1)
	if ids != 10*4+1 {
		t.Fatalf("identifiers = %d, want 41", ids)
	}
}

func TestIncrementalPiggybackToSameDest(t *testing.T) {
	// Manetho's increment: the second send to the same destination must
	// not repeat what the first carried.
	sender := New(1, 4, nil, nil)
	feeder := New(0, 4, nil, nil)
	deliver(t, sender, sendTo(t, feeder, 0, 1, 1), 1)
	_, ids1 := sender.PiggybackForSend(2, 1)
	if ids1 != 4+1 {
		t.Fatalf("first send ids = %d, want 5", ids1)
	}
	_, ids2 := sender.PiggybackForSend(2, 2)
	if ids2 != 1 {
		t.Fatalf("second send ids = %d, want 1 (increment empty)", ids2)
	}
	// A new delivery re-grows the increment by one node.
	deliver(t, sender, sendTo(t, feeder, 0, 1, 2), 2)
	_, ids3 := sender.PiggybackForSend(2, 3)
	if ids3 != 4+1 {
		t.Fatalf("third send ids = %d, want 5", ids3)
	}
}

func TestDeliveryRecordsEventAndTransitivity(t *testing.T) {
	// P0 -> P1 -> P2: P2 must transitively learn P1's delivery event.
	p0 := New(0, 3, nil, nil)
	p1 := New(1, 3, nil, nil)
	p2 := New(2, 3, nil, nil)

	deliver(t, p1, sendTo(t, p0, 0, 1, 1), 1)
	deliver(t, p2, sendTo(t, p1, 1, 2, 1), 1)

	if !p2.graph.Has(agraph.NodeID{Proc: 1, Seq: 1}) {
		t.Fatal("P2 missing P1's delivery event")
	}
	if !p2.graph.Has(agraph.NodeID{Proc: 2, Seq: 1}) {
		t.Fatal("P2 missing its own delivery event")
	}
	if p2.GraphLen() != 2 {
		t.Fatalf("GraphLen = %d", p2.GraphLen())
	}
}

func TestSnapshotRestore(t *testing.T) {
	p1 := New(1, 3, nil, nil)
	p0 := New(0, 3, nil, nil)
	deliver(t, p1, sendTo(t, p0, 0, 1, 1), 1)
	deliver(t, p1, sendTo(t, p0, 0, 1, 2), 2)

	snap := p1.Snapshot()
	restored := New(1, 3, nil, nil)
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.ownDelivered != 2 {
		t.Fatalf("ownDelivered = %d", restored.ownDelivered)
	}
	if restored.GraphLen() != p1.GraphLen() {
		t.Fatalf("graph len %d vs %d", restored.GraphLen(), p1.GraphLen())
	}
	if err := restored.Restore([]byte{0xFF}); err == nil {
		t.Fatal("Restore accepted garbage")
	}
}

func TestRecoveryReplayOrderEnforced(t *testing.T) {
	// P1 delivered (P0,#1) then (P2,#1) before failing. A survivor
	// recorded both. The incarnation must deliver them in exactly that
	// order even if (P2,#1) arrives first — the PWD constraint the paper
	// relaxes in TDI.
	survivor := New(0, 3, nil, nil)
	// Manually give the survivor the failed rank's delivery record.
	for i, det := range []struct {
		sender int
		sIdx   int64
	}{{0, 1}, {2, 1}} {
		nd := agraph.Node{}
		nd.Det.Sender = det.sender
		nd.Det.SendIndex = det.sIdx
		nd.Det.Receiver = 1
		nd.Det.DeliverIndex = int64(i + 1)
		if _, err := survivor.graph.Add(nd); err != nil {
			t.Fatal(err)
		}
	}
	data := survivor.RecoveryData(1, 0)

	inc := New(1, 3, nil, nil) // incarnation restored from empty checkpoint
	inc.BeginRecovery()

	fromP2 := &wire.Envelope{Kind: wire.KindApp, From: 2, To: 1, SendIndex: 1,
		Piggyback: binary.AppendVarint(nil, 0)}
	fromP2.Piggyback = agraph.AppendNodes(fromP2.Piggyback, nil)
	fromP0 := &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: 1,
		Piggyback: binary.AppendVarint(nil, 0)}
	fromP0.Piggyback = agraph.AppendNodes(fromP0.Piggyback, nil)

	// Responses outstanding: everything holds.
	if v, err := inc.Deliverable(fromP0, 0); err != nil || v != proto.Hold {
		t.Fatalf("delivery admitted before responses complete: %v", v)
	}
	if err := inc.OnRecoveryData(0, data); err != nil {
		t.Fatal(err)
	}
	if err := inc.OnRecoveryData(2, agraph.AppendNodes(nil, nil)); err != nil {
		t.Fatal(err)
	}
	// Responses in, yet still held: only the harness ends collection.
	if v, err := inc.Deliverable(fromP0, 0); err != nil || v != proto.Hold {
		t.Fatalf("delivery admitted before OnCollected: %v", v)
	}
	inc.OnCollected()

	// Replay slot 1 is pinned to (P0,#1): the P2 message must hold.
	if v, err := inc.Deliverable(fromP2, 0); err != nil || v != proto.Hold {
		t.Fatalf("out-of-order replay admitted: %v", v)
	}
	if v, err := inc.Deliverable(fromP0, 0); err != nil || v != proto.Deliver {
		t.Fatalf("recorded message held: %v", v)
	}
	if err := inc.OnDeliver(fromP0, 1); err != nil {
		t.Fatal(err)
	}
	// Now slot 2 admits the P2 message.
	if v, err := inc.Deliverable(fromP2, 1); err != nil || v != proto.Deliver {
		t.Fatalf("second recorded message held: %v", v)
	}
	if err := inc.OnDeliver(fromP2, 2); err != nil {
		t.Fatal(err)
	}
	// Beyond recorded history: free choice.
	fresh := &wire.Envelope{Kind: wire.KindApp, From: 2, To: 1, SendIndex: 2,
		Piggyback: binary.AppendVarint(nil, 0)}
	fresh.Piggyback = agraph.AppendNodes(fresh.Piggyback, nil)
	if v, err := inc.Deliverable(fresh, 2); err != nil || v != proto.Deliver {
		t.Fatalf("post-history delivery held: %v", v)
	}
}

func TestOnPeerCheckpointPrunes(t *testing.T) {
	p1 := New(1, 3, nil, nil)
	p0 := New(0, 3, nil, nil)
	for i := int64(1); i <= 4; i++ {
		deliver(t, p1, sendTo(t, p0, 0, 1, i), i)
	}
	// P1's own events: prune those covered by P1's checkpoint.
	p1.OnPeerCheckpoint(1, 3)
	if p1.GraphLen() != 1 {
		t.Fatalf("GraphLen = %d after prune, want 1", p1.GraphLen())
	}
	// Piggyback to a fresh destination shrinks accordingly.
	_, ids := p1.PiggybackForSend(2, 1)
	if ids != 4+1 {
		t.Fatalf("ids after prune = %d, want 5", ids)
	}
}

func TestOnDeliverRejectsGarbage(t *testing.T) {
	p := New(0, 2, nil, nil)
	bad := &wire.Envelope{Kind: wire.KindApp, From: 1, To: 0, SendIndex: 1, Piggyback: []byte{}}
	if err := p.OnDeliver(bad, 1); err == nil {
		t.Fatal("empty piggyback accepted")
	}
	bad2 := &wire.Envelope{Kind: wire.KindApp, From: 1, To: 0, SendIndex: 1,
		Piggyback: binary.AppendVarint(nil, 0)}
	if err := p.OnDeliver(bad2, 1); err == nil {
		t.Fatal("truncated node batch accepted")
	}
}

func TestName(t *testing.T) {
	if New(0, 1, nil, nil).Name() != "tag" {
		t.Fatal("name")
	}
}
