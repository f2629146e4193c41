package tag

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"windar/internal/agraph"
	"windar/internal/determinant"
	"windar/internal/proto"
	"windar/internal/wire"
)

// TestPropertyGraphRecordsEveryDelivery: after any delivery history the
// graph contains one node per own delivery, keyed by delivery index.
func TestPropertyGraphRecordsEveryDelivery(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(int64(r.Int63()))
			vals[1] = reflect.ValueOf(1 + r.Intn(25))
		},
	}
	f := func(seed int64, deliveries int) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 5
		p := New(1, n, nil, nil)
		feeders := make([]*TAG, n)
		counts := make([]int64, n)
		for i := range feeders {
			feeders[i] = New(i, n, nil, nil)
		}
		for d := 1; d <= deliveries; d++ {
			from := rng.Intn(n)
			if from == 1 {
				from = 0
			}
			counts[from]++
			pig, _ := feeders[from].PiggybackForSend(1, counts[from])
			env := &wire.Envelope{Kind: wire.KindApp, From: from, To: 1,
				SendIndex: counts[from], Piggyback: pig}
			if err := p.OnDeliver(env, int64(d)); err != nil {
				return false
			}
			if !p.graph.Has(agraph.NodeID{Proc: 1, Seq: int64(d)}) {
				return false
			}
		}
		return len(p.graph.DeliveriesOf(1, 0)) == deliveries
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyReplayAdmitsOnlyRecordedOrder: for any recorded delivery
// history presented in any arrival order, the replay predicate admits
// exactly the recorded message at each slot.
func TestPropertyReplayAdmitsOnlyRecordedOrder(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(int64(r.Int63()))
			vals[1] = reflect.ValueOf(2 + r.Intn(10))
		},
	}
	f := func(seed int64, k int) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 4
		// Build a recorded history: k deliveries at rank 1 from random
		// senders with per-sender increasing send indexes.
		counts := make([]int64, n)
		var recorded []determinant.D
		for d := 1; d <= k; d++ {
			from := []int{0, 2, 3}[rng.Intn(3)]
			counts[from]++
			recorded = append(recorded, determinant.D{
				Sender: from, SendIndex: counts[from],
				Receiver: 1, DeliverIndex: int64(d),
			})
		}
		var nodes []agraph.Node
		for _, det := range recorded {
			nodes = append(nodes, agraph.Node{Det: det})
		}

		inc := New(1, n, nil, nil)
		inc.BeginRecovery()
		if err := inc.OnRecoveryData(0, agraph.AppendNodes(nil, nodes)); err != nil {
			return false
		}
		inc.OnCollected()

		// Present the messages in a random arrival order; at each slot
		// only the recorded one must be admitted.
		remaining := append([]determinant.D(nil), recorded...)
		rng.Shuffle(len(remaining), func(i, j int) { remaining[i], remaining[j] = remaining[j], remaining[i] })
		delivered := int64(0)
		for len(remaining) > 0 {
			admitted := -1
			for i, det := range remaining {
				env := &wire.Envelope{Kind: wire.KindApp, From: det.Sender, To: 1,
					SendIndex: det.SendIndex, Piggyback: emptyTagPig()}
				v, err := inc.Deliverable(env, delivered)
				if err != nil {
					return false
				}
				want := proto.Hold
				if det.DeliverIndex == delivered+1 {
					want = proto.Deliver
				}
				if v != want {
					return false
				}
				if v == proto.Deliver {
					admitted = i
				}
			}
			if admitted < 0 {
				return false // stuck: recorded slot unsatisfiable
			}
			det := remaining[admitted]
			env := &wire.Envelope{Kind: wire.KindApp, From: det.Sender, To: 1,
				SendIndex: det.SendIndex, Piggyback: emptyTagPig()}
			if err := inc.OnDeliver(env, delivered+1); err != nil {
				return false
			}
			delivered++
			remaining = append(remaining[:admitted], remaining[admitted+1:]...)
		}
		return delivered == int64(k)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// emptyTagPig builds a TAG piggyback with zero interval and no nodes.
func emptyTagPig() []byte {
	pig := make([]byte, 0, 8)
	pig = append(pig, 0) // varint 0 interval
	return agraph.AppendNodes(pig, nil)
}
