package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"windar/internal/proto"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// history is a generated delivery history: for each delivery, the sender
// and the piggybacked vector (with the receiver element clamped to the
// invariant pig[rank] <= deliveries so far — any message a correct system
// produces satisfies it).
type history struct {
	n     int
	rank  int
	pigs  []vclock.Vec
	froms []int
}

func genHistory(r *rand.Rand) history {
	n := 2 + r.Intn(6)
	rank := r.Intn(n)
	k := r.Intn(30)
	h := history{n: n, rank: rank}
	for i := 0; i < k; i++ {
		pig := vclock.New(n)
		for j := range pig {
			pig[j] = int64(r.Intn(50))
		}
		pig[rank] = int64(r.Intn(i + 1)) // causally possible requirement
		h.pigs = append(h.pigs, pig)
		from := r.Intn(n)
		if from == rank {
			from = (from + 1) % n
		}
		h.froms = append(h.froms, from)
	}
	return h
}

func (h history) run(t *testing.T) *TDI {
	t.Helper()
	tdi := New(h.rank, h.n, nil, nil)
	counts := make(map[int]int64)
	for i, pig := range h.pigs {
		from := h.froms[i]
		counts[from]++
		env := &wire.Envelope{
			Kind: wire.KindApp, From: from, To: h.rank,
			SendIndex: counts[from],
			Piggyback: wire.AppendVecSince(nil, pig, from, nil, 0),
		}
		if v, err := tdi.Deliverable(env, int64(i)); err != nil || v != proto.Deliver {
			t.Fatalf("delivery %d held: pig=%v count=%d err=%v", i, pig, i, err)
		}
		if err := tdi.OnDeliver(env, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return tdi
}

// TestPropertyOwnElementCountsDeliveries: after any causally-possible
// history, the own element equals the delivery count exactly — the state
// interval index of Algorithm 1.
func TestPropertyOwnElementCountsDeliveries(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(genHistory(r))
		},
	}
	f := func(h history) bool {
		tdi := h.run(t)
		return tdi.DependInterval()[h.rank] == int64(len(h.pigs))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyVectorDominatesMergedPiggybacks: the final vector dominates
// every piggyback it merged, except possibly at the own element (which
// counts actual deliveries rather than hearsay).
func TestPropertyVectorDominatesMergedPiggybacks(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(genHistory(r))
		},
	}
	f := func(h history) bool {
		tdi := h.run(t)
		final := tdi.DependInterval()
		for _, pig := range h.pigs {
			for j := range pig {
				if j == h.rank {
					continue
				}
				if final[j] < pig[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertySnapshotRestoreIdentity: snapshot/restore is the identity
// on protocol state after any history.
func TestPropertySnapshotRestoreIdentity(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(genHistory(r))
		},
	}
	f := func(h history) bool {
		tdi := h.run(t)
		restored := New(h.rank, h.n, nil, nil)
		if err := restored.Restore(tdi.AppendSnapshot(nil)); err != nil {
			return false
		}
		return restored.DependInterval().Equal(tdi.DependInterval())
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyDeliverablePredicate: Deliverable is exactly the count
// comparison of Algorithm 1 line 17, for arbitrary piggybacks and counts.
func TestPropertyDeliverablePredicate(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := 2 + r.Intn(6)
			pig := vclock.New(n)
			for j := range pig {
				pig[j] = int64(r.Intn(20))
			}
			vals[0] = reflect.ValueOf(pig)
			vals[1] = reflect.ValueOf(int64(r.Intn(20)))
			vals[2] = reflect.ValueOf(r.Intn(n))
		},
	}
	f := func(pig vclock.Vec, count int64, rank int) bool {
		tdi := New(rank, len(pig), nil, nil)
		env := &wire.Envelope{
			Kind: wire.KindApp, From: (rank + 1) % len(pig), To: rank,
			SendIndex: 1, Piggyback: wire.AppendVecSince(nil, pig, (rank+1)%len(pig), nil, 0),
		}
		got, err := tdi.Deliverable(env, count)
		if err != nil {
			return false
		}
		want := proto.Hold
		if count >= pig[rank] {
			want = proto.Deliver
		}
		return got == want
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
