package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"windar/internal/proto"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// env builds an app envelope from sender with a TDI piggyback vector.
func env(from, to int, sendIndex int64, pig vclock.Vec) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindApp, From: from, To: to, SendIndex: sendIndex,
		Piggyback: wire.AppendVecSince(nil, pig, from, nil, 0),
	}
}

// readFull decodes sender s's piggyback, which must be a full vector.
func readFull(pig []byte, n, s int) (vclock.Vec, error) {
	v := vclock.New(n)
	p := wire.ReadVecPairs(pig, n, s)
	for k, x, ok := p.Next(); ok; k, x, ok = p.Next() {
		v[k] = x
	}
	if p.Err() == nil && !p.Full() {
		return nil, fmt.Errorf("piggyback % x is not a full vector", pig)
	}
	return v, p.Err()
}

func TestPiggybackIsWholeVector(t *testing.T) {
	tdi := New(1, 4, nil, nil)
	pig, ids := tdi.PiggybackForSend(2, 1)
	if ids != 4 {
		t.Fatalf("identifiers = %d, want n=4", ids)
	}
	v, err := readFull(pig, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(vclock.New(4)) {
		t.Fatalf("initial piggyback = %v", v)
	}
}

func TestDeliverAdvancesOwnIntervalAndMerges(t *testing.T) {
	// Reproduces the paper's Section III.B example: P1's vector is
	// (0, 2, 1, 0); message m5 arrives piggybacked with (0, 2, 2, 1);
	// after delivery P1's vector must be (0, 2, 2, 1) — except that the
	// own element P1 is advanced by the delivery itself, so we arrange
	// for the own element to match.
	tdi := New(1, 4, nil, nil)
	// Drive P1 to (0, 2, 1, 0) by delivering two messages.
	if err := tdi.OnDeliver(env(2, 1, 1, vclock.Vec{0, 0, 1, 0}), 1); err != nil {
		t.Fatal(err)
	}
	if err := tdi.OnDeliver(env(2, 1, 2, vclock.Vec{0, 0, 1, 0}), 2); err != nil {
		t.Fatal(err)
	}
	if got := tdi.DependInterval(); !got.Equal(vclock.Vec{0, 2, 1, 0}) {
		t.Fatalf("setup vector = %v, want (0, 2, 1, 0)", got)
	}
	// m5 from P2 with piggyback (0, 2, 2, 1): P1's own element comes
	// from its delivery count (3), the rest from the merge.
	if err := tdi.OnDeliver(env(2, 1, 3, vclock.Vec{0, 2, 2, 1}), 3); err != nil {
		t.Fatal(err)
	}
	if got := tdi.DependInterval(); !got.Equal(vclock.Vec{0, 3, 2, 1}) {
		t.Fatalf("after m5: %v, want (0, 3, 2, 1)", got)
	}
}

func TestOwnElementNotAdvancedByHearsay(t *testing.T) {
	// A piggyback claiming this rank delivered 10 messages must not jump
	// the own counter: only actual deliveries advance it.
	tdi := New(0, 3, nil, nil)
	if err := tdi.OnDeliver(env(1, 0, 1, vclock.Vec{0, 5, 5}), 1); err != nil {
		t.Fatal(err)
	}
	got := tdi.DependInterval()
	if got[0] != 1 {
		t.Fatalf("own element = %d, want 1", got[0])
	}
	if got[1] != 5 || got[2] != 5 {
		t.Fatalf("merge lost: %v", got)
	}
}

func TestDeliverableCountPredicate(t *testing.T) {
	tdi := New(1, 4, nil, nil)
	// Paper Section III.A: messages m0 and m2 both carry
	// depend_interval[P1] = 0, so either may be delivered first; m5
	// carries depend_interval[P1] = 2 and must wait for two deliveries.
	m0 := env(0, 1, 1, vclock.Vec{0, 0, 0, 0})
	m2 := env(2, 1, 1, vclock.Vec{0, 0, 0, 0})
	m5 := env(2, 1, 2, vclock.Vec{0, 2, 2, 1})

	if v, err := tdi.Deliverable(m0, 0); err != nil || v != proto.Deliver {
		t.Fatalf("m0 at count 0: %v", v)
	}
	if v, err := tdi.Deliverable(m2, 0); err != nil || v != proto.Deliver {
		t.Fatalf("m2 at count 0: %v", v)
	}
	if v, err := tdi.Deliverable(m5, 0); err != nil || v != proto.Hold {
		t.Fatalf("m5 at count 0: %v, want Hold", v)
	}
	if v, err := tdi.Deliverable(m5, 1); err != nil || v != proto.Hold {
		t.Fatalf("m5 at count 1: %v, want Hold", v)
	}
	if v, err := tdi.Deliverable(m5, 2); err != nil || v != proto.Deliver {
		t.Fatalf("m5 at count 2: %v, want Deliver", v)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	tdi := New(2, 3, nil, nil)
	if err := tdi.OnDeliver(env(0, 2, 1, vclock.Vec{3, 1, 0}), 1); err != nil {
		t.Fatal(err)
	}
	snap := tdi.AppendSnapshot(nil)

	restored := New(2, 3, nil, nil)
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !restored.DependInterval().Equal(tdi.DependInterval()) {
		t.Fatalf("restore mismatch: %v vs %v", restored.DependInterval(), tdi.DependInterval())
	}
}

func TestRestoreRejectsWrongLength(t *testing.T) {
	tdi := New(0, 3, nil, nil)
	wrong := New(0, 5, nil, nil).AppendSnapshot(nil)
	if err := tdi.Restore(wrong); err == nil {
		t.Fatal("Restore accepted wrong-length vector")
	}
	// The bare-vector layout that predates the snapshot marker is
	// rejected even at the right length: nothing writes it.
	if err := tdi.Restore(wire.AppendVec(nil, vclock.New(3))); err == nil {
		t.Fatal("Restore accepted a bare vector")
	}
	// So is the older 0x00-marked layout, which kept a base vector per
	// source (here: none present).
	v2 := append(wire.AppendVec([]byte{0x00}, vclock.New(3)), 0, 0, 0)
	for _, garbage := range [][]byte{nil, {0xFF}, {snapshotMarker}, v2} {
		if err := tdi.Restore(garbage); err == nil {
			t.Fatalf("Restore accepted garbage %x", garbage)
		}
	}
}

func TestOnDeliverRejectsWrongLengthPiggyback(t *testing.T) {
	tdi := New(0, 3, nil, nil)
	bad := &wire.Envelope{
		Kind: wire.KindApp, From: 1, To: 0, SendIndex: 1,
		Piggyback: wire.AppendVecSince(nil, vclock.New(7), 1, nil, 0),
	}
	if err := tdi.OnDeliver(bad, 1); err == nil {
		t.Fatal("OnDeliver accepted wrong-length piggyback")
	}
}

func TestOnDeliverDetectsIndexDivergence(t *testing.T) {
	tdi := New(0, 2, nil, nil)
	// The harness says this is delivery #5, but the protocol has only
	// seen 0 deliveries: corruption must be reported.
	if err := tdi.OnDeliver(env(1, 0, 1, vclock.New(2)), 5); err == nil {
		t.Fatal("index divergence not detected")
	}
}

// TestTDIIsNoReplayer: TDI collects no recovery data, so it implements
// none of proto.Replayer and the harness skips the collection hooks. Its
// one recovery hook is BeginRecovery, which leaves the incarnation
// sending full vectors until OnPeerResync sets a floor.
func TestTDIIsNoReplayer(t *testing.T) {
	tdi := New(0, 2, nil, nil)
	if _, ok := any(tdi).(proto.Replayer); ok {
		t.Fatal("*TDI implements proto.Replayer")
	}
	tdi.BeginRecovery()
	if tdi.Name() != "tdi" {
		t.Fatal("name")
	}
	for idx := int64(1); idx <= 3; idx++ {
		if pig, _ := tdi.PiggybackForSend(1, idx); !isFull(pig) {
			t.Fatalf("send %d before any floor is a delta", idx)
		}
	}
	tdi.OnPeerResync(1, 0)
	if pig, ids := tdi.PiggybackForSend(1, 4); len(pig) != 0 || ids != 0 {
		t.Fatalf("send above the floor, with nothing changed since a send above it, is % x (%d ids), not empty", pig, ids)
	}
}

// TestCausalTransitivity drives three ranks' TDI instances by hand and
// checks the transitive scenario of Fig. 1: P3 sends m4 to P2, P2 sends
// m5 to P1; m5's piggyback must transitively require P1 to respect
// messages P2 delivered, even though P1 never heard from P3.
func TestCausalTransitivity(t *testing.T) {
	p2 := New(2, 4, nil, nil)
	p3 := New(3, 4, nil, nil)

	// P3 delivers some message first (its interval becomes 1), then
	// sends m4 to P2.
	if err := p3.OnDeliver(env(0, 3, 1, vclock.New(4)), 1); err != nil {
		t.Fatal(err)
	}
	pigM4, _ := p3.PiggybackForSend(2, 1)
	m4 := &wire.Envelope{Kind: wire.KindApp, From: 3, To: 2, SendIndex: 1, Piggyback: pigM4}

	// P2 delivers two messages: one plain, then m4.
	if err := p2.OnDeliver(env(1, 2, 1, vclock.New(4)), 1); err != nil {
		t.Fatal(err)
	}
	if err := p2.OnDeliver(m4, 2); err != nil {
		t.Fatal(err)
	}

	// P2 sends m5 to P1: the piggyback must carry P2=2 (its own two
	// deliveries) and P3=1 (transitive).
	pigM5, _ := p2.PiggybackForSend(1, 1)
	v, err := readFull(pigM5, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v[2] != 2 || v[3] != 1 {
		t.Fatalf("m5 piggyback = %v, want P2=2, P3=1", v)
	}

	// P1, having delivered nothing, must hold m5 until it has delivered
	// 0 >= v[1] = 0 messages — v[1] is 0, so deliverable immediately;
	// the constraint binds on *P1's own* element only.
	p1 := New(1, 4, nil, nil)
	m5 := &wire.Envelope{Kind: wire.KindApp, From: 2, To: 1, SendIndex: 1, Piggyback: pigM5}
	if got, err := p1.Deliverable(m5, 0); err != nil || got != proto.Deliver {
		t.Fatalf("m5 at P1: %v", got)
	}
	// After delivering m5, P1 transitively knows P3's interval.
	if err := p1.OnDeliver(m5, 1); err != nil {
		t.Fatal(err)
	}
	if got := p1.DependInterval(); got[3] != 1 || got[2] != 2 || got[1] != 1 {
		t.Fatalf("P1 vector after m5 = %v", got)
	}
}

func TestPiggybackSizeIndependentOfHistory(t *testing.T) {
	// The TDI selling point: after thousands of deliveries the piggyback
	// is still exactly n identifiers.
	tdi := New(0, 8, nil, nil)
	for i := int64(1); i <= 2000; i++ {
		if err := tdi.OnDeliver(env(1, 0, i, vclock.New(8)), i); err != nil {
			t.Fatal(err)
		}
	}
	_, ids := tdi.PiggybackForSend(1, 1)
	if ids != 8 {
		t.Fatalf("identifiers = %d after 2000 deliveries, want 8", ids)
	}
}

// TestRestoreInvalidatesDecodeMemos pins the recovery contract for the
// per-source receive state: a rollback resends regenerated messages that
// may carry a DIFFERENT piggyback at the same send index, so nothing a
// probe of the dead incarnation's message left behind — a cached decode
// or verdict — may decide the fate of the resend, or the incarnation
// would hold, or deliver, against a dead incarnation's vector.
func TestRestoreInvalidatesDecodeMemos(t *testing.T) {
	tdi := New(1, 4, nil, nil)
	snap := tdi.AppendSnapshot(nil)
	for _, src := range []int{0, 2, 3} {
		// Probe a message that demands two prior deliveries: Hold.
		held := env(src, 1, 1, vclock.Vec{0, 2, 0, 0})
		if v, err := tdi.Deliverable(held, 0); err != nil || v != proto.Hold {
			t.Fatalf("src %d: pre-restore verdict %v, %v", src, v, err)
		}
		if d, ok := tdi.DeliveryDemand(held); !ok || d != 2 {
			t.Fatalf("src %d: pre-restore demand %d, %v", src, d, ok)
		}
		if err := tdi.Restore(snap); err != nil {
			t.Fatalf("src %d: Restore: %v", src, err)
		}
		// The regenerated resend at the same (source, send index)
		// demands nothing. Stale state would keep holding it.
		resent := env(src, 1, 1, vclock.Vec{0, 0, 0, 0})
		if v, err := tdi.Deliverable(resent, 0); err != nil || v != proto.Deliver {
			t.Fatalf("src %d: post-restore verdict %v, %v — stale decode state", src, v, err)
		}
		if d, ok := tdi.DeliveryDemand(resent); !ok || d != 0 {
			t.Fatalf("src %d: post-restore demand %d, %v — stale decode state", src, d, ok)
		}
	}
}

// TestPiggybackCarriesOwnElement: over a random history, every non-empty
// piggyback decodes with the sender's own element first, at its current
// value; it is the smaller of the full vector and the delta of what
// changed since the last send to the destination; and its id count is
// the integers it carries.
func TestPiggybackCarriesOwnElement(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(47))
	ranks := make([]*TDI, n)
	for i := range ranks {
		ranks[i] = New(i, n, nil, nil)
	}
	var sent [n][n]vclock.Vec // the sender's vector at its last send on each channel
	var idx [n][n]int64
	forms := map[string]int{}
	for step := 0; step < 4000; step++ {
		a, b := rng.Intn(n), rng.Intn(n-1)
		if b >= a {
			b++
		}
		idx[a][b]++
		cur := ranks[a].DependInterval()
		pig, ids := ranks[a].PiggybackForSend(b, idx[a][b])
		switch prev := sent[a][b]; {
		case len(pig) == 0:
			forms["empty"]++
			if prev == nil || !prev.Equal(cur) || ids != 0 {
				t.Fatalf("step %d: empty piggyback %d->%d (%d ids) after %v, now %v", step, a, b, ids, prev, cur)
			}
		default:
			want := wire.AppendVecSince(nil, cur, a, nil, 0)
			if prev != nil {
				ver := make([]uint64, n)
				for i := range cur {
					if cur[i] != prev[i] {
						ver[i] = 1
					}
				}
				if d := wire.AppendVecSince(nil, cur, a, ver, 0); len(d) < len(want) {
					want = d
				}
			}
			if !bytes.Equal(pig, want) {
				t.Fatalf("step %d: %d->%d sent % x, want the smaller form % x", step, a, b, pig, want)
			}
			p := wire.ReadVecPairs(pig, n, a)
			k, v, ok := p.Next()
			if !ok || k != a || v != cur[a] {
				t.Fatalf("step %d: %d->%d % x starts with (%d, %d, %v), want own element %d", step, a, b, pig, k, v, ok, cur[a])
			}
			carried := 1
			for _, _, ok := p.Next(); ok; _, _, ok = p.Next() {
				carried++
			}
			wantIDs := 2 * carried
			switch {
			case p.Full():
				forms["full"]++
				wantIDs = n
			case carried == 1:
				forms["own-only"]++
				wantIDs = 1
			default:
				forms["delta"]++
			}
			if p.Err() != nil || ids != wantIDs {
				t.Fatalf("step %d: %d ids for % x (err %v), want %d", step, ids, pig, p.Err(), wantIDs)
			}
		}
		sent[a][b] = cur
		e := &wire.Envelope{Kind: wire.KindApp, From: a, To: b, SendIndex: idx[a][b], Piggyback: pig}
		if err := ranks[b].OnDeliver(e, ranks[b].dependInterval[b]+1); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for _, f := range []string{"empty", "full", "own-only", "delta"} {
		if forms[f] == 0 {
			t.Errorf("the history never produced a %s piggyback: %v", f, forms)
		}
	}
}
