package core

import (
	"testing"

	"windar/internal/proto"
	"windar/internal/tag"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// TestFig1Walkthrough replays the paper's Fig. 1 example message by
// message and checks every quantitative claim the text makes about it.
//
// Reconstructed from Sections II.B and III.A:
//
//	m0: P0 -> P1   (P1's 1st delivery)
//	m1: P0 -> P3   (P3's 1st delivery)
//	m2: P3 -> P1   (P1's 2nd delivery)
//	m3: P1 -> P2   (P2's 1st delivery; P1 depends on m0, m1, m2)
//	m4: P3 -> P2   (P2's 2nd delivery; carries #m1 transitively)
//	m5: P2 -> P1   (depends on all five messages)
//
// Claims:
//   - the PWD causal dependency set of m5 is S(#m0..#m4): 5 determinants
//     = 20 identifiers;
//   - the TDI piggyback on m5 is the vector V(0, 2, 2, 1): 4 identifiers;
//   - m0 and m2 carry depend_interval[P1] = 0, so a recovering P1 may
//     deliver either first;
//   - m5 carries depend_interval[P1] = 2, so a recovering P1 must hold it
//     until two messages are delivered.
func TestFig1Walkthrough(t *testing.T) {
	const n = 4
	p0 := New(0, n, nil, nil)
	p1 := New(1, n, nil, nil)
	p2 := New(2, n, nil, nil)
	p3 := New(3, n, nil, nil)

	send := func(p *TDI, from, to int, idx int64) *wire.Envelope {
		pig, ids := p.PiggybackForSend(to, idx)
		if ids != n {
			t.Fatalf("TDI piggyback = %d identifiers, want %d", ids, n)
		}
		return &wire.Envelope{Kind: wire.KindApp, From: from, To: to, SendIndex: idx, Piggyback: pig}
	}
	deliver := func(p *TDI, env *wire.Envelope, count int64) {
		if v, err := p.Deliverable(env, count-1); err != nil || v != proto.Deliver {
			t.Fatalf("delivery %d at P%d held unexpectedly", count, env.To)
		}
		if err := p.OnDeliver(env, count); err != nil {
			t.Fatal(err)
		}
	}

	m0 := send(p0, 0, 1, 1)
	m1 := send(p0, 0, 3, 1)
	deliver(p1, m0, 1)
	deliver(p3, m1, 1)
	m2 := send(p3, 3, 1, 1)
	deliver(p1, m2, 2)
	m3 := send(p1, 1, 2, 1)
	deliver(p2, m3, 1)
	m4 := send(p3, 3, 2, 1)
	deliver(p2, m4, 2)
	m5 := send(p2, 2, 1, 1)

	// Claim: the piggyback on m5 is exactly V(0, 2, 2, 1).
	v, err := readFull(m5.Piggyback, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(vclock.Vec{0, 2, 2, 1}) {
		t.Fatalf("m5 piggyback = %v, want (0, 2, 2, 1)", v)
	}

	// Claim: the reduction is from 20 identifiers (5 determinants of the
	// PWD dependency set S) to 4 (the vector).
	if ids := len(v); ids != 4 {
		t.Fatalf("TDI identifier count = %d, want 4", ids)
	}

	// Claim: a recovering P1 (fresh incarnation, zero state) may deliver
	// m0 and m2 in either order — both carry depend_interval[P1] = 0.
	inc := New(1, n, nil, nil)
	for _, m := range []*wire.Envelope{m0, m2} {
		if got, err := inc.Deliverable(m, 0); err != nil || got != proto.Deliver {
			t.Fatalf("recovering P1 held %v at count 0", m)
		}
	}
	// ... but m5 must wait until two messages have been delivered.
	if got, err := inc.Deliverable(m5, 0); err != nil || got != proto.Hold {
		t.Fatal("recovering P1 delivered m5 before its dependencies")
	}
	if got, err := inc.Deliverable(m5, 1); err != nil || got != proto.Hold {
		t.Fatal("recovering P1 delivered m5 after only one delivery")
	}
	// Deliver m2 first — the order PWD would forbid (originally m0 came
	// first) but TDI allows.
	if err := inc.OnDeliver(m2, 1); err != nil {
		t.Fatal(err)
	}
	if err := inc.OnDeliver(m0, 2); err != nil {
		t.Fatal(err)
	}
	if got, err := inc.Deliverable(m5, 2); err != nil || got != proto.Deliver {
		t.Fatal("m5 still held after both dependencies delivered")
	}
	if err := inc.OnDeliver(m5, 3); err != nil {
		t.Fatal(err)
	}
	// The incarnation's vector converges to the original execution's.
	if got := inc.DependInterval(); !got.Equal(vclock.Vec{0, 3, 2, 1}) {
		t.Fatalf("incarnation vector = %v, want (0, 3, 2, 1)", got)
	}
}

// TestFig1TAGComparison runs the identical Fig. 1 history through the TAG
// baseline and verifies the paper's 20-identifier claim: m5's PWD causal
// dependency set contains five delivery events, each a 4-identifier
// determinant.
func TestFig1TAGComparison(t *testing.T) {
	const n = 4
	p0 := tag.New(0, n, nil, nil)
	p1 := tag.New(1, n, nil, nil)
	p2 := tag.New(2, n, nil, nil)
	p3 := tag.New(3, n, nil, nil)

	send := func(p *tag.TAG, from, to int, idx int64) (*wire.Envelope, int) {
		pig, ids := p.PiggybackForSend(to, idx)
		return &wire.Envelope{Kind: wire.KindApp, From: from, To: to, SendIndex: idx, Piggyback: pig}, ids
	}
	deliver := func(p *tag.TAG, env *wire.Envelope, count int64) {
		if err := p.OnDeliver(env, count); err != nil {
			t.Fatal(err)
		}
	}

	m0, _ := send(p0, 0, 1, 1)
	m1, _ := send(p0, 0, 3, 1)
	deliver(p1, m0, 1)
	deliver(p3, m1, 1)
	m2, _ := send(p3, 3, 1, 1)
	deliver(p1, m2, 2)
	m3, _ := send(p1, 1, 2, 1)
	deliver(p2, m3, 1)
	m4, _ := send(p3, 3, 2, 1)
	deliver(p2, m4, 2)
	_, m5ids := send(p2, 2, 1, 1)

	// P2's causal past at m5 is the paper's full dependency set S: five
	// delivery events = 20 identifiers. That is what a conservative
	// causal logging protocol would piggyback on m5.
	const wantDeterminants = 5
	if p2.GraphLen() != wantDeterminants {
		t.Fatalf("P2 graph has %d events, want %d (the set S of 20 identifiers)", p2.GraphLen(), wantDeterminants)
	}

	// Manetho's increment optimization trims the transmitted piggyback:
	// P2 learned {#m0, #m1, #m2} from P1's own m3, so only P2's two
	// delivery events ride on m5 — 2 determinants + the interval header.
	// Still more than double TDI's flat 4, and exactly the redundancy
	// game Section II.B.2 describes: the sender can never *know* what
	// the receiver holds, only estimate it.
	if want := 2*4 + 1; m5ids != want {
		t.Fatalf("TAG piggyback on m5 = %d identifiers, want %d", m5ids, want)
	}
}

// TestFig2MultiFailureScenario checks the paper's Fig. 2 argument
// (Section III.D): after the simultaneous failure of P1, P2 and P3, the
// logged messages m1..m5 are lost, yet recovery remains correct because
// (a) messages with equal dependency requirements may replay in any
// order without creating orphans, and (b) a message like m7, whose
// dependency count is 2, is held until the recovering P1 has delivered
// two messages — whichever two arrive first.
func TestFig2MultiFailureScenario(t *testing.T) {
	const n = 4
	// Rebuild the Fig. 1 history so the incarnations' regenerated
	// messages exist with their original piggybacks.
	p0 := New(0, n, nil, nil)
	p3 := New(3, n, nil, nil)

	mk := func(p *TDI, from, to int, idx int64) *wire.Envelope {
		pig, _ := p.PiggybackForSend(to, idx)
		return &wire.Envelope{Kind: wire.KindApp, From: from, To: to, SendIndex: idx, Piggyback: pig}
	}

	m0 := mk(p0, 0, 1, 1)
	m1 := mk(p0, 0, 3, 1)
	if err := p3.OnDeliver(m1, 1); err != nil {
		t.Fatal(err)
	}
	m2 := mk(p3, 3, 1, 1)

	// P1, P2, P3 all fail; fresh incarnations start from empty state.
	// P1's incarnation receives the regenerated m0 and m2 in the
	// opposite order from the original execution — legal, because both
	// require zero prior deliveries (their delivery order cannot create
	// an orphan: they are causally independent).
	inc1 := New(1, n, nil, nil)
	if v, err := inc1.Deliverable(m2, 0); err != nil || v != proto.Deliver {
		t.Fatalf("m2 held at count 0: %v", v)
	}
	if err := inc1.OnDeliver(m2, 1); err != nil {
		t.Fatal(err)
	}
	if v, err := inc1.Deliverable(m0, 1); err != nil || v != proto.Deliver {
		t.Fatalf("m0 held at count 1: %v", v)
	}
	if err := inc1.OnDeliver(m0, 2); err != nil {
		t.Fatal(err)
	}

	// m7-like message: sent by a process that causally observed P1's two
	// deliveries (here: P1's own outgoing message regenerated after the
	// two deliveries carries depend_interval[P1] = 2; any message built
	// on top of it inherits the requirement). A fresh P1 incarnation in
	// a second crash must hold it until two deliveries again.
	m7 := mk(inc1, 1, 2, 1)
	v, err := readFull(m7.Piggyback, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v[1] != 2 {
		t.Fatalf("regenerated dependency = %v, want [1]=2", v)
	}
	inc2 := New(2, n, nil, nil)
	// P2's incarnation can deliver m7 only after its own count reaches
	// the piggybacked requirement for rank 2 — which is 0 here — but the
	// requirement travels: a message from P2 to P1 after delivering m7
	// would carry depend_interval[1] = 2 onward.
	if err := inc2.OnDeliver(m7, 1); err != nil {
		t.Fatal(err)
	}
	onward := mk(inc2, 2, 1, 1)
	ov, err := readFull(onward.Piggyback, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ov[1] != 2 {
		t.Fatalf("transitive dependency lost: %v", ov)
	}
	// A third-incarnation P1 with no deliveries must hold that onward
	// message until it has replayed two deliveries — no orphan can form.
	inc1b := New(1, n, nil, nil)
	if v, err := inc1b.Deliverable(onward, 0); err != nil || v != proto.Hold {
		t.Fatal("onward message delivered before its dependencies")
	}
	if v, err := inc1b.Deliverable(onward, 2); err != nil || v != proto.Deliver {
		t.Fatal("onward message held after dependencies satisfied")
	}
}
