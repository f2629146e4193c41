package core

import (
	"math/rand"
	"testing"

	"windar/internal/vclock"
	"windar/internal/wire"
)

// The resync oracle: one channel S -> D (rank 1 to rank 0) across a
// rollback of S. S's vector moves between sends because it delivers
// feeder messages. The original run delivers them from rank 2, S's
// successor from rank 3 — the reorder an AnySource roll-forward may
// make — so a regenerated vector differs from the original at the same
// send index in an element its own deltas never touch, and a delta
// chained onto the wrong base decodes wrongly. Ranks 4 and 5 only pad
// the vector, so a delta beats a full vector and the refresh cadence is
// observable.
const (
	rsN                   = 6
	rsD, rsS, rsF, rsRegF = 0, 1, 2, 3
	rsRefresh             = 8
)

// resyncCase is one history. Send indices are 1-based; k and kRegen give
// the feeder deliveries S makes right before each original and each
// regenerated send (k[j-1] precedes send j).
type resyncCase struct {
	// L originals were sent before S died, c of them before its
	// checkpoint. D had ingested up to H: it delivers those originals —
	// some of them only after S's successor started, out of its queue —
	// and (H, L] is the contiguous window the crash lost.
	L, c, H int64
	// floor is what the successor learns from D's RESPONSE after its
	// first `at` regenerated sends. An honest floor is H.
	floor int64
	at    int
	// total is how many sends the successor makes in all (from c+1).
	total     int64
	k, kRegen []int
}

// randomResyncCase draws a history with 0 <= c <= H <= L.
func randomResyncCase(rng *rand.Rand) resyncCase {
	L := int64(1 + rng.Intn(60))
	H := rng.Int63n(L + 1)
	c := rng.Int63n(H + 1)
	rc := resyncCase{L: L, c: c, H: H, floor: H, total: L + 4*rsRefresh + rng.Int63n(20)}
	rc.k = make([]int, L)
	for j := range rc.k {
		rc.k[j] = rng.Intn(3)
	}
	rc.kRegen = make([]int, rc.total)
	for j := range rc.kRegen {
		rc.kRegen[j] = rng.Intn(3)
	}
	rc.at = rng.Intn(int(rc.total-c) + 1)
	return rc
}

// feed delivers k messages from feeder src to sender p; each carries the
// feeder's element as a function of p's delivery count.
func feed(p *TDI, src, k int, fidx *int64) {
	for i := 0; i < k; i++ {
		next := p.dependInterval[p.rank] + 1
		*fidx++
		pig := vclock.New(rsN)
		pig[src], pig[4], pig[5] = 7*next, 1000, 2000
		if err := p.OnDeliver(env(src, p.rank, *fidx, pig), next); err != nil {
			panic(err)
		}
	}
}

// isFull reports whether a piggyback is a full vector.
func isFull(pig []byte) bool { return pig[0] != wire.VecDeltaMarker }

type rsSend struct {
	pig  []byte
	want vclock.Vec
}

// resyncOutcome is what runResync observed.
type resyncOutcome struct {
	// mismatches counts D's deliveries whose decoded vector differs from
	// the sender's DependInterval at encode time (a decode error counts
	// and ends the run).
	mismatches int
	// deltaAtOrBelowFloor counts regenerated sends at or below the floor,
	// or made before it arrived, that were deltas.
	deltaAtOrBelowFloor int
	// postSends and postFulls count the regenerated sends made once the
	// floor was known whose base could be above it (index > floor+1),
	// and the full vectors among them.
	postSends, postFulls int
}

// runResync plays rc: S's original run with its checkpoint, D's
// deliveries of originals up to H, the successor's regeneration with the
// floor arriving after `at` sends, and D's deliveries of the regenerated
// sends above H — the ones the harness neither suppresses nor discards
// as duplicates of queued originals.
func runResync(t *testing.T, rc resyncCase) resyncOutcome {
	t.Helper()
	var out resyncOutcome
	var fidx int64
	s := New(rsS, rsN, nil, nil)
	s.SetRefreshEvery(rsRefresh)
	orig := make([]rsSend, rc.L+1)
	snap := s.Snapshot()
	for j := int64(1); j <= rc.L; j++ {
		feed(s, rsF, rc.k[j-1], &fidx)
		pig, _ := s.PiggybackForSend(rsD, j)
		orig[j] = rsSend{pig, s.DependInterval()}
		if j == rc.c {
			snap = s.Snapshot()
		}
	}

	succ := New(rsS, rsN, nil, nil)
	succ.SetRefreshEvery(rsRefresh)
	if err := succ.Restore(snap); err != nil {
		t.Fatal(err)
	}
	succ.BeginRecovery()
	regen := make([]rsSend, rc.c+rc.total+1)
	for n, j := 0, rc.c+1; j <= rc.c+rc.total; n, j = n+1, j+1 {
		if n == rc.at {
			succ.OnPeerResync(rsD, rc.floor)
		}
		feed(succ, rsRegF, rc.kRegen[j-rc.c-1], &fidx)
		pig, _ := succ.PiggybackForSend(rsD, j)
		regen[j] = rsSend{pig, succ.DependInterval()}
		switch {
		case n < rc.at || j <= rc.floor:
			if !isFull(pig) {
				out.deltaAtOrBelowFloor++
			}
		case j > rc.floor+1:
			out.postSends++
			if isFull(pig) {
				out.postFulls++
			}
		}
	}

	d := New(rsD, rsN, nil, nil)
	deliver := func(j int64, m rsSend) bool {
		e := &wire.Envelope{Kind: wire.KindApp, From: rsS, To: rsD, SendIndex: j, Piggyback: m.pig}
		if err := d.OnDeliver(e, d.dependInterval[rsD]+1); err != nil {
			out.mismatches++
			return false
		}
		if !d.recv[rsS].Equal(m.want) {
			out.mismatches++
		}
		return true
	}
	for j := int64(1); j <= rc.H; j++ {
		if !deliver(j, orig[j]) {
			return out
		}
	}
	for j := rc.H + 1; j <= rc.c+rc.total; j++ {
		if !deliver(j, regen[j]) {
			return out
		}
	}
	return out
}

// TestResyncFloorDifferential: across seeded histories — a sender
// rollback whose regenerated vectors diverge, old-incarnation originals
// still queued at the receiver, a contiguous loss window — every message
// the receiver delivers decodes to exactly the vector the sender had when
// it encoded it. Sends stay full until the floor arrives and at or below
// it; above it the refresh cadence is back.
func TestResyncFloorDifferential(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rc := randomResyncCase(rand.New(rand.NewSource(seed)))
		out := runResync(t, rc)
		if out.mismatches != 0 {
			t.Fatalf("seed %d %+v: %d deliveries decoded to a vector the sender never sent", seed, rc, out.mismatches)
		}
		if out.deltaAtOrBelowFloor != 0 {
			t.Fatalf("seed %d: %d deltas sent before the floor was known or at or below it", seed, out.deltaAtOrBelowFloor)
		}
		if limit := out.postSends/rsRefresh + 1; out.postFulls > limit {
			t.Fatalf("seed %d: %d full vectors in %d sends above the floor, want at most %d (the refresh cadence)",
				seed, out.postFulls, out.postSends, limit)
		}
	}
}

// staleFloorCase is a history where the floor S's successor is told is
// below what D had really ingested, as an answer to a dead predecessor's
// ROLLBACK would be: D last delivered the original send 12, and the
// regenerated 13 is a delta against the successor's own 12 — which D
// never saw.
func staleFloorCase() resyncCase {
	rc := resyncCase{L: 20, c: 4, H: 12, floor: 6, total: 20}
	rc.k = make([]int, rc.L)
	for j := range rc.k {
		rc.k[j] = 1
	}
	rc.kRegen = make([]int, rc.total)
	for j := range rc.kRegen {
		rc.kRegen[j] = 1
	}
	return rc
}

// TestResyncStaleFloorDesyncs is the negative case: the same oracle with
// a floor below D's real high-water decodes a message wrongly. This is
// why the harness passes on only RESPONSEs that answer the current
// incarnation's ROLLBACK.
func TestResyncStaleFloorDesyncs(t *testing.T) {
	rc := staleFloorCase()
	if out := runResync(t, rc); out.mismatches == 0 {
		t.Fatal("a floor below the receiver's high-water never desynchronized the delta chain")
	}
	rc.floor = rc.H
	if out := runResync(t, rc); out.mismatches != 0 {
		t.Fatalf("the honest floor desynchronized %d deliveries", out.mismatches)
	}
}
