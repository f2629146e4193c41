package core

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"

	"windar/internal/vclock"
	"windar/internal/wire"
)

// The resync oracle: one channel S -> D (rank 1 to rank 0) across a
// rollback of S. S's vector moves between sends because it delivers
// feeder messages. The original run delivers them from rank 2. A
// reordered replay — what an AnySource roll-forward may make — delivers
// them from rank 3, so a regenerated vector differs from the original
// at the same send index in an element its own deltas need not repeat,
// and a delta that assumes the receiver merged a send it discarded
// loses that element. A deterministic replay delivers the original's
// feeder messages again. Ranks 4 and 5 only pad the vector, so a delta
// beats a full vector.
const (
	rsN                   = 6
	rsD, rsS, rsF, rsRegF = 0, 1, 2, 3
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
	// regenF is the regeneration's feeder: rsRegF reorders it, rsF
	// re-executes the original when kRegen repeats k.
	regenF int
	// reordered, when non-nil, is the successor's reorder flag
	// (SetReorderFlag); nil keeps its floors gating.
	reordered *atomic.Bool
}

// randomResyncCase draws a reordered history with 0 <= c <= H <= L.
func randomResyncCase(rng *rand.Rand) resyncCase {
	L := int64(1 + rng.Intn(60))
	H := rng.Int63n(L + 1)
	c := rng.Int63n(H + 1)
	rc := resyncCase{L: L, c: c, H: H, floor: H, total: L + 32 + rng.Int63n(20), regenF: rsRegF}
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

// deterministicResyncCase draws a history whose regeneration re-executes
// the original run up to its last send L, then goes on as it likes.
func deterministicResyncCase(rng *rand.Rand) resyncCase {
	rc := randomResyncCase(rng)
	rc.regenF = rsF
	copy(rc.kRegen, rc.k[rc.c:])
	return rc
}

// feed delivers k messages from feeder src to sender p; each carries the
// feeder's element and D's as functions of p's delivery count, so the
// demand S's messages make of D moves now and then.
func feed(p *TDI, src, k int, fidx *int64) {
	for i := 0; i < k; i++ {
		next := p.dependInterval[p.rank] + 1
		*fidx++
		pig := vclock.New(rsN)
		pig[rsD], pig[src], pig[4], pig[5] = next/3, 7*next, 1000, 2000
		if err := p.OnDeliver(env(src, p.rank, *fidx, pig), next); err != nil {
			panic(err)
		}
	}
}

// isFull reports whether a piggyback is a full vector: header 0.
func isFull(pig []byte) bool { return len(pig) > 0 && pig[0] == 0 }

// smallestEncoding is the piggyback a sender with a valid delta base
// must produce for cur after sending prev: nothing when they are equal,
// else the changed elements or the full vector, whichever is smaller.
func smallestEncoding(prev, cur vclock.Vec) []byte {
	if prev.Equal(cur) {
		return nil
	}
	ver := make([]uint64, len(cur))
	for i := range cur {
		if cur[i] != prev[i] {
			ver[i] = 1
		}
	}
	full := wire.AppendVecSince(nil, cur, rsS, nil, 0)
	if d := wire.AppendVecSince(nil, cur, rsS, ver, 0); len(d) < len(full) {
		return d
	}
	return full
}

type rsSend struct {
	pig  []byte
	want vclock.Vec
}

// resyncOutcome is what runResync observed.
type resyncOutcome struct {
	// mismatches counts D's deliveries after which D's vector differs
	// from its merge with the sender's full DependInterval at encode
	// time, or whose demand differs from that vector's D element (a
	// decode error counts and ends the run).
	mismatches int
	// deltaAtOrBelowFloor counts regenerated sends at or below the floor,
	// or made before it arrived, that were not full vectors.
	deltaAtOrBelowFloor int
	// postSends counts the regenerated sends made once the floor was
	// known whose delta base is above it (index > floor+1); postWrong
	// those among them that were not the smallest encoding.
	postSends, postWrong int
	// regenWrong counts the regenerated sends after the first, which has
	// no delta base, that were not the smallest encoding — what a
	// first-run sender would have sent.
	regenWrong int
	// diverged counts the regenerated sends up to L whose vector differs
	// from the original's at the same send index.
	diverged int
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
	orig := make([]rsSend, rc.L+1)
	snap := s.AppendSnapshot(nil)
	for j := int64(1); j <= rc.L; j++ {
		feed(s, rsF, rc.k[j-1], &fidx)
		pig, _ := s.PiggybackForSend(rsD, j)
		orig[j] = rsSend{pig, s.DependInterval()}
		if j == rc.c {
			snap = s.AppendSnapshot(nil)
		}
	}

	succ := New(rsS, rsN, nil, nil)
	if rc.reordered != nil {
		succ.SetReorderFlag(rc.reordered)
	}
	if err := succ.Restore(snap); err != nil {
		t.Fatal(err)
	}
	succ.BeginRecovery()
	regen := make([]rsSend, rc.c+rc.total+1)
	for n, j := 0, rc.c+1; j <= rc.c+rc.total; n, j = n+1, j+1 {
		if n == rc.at {
			succ.OnPeerResync(rsD, rc.floor)
		}
		feed(succ, rc.regenF, rc.kRegen[j-rc.c-1], &fidx)
		pig, _ := succ.PiggybackForSend(rsD, j)
		regen[j] = rsSend{pig, succ.DependInterval()}
		if j > rc.c+1 && !bytes.Equal(pig, smallestEncoding(regen[j-1].want, regen[j].want)) {
			out.regenWrong++
		}
		if j <= rc.L && !regen[j].want.Equal(orig[j].want) {
			out.diverged++
		}
		switch {
		case n < rc.at || j <= rc.floor:
			if !isFull(pig) {
				out.deltaAtOrBelowFloor++
			}
		case j > rc.floor+1:
			out.postSends++
			if !bytes.Equal(pig, smallestEncoding(regen[j-1].want, regen[j].want)) {
				out.postWrong++
			}
		}
	}

	d := New(rsD, rsN, nil, nil)
	deliver := func(j int64, m rsSend) bool {
		e := &wire.Envelope{Kind: wire.KindApp, From: rsS, To: rsD, SendIndex: j, Piggyback: m.pig}
		want := d.DependInterval()
		want[rsD]++
		want.MergeExcept(m.want, rsD)
		if err := d.OnDeliver(e, want[rsD]); err != nil {
			out.mismatches++
			return false
		}
		if demand, ok := d.DeliveryDemand(e); !d.DependInterval().Equal(want) || !ok || demand != m.want[rsD] {
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
// still queued at the receiver, a contiguous loss window — every
// delivery leaves the receiver with exactly its merge of the vector the
// sender had when it encoded the message, and with that vector's demand.
// Sends stay full until the floor arrives and at or below it; above it
// every send is the smallest encoding again — without a reorder flag
// and with a set one.
func TestResyncFloorDifferential(t *testing.T) {
	set := new(atomic.Bool)
	set.Store(true)
	for seed := int64(1); seed <= 300; seed++ {
		for _, flag := range []*atomic.Bool{nil, set} {
			rc := randomResyncCase(rand.New(rand.NewSource(seed)))
			rc.reordered = flag
			out := runResync(t, rc)
			if out.mismatches != 0 {
				t.Fatalf("seed %d %+v: %d deliveries left the receiver off its merge of the sender's vector", seed, rc, out.mismatches)
			}
			if out.deltaAtOrBelowFloor != 0 {
				t.Fatalf("seed %d: %d deltas sent before the floor was known or at or below it", seed, out.deltaAtOrBelowFloor)
			}
			if out.postWrong != 0 {
				t.Fatalf("seed %d: %d of %d sends above the floor were not the smallest encoding", seed, out.postWrong, out.postSends)
			}
		}
	}
}

// TestResyncDeterministicReplayIgnoresFloor: with a clear reorder flag,
// a regeneration that re-executes the original run sends every message
// after its first as a first run would — the smallest encoding, at or
// below the floor too — and every delivery still leaves the receiver
// with exactly its merge of the sender's vector.
func TestResyncDeterministicReplayIgnoresFloor(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rc := deterministicResyncCase(rand.New(rand.NewSource(seed)))
		rc.reordered = new(atomic.Bool)
		out := runResync(t, rc)
		if out.diverged != 0 {
			t.Fatalf("seed %d: the regeneration diverged from the original at %d sends", seed, out.diverged)
		}
		if out.mismatches != 0 {
			t.Fatalf("seed %d %+v: %d deliveries left the receiver off its merge of the sender's vector", seed, rc, out.mismatches)
		}
		if out.regenWrong != 0 {
			t.Fatalf("seed %d: %d regenerated sends were not the smallest encoding", seed, out.regenWrong)
		}
	}
}

// staleFloorCase is a history where the floor S's successor is told is
// below what D had really ingested, as an answer to a dead predecessor's
// ROLLBACK would be: D last delivered the original send 12, the
// successor's regenerated 8 to 12 carried rank 3's element, and the
// regenerated 13 — the first D delivers — omits it as already sent.
func staleFloorCase() resyncCase {
	rc := resyncCase{L: 20, c: 4, H: 12, floor: 6, total: 20, regenF: rsRegF}
	rc.k = make([]int, rc.L)
	for j := range rc.k {
		rc.k[j] = 1
	}
	rc.kRegen = make([]int, rc.total)
	for j := range rc.kRegen {
		if rc.c+1+int64(j) <= rc.H {
			rc.kRegen[j] = 1
		}
	}
	return rc
}

// TestResyncStaleFloorDesyncs is the negative case: the same oracle with
// a floor below D's real high-water loses an element at the receiver. This is
// why the harness passes on only RESPONSEs that answer the current
// incarnation's ROLLBACK.
func TestResyncStaleFloorDesyncs(t *testing.T) {
	rc := staleFloorCase()
	if out := runResync(t, rc); out.mismatches == 0 {
		t.Fatal("a floor below the receiver's high-water never lost an element")
	}
	rc.floor = rc.H
	if out := runResync(t, rc); out.mismatches != 0 {
		t.Fatalf("the honest floor desynchronized %d deliveries", out.mismatches)
	}
}

// TestResyncReorderedReplayNeedsFlag is the negative case of the reorder
// flag: a reordered regeneration whose flag was never set sends deltas
// at or below the floor and loses an element at the receiver — in the
// stale-floor history with its honest floor, and in some of the seeded
// histories TestResyncFloorDifferential keeps exact with the flag set.
func TestResyncReorderedReplayNeedsFlag(t *testing.T) {
	rc := staleFloorCase()
	rc.floor = rc.H
	rc.reordered = new(atomic.Bool)
	if out := runResync(t, rc); out.mismatches == 0 {
		t.Fatal("a reordered replay with a clear flag never lost an element")
	}
	lost := 0
	for seed := int64(1); seed <= 300; seed++ {
		rc := randomResyncCase(rand.New(rand.NewSource(seed)))
		rc.reordered = new(atomic.Bool)
		if runResync(t, rc).mismatches != 0 {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no seeded reordered history lost an element with a clear flag")
	}
	t.Logf("%d of 300 reordered histories lost an element with a clear flag", lost)
}
