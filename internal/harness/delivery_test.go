package harness

import (
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// newIdleRuntime builds a rank runtime inside a cluster whose application
// performs no communication, so the delivery manager's state can be
// driven by hand (white-box tests of Algorithm 1 lines 15-31).
func newIdleRuntime(t *testing.T, n int, p ProtocolKind) *rankRuntime {
	t.Helper()
	cfg := testConfig(n, p)
	cfg.CheckpointEvery = 0
	c, err := NewCluster(cfg, func(rank, nn int) app.App { return idleApp{} })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Wait() // idle apps finish instantly; receiver threads stay up
	c.ranksMu.Lock()
	r := c.ranks[0]
	c.ranksMu.Unlock()
	return r
}

type idleApp struct{}

func (idleApp) Steps() int             { return 0 }
func (idleApp) Step(app.Env, int)      {}
func (idleApp) Snapshot() []byte       { return nil }
func (idleApp) Restore(b []byte) error { return nil }

// enqueueApp is one envelope's worth of the receiver loop's ingest:
// insert into queue B, then wake the delivery scan.
func (r *rankRuntime) enqueueApp(env *wire.Envelope) {
	if r.insertShard(env) {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// tdiEnv crafts an app envelope with a TDI piggyback.
func tdiEnv(from, to int, sendIndex int64, pig vclock.Vec, tag int32) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindApp, From: from, To: to, Tag: tag,
		SendIndex: sendIndex, Piggyback: wire.AppendVecSince(nil, pig, from, nil, 0, -1),
	}
}

func TestEnqueueDiscardsRepetitive(t *testing.T) {
	r := newIdleRuntime(t, 3, TDI)
	zero := vclock.New(3)

	r.mu.Lock()
	r.lastDeliverIndex[1] = 5
	r.mu.Unlock()
	// The receiver's duplicate bound lives in the shard mirror (see
	// deliveryShard.delivered); keep it in sync as Recover does.
	r.shards[1].mu.Lock()
	r.shards[1].delivered = 5
	r.shards[1].mu.Unlock()

	r.enqueueApp(tdiEnv(1, 0, 5, zero, 0)) // already delivered
	r.enqueueApp(tdiEnv(1, 0, 3, zero, 0)) // long gone
	r.enqueueApp(tdiEnv(1, 0, 6, zero, 0)) // fresh

	r.shards[1].mu.Lock()
	q := append([]*wire.Envelope(nil), r.shards[1].q[r.shards[1].head:]...)
	r.shards[1].mu.Unlock()
	if len(q) != 1 || q[0].SendIndex != 6 {
		t.Fatalf("queue = %v", q)
	}
	if got := r.c.coll.Rank(0).Snapshot().RepetitiveDiscarded; got != 2 {
		t.Fatalf("RepetitiveDiscarded = %d", got)
	}
}

func TestEnqueueSortsAndDedupesInQueue(t *testing.T) {
	r := newIdleRuntime(t, 3, TDI)
	zero := vclock.New(3)

	// Out-of-order arrival (a resend raced a parked original) plus an
	// in-queue duplicate.
	r.enqueueApp(tdiEnv(1, 0, 3, zero, 0))
	r.enqueueApp(tdiEnv(1, 0, 1, zero, 0))
	r.enqueueApp(tdiEnv(1, 0, 2, zero, 0))
	r.enqueueApp(tdiEnv(1, 0, 2, zero, 0)) // duplicate copy

	r.shards[1].mu.Lock()
	q := append([]*wire.Envelope(nil), r.shards[1].q[r.shards[1].head:]...)
	r.shards[1].mu.Unlock()
	if len(q) != 3 {
		t.Fatalf("queue length = %d", len(q))
	}
	for i, env := range q {
		if env.SendIndex != int64(i+1) {
			t.Fatalf("queue not sorted: %v", q)
		}
	}
}

func TestFindDeliverableRespectsFIFOGap(t *testing.T) {
	r := newIdleRuntime(t, 3, TDI)
	zero := vclock.New(3)
	r.enqueueApp(tdiEnv(1, 0, 2, zero, 0)) // message 1 is missing

	r.mu.Lock()
	defer r.mu.Unlock()
	if env := r.takeDeliverableLocked(1, app.AnyTag); env != nil {
		t.Fatalf("delivered across FIFO gap: %+v", env)
	}
}

func TestFindDeliverableTagMatching(t *testing.T) {
	r := newIdleRuntime(t, 3, TDI)
	zero := vclock.New(3)
	r.enqueueApp(tdiEnv(1, 0, 1, zero, 7))
	r.enqueueApp(tdiEnv(1, 0, 2, zero, 8))

	r.mu.Lock()
	defer r.mu.Unlock()
	if env := r.takeDeliverableLocked(1, 9); env != nil {
		t.Fatal("delivered mismatched tag")
	}
	env := r.takeDeliverableLocked(1, 7)
	if env == nil {
		t.Fatal("matching tag held")
	}
	r.deliverLocked(env)
	if env := r.takeDeliverableLocked(1, app.AnyTag); env == nil {
		t.Fatal("AnyTag held")
	}
}

// TestTakeDeliverablePopsUnderTheShardLock: a taken head leaves the FIFO
// and raises the ingest-side duplicate bound at once, so a copy arriving
// between the take and the commit is discarded as repetitive; a held
// head stays queued.
func TestTakeDeliverablePopsUnderTheShardLock(t *testing.T) {
	r := newIdleRuntime(t, 3, TDI)
	zero := vclock.New(3)
	r.enqueueApp(tdiEnv(1, 0, 1, zero, 0))
	r.enqueueApp(tdiEnv(1, 0, 2, vclock.Vec{5, 0, 0}, 0)) // held: demands 5 deliveries

	r.mu.Lock()
	env := r.takeDeliverableLocked(1, app.AnyTag)
	r.mu.Unlock()
	if env == nil || env.SendIndex != 1 {
		t.Fatalf("take = %+v, want index 1", env)
	}
	r.enqueueApp(tdiEnv(1, 0, 1, zero, 0)) // a resent copy racing the commit
	r.shards[1].mu.Lock()
	pending, delivered := r.shards[1].pending(), r.shards[1].delivered
	r.shards[1].mu.Unlock()
	if pending != 1 || delivered != 1 {
		t.Fatalf("after take: %d pending, bound %d; want 1 and 1", pending, delivered)
	}
	if got := r.c.coll.Rank(0).Snapshot().RepetitiveDiscarded; got != 1 {
		t.Fatalf("RepetitiveDiscarded = %d, want the racing copy", got)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deliverLocked(env)
	if held := r.takeDeliverableLocked(1, app.AnyTag); held != nil {
		t.Fatalf("took a held head: %+v", held)
	}
	r.shards[1].mu.Lock()
	defer r.shards[1].mu.Unlock()
	if r.shards[1].pending() != 1 {
		t.Fatal("a held head left the FIFO")
	}
}

func TestFindDeliverableAnySourceScansAll(t *testing.T) {
	r := newIdleRuntime(t, 4, TDI)
	zero := vclock.New(4)
	// Source 1's head is gapped; source 2's head is clean.
	r.enqueueApp(tdiEnv(1, 0, 2, zero, 0))
	r.enqueueApp(tdiEnv(2, 0, 1, zero, 0))

	r.mu.Lock()
	defer r.mu.Unlock()
	env := r.takeDeliverableLocked(app.AnySource, app.AnyTag)
	if env == nil || env.From != 2 {
		t.Fatalf("AnySource pick = %+v, want from 2", env)
	}
}

// TestAnySourceRotatesAcrossSources is the regression test for the
// AnySource starvation bug: the scan used to start at source 0 on every
// call, so a chatty low-numbered source whose queue never drained
// starved every higher-numbered one — here it picked source 1 three
// times straight before source 2 got a turn. The rotating cursor must
// serve two continuously refilled sources in strict alternation.
func TestAnySourceRotatesAcrossSources(t *testing.T) {
	r := newIdleRuntime(t, 4, TDI)
	zero := vclock.New(4)
	for idx := int64(1); idx <= 3; idx++ {
		r.enqueueApp(tdiEnv(1, 0, idx, zero, 0))
		r.enqueueApp(tdiEnv(2, 0, idx, zero, 0))
	}

	var order []int
	r.mu.Lock()
	for i := 0; i < 4; i++ {
		env := r.takeDeliverableLocked(app.AnySource, app.AnyTag)
		if env == nil {
			r.mu.Unlock()
			t.Fatalf("no deliverable message on iteration %d (order so far %v)", i, order)
		}
		order = append(order, env.From)
		r.deliverLocked(env)
	}
	r.mu.Unlock()

	// Both sources hold a deliverable head for the whole loop, so any
	// repeat means the cursor failed to rotate past the served source.
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("AnySource starved a source: delivery order %v", order)
		}
	}
}

func TestFindDeliverableHonoursProtocolHold(t *testing.T) {
	r := newIdleRuntime(t, 3, TDI)
	// The piggyback demands this rank have delivered 2 messages first.
	need2 := vclock.Vec{2, 0, 0}
	r.enqueueApp(tdiEnv(1, 0, 1, need2, 0))

	r.mu.Lock()
	defer r.mu.Unlock()
	if env := r.takeDeliverableLocked(1, app.AnyTag); env != nil {
		t.Fatal("protocol Hold ignored")
	}
	// Satisfy the dependency count artificially.
	r.deliveredCount = 2
	if env := r.takeDeliverableLocked(1, app.AnyTag); env == nil {
		t.Fatal("held although dependency count satisfied")
	}
}

// TestFig3RepetitiveScenario is the paper's Fig. 3 at the delivery
// manager level: P1 fails and, before P3's RESPONSE arrives, resends m3
// (send_index 1); P3 already delivered it, so the copy is discarded by
// comparing the piggybacked sending index with last_deliver_index.
func TestFig3RepetitiveScenario(t *testing.T) {
	r := newIdleRuntime(t, 4, TDI) // r plays P3 (rank 0 here)
	zero := vclock.New(4)

	// P3 delivers m3 from P1 normally.
	r.enqueueApp(tdiEnv(1, 0, 1, zero, 0))
	r.mu.Lock()
	env := r.takeDeliverableLocked(1, app.AnyTag)
	if env == nil {
		r.mu.Unlock()
		t.Fatal("m3 not deliverable")
	}
	r.deliverLocked(env)
	r.mu.Unlock()

	// P1's incarnation rolls forward and conservatively resends m3.
	resent := tdiEnv(1, 0, 1, zero, 0)
	resent.Resent = true
	r.enqueueApp(resent)

	r.shards[1].mu.Lock()
	queued := r.shards[1].pending()
	r.shards[1].mu.Unlock()
	if queued != 0 {
		t.Fatalf("repetitive m3 still queued (%d entries)", queued)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got := r.c.coll.Rank(0).Snapshot().RepetitiveDiscarded; got != 1 {
		t.Fatalf("RepetitiveDiscarded = %d, want 1", got)
	}
	if r.lastDeliverIndex[1] != 1 || r.deliveredCount != 1 {
		t.Fatalf("delivery counters corrupted: %v, %d", r.lastDeliverIndex, r.deliveredCount)
	}
}

// TestRecvDeliversAcrossWakeup verifies the Recv wait loop wakes when a
// deliverable message arrives from the receiver thread.
func TestRecvDeliversAcrossWakeup(t *testing.T) {
	r := newIdleRuntime(t, 3, TDI)
	zero := vclock.New(3)
	got := make(chan int64, 1)
	go func() {
		data, from := r.Recv(1, app.AnyTag)
		_ = data
		if from != 1 {
			got <- -1
			return
		}
		r.mu.Lock()
		idx := r.lastDeliverIndex[1]
		r.mu.Unlock()
		got <- idx
	}()
	time.Sleep(2 * time.Millisecond)
	r.enqueueApp(tdiEnv(1, 0, 1, zero, 0))
	select {
	case idx := <-got:
		if idx != 1 {
			t.Fatalf("delivered index = %d", idx)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv never woke")
	}
}
