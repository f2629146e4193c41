package tel

import (
	"sync"
	"testing"
	"time"

	"windar/internal/clock"
	"windar/internal/determinant"
	"windar/internal/proto"
	"windar/internal/vclock"
	"windar/internal/wire"
)

func newLoggerT(t *testing.T, n int, latency time.Duration) *Logger {
	t.Helper()
	lg := NewLogger(n, clock.Real{}, latency)
	t.Cleanup(lg.Close)
	return lg
}

func envFrom(p *TEL, from, to int, sendIndex int64) *wire.Envelope {
	pig, _ := p.PiggybackForSend(to, sendIndex)
	return &wire.Envelope{Kind: wire.KindApp, From: from, To: to, SendIndex: sendIndex, Piggyback: pig}
}

func deliverT(t *testing.T, p *TEL, env *wire.Envelope, idx int64) {
	t.Helper()
	if v, err := p.Deliverable(env, idx-1); err != nil || v != proto.Deliver {
		t.Fatalf("Deliverable = %v for delivery %d", v, idx)
	}
	if err := p.OnDeliver(env, idx); err != nil {
		t.Fatalf("OnDeliver: %v", err)
	}
}

// waitUnstable polls until p's unstable count drops to want (acks are
// asynchronous).
func waitUnstable(t *testing.T, mu sync.Locker, p *TEL, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := p.UnstableCount()
		mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("UnstableCount stuck at %d, want %d", n, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestLoggerCommitAndStableVec(t *testing.T) {
	lg := newLoggerT(t, 3, 0)
	done := make(chan vclock.Vec, 1)
	lg.LogAsync([]determinant.D{
		{Sender: 0, SendIndex: 1, Receiver: 1, DeliverIndex: 1},
		{Sender: 2, SendIndex: 1, Receiver: 1, DeliverIndex: 2},
	}, func(stable vclock.Vec) { done <- stable })
	select {
	case stable := <-done:
		if !stable.Equal(vclock.Vec{0, 2, 0}) {
			t.Fatalf("stable vec = %v, want (0, 2, 0)", stable)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ack never fired")
	}
	if lg.Logged() != 2 {
		t.Fatalf("Logged = %d", lg.Logged())
	}
	// A gap keeps the contiguous prefix from advancing.
	done2 := make(chan vclock.Vec, 1)
	lg.LogAsync([]determinant.D{
		{Sender: 0, SendIndex: 9, Receiver: 1, DeliverIndex: 4},
	}, func(stable vclock.Vec) { done2 <- stable })
	select {
	case stable := <-done2:
		if stable[1] != 2 {
			t.Fatalf("gap ignored: stable[1] = %d, want 2", stable[1])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second ack never fired")
	}
	// Filling the gap advances past both.
	done3 := make(chan vclock.Vec, 1)
	lg.LogAsync([]determinant.D{
		{Sender: 0, SendIndex: 8, Receiver: 1, DeliverIndex: 3},
	}, func(stable vclock.Vec) { done3 <- stable })
	select {
	case stable := <-done3:
		if stable[1] != 4 {
			t.Fatalf("stable[1] = %d after gap fill, want 4", stable[1])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("third ack never fired")
	}
}

func TestName(t *testing.T) {
	if New(0, 1, nil, nil, nil, nil).Name() != "tel" {
		t.Fatal("name")
	}
}

func TestPiggybackEmptyInitially(t *testing.T) {
	p := New(0, 4, nil, nil, nil, nil)
	pig, ids := p.PiggybackForSend(1, 1)
	if ids != 0 {
		t.Fatalf("ids = %d, want 0", ids)
	}
	ds, _, err := determinant.ReadSlice(pig)
	if err != nil || len(ds) != 0 {
		t.Fatalf("ds = %v, err %v", ds, err)
	}
}

func TestUnstableDeterminantsPiggybacked(t *testing.T) {
	// High logger latency: nothing becomes stable during the test, so
	// every delivery adds 4 identifiers to subsequent sends.
	lg := newLoggerT(t, 4, time.Hour)
	var mu sync.Mutex
	p := New(1, 4, lg, &mu, nil, nil)
	feeder := New(0, 4, nil, nil, nil, nil)
	mu.Lock()
	deliverT(t, p, envFrom(feeder, 0, 1, 1), 1)
	deliverT(t, p, envFrom(feeder, 0, 1, 2), 2)
	_, ids := p.PiggybackForSend(2, 1)
	mu.Unlock()
	if ids != 8 {
		t.Fatalf("ids = %d, want 8 (2 unstable determinants)", ids)
	}
}

func TestAckPrunesPiggyback(t *testing.T) {
	// Low latency: after acks arrive the unstable set drains and the
	// piggyback shrinks back to zero — TEL's advantage over TAG.
	lg := newLoggerT(t, 4, time.Millisecond)
	var mu sync.Mutex
	p := New(1, 4, lg, &mu, nil, nil)
	feeder := New(0, 4, nil, nil, nil, nil)
	mu.Lock()
	deliverT(t, p, envFrom(feeder, 0, 1, 1), 1)
	deliverT(t, p, envFrom(feeder, 0, 1, 2), 2)
	mu.Unlock()
	waitUnstable(t, &mu, p, 0)
	mu.Lock()
	_, ids := p.PiggybackForSend(2, 3)
	mu.Unlock()
	if ids != 0 {
		t.Fatalf("ids = %d after acks, want 0", ids)
	}
}

func TestReceivedDeterminantsPropagate(t *testing.T) {
	// P1 delivers with a slow logger, sends to P2: P2 must carry P1's
	// unstable determinant onward (causal piggybacking).
	lg := newLoggerT(t, 4, time.Hour)
	var mu1, mu2 sync.Mutex
	p1 := New(1, 4, lg, &mu1, nil, nil)
	p2 := New(2, 4, lg, &mu2, nil, nil)
	feeder := New(0, 4, nil, nil, nil, nil)

	mu1.Lock()
	deliverT(t, p1, envFrom(feeder, 0, 1, 1), 1)
	m := envFrom(p1, 1, 2, 1)
	mu1.Unlock()

	mu2.Lock()
	deliverT(t, p2, m, 1)
	_, ids := p2.PiggybackForSend(3, 1)
	mu2.Unlock()
	// P2 carries P1's determinant plus its own delivery's: 2 × 4.
	if ids != 8 {
		t.Fatalf("ids = %d, want 8", ids)
	}
}

func TestRecoveryUsesLoggerAndResponses(t *testing.T) {
	lg := newLoggerT(t, 3, 0)
	var mu sync.Mutex
	p := New(1, 3, lg, &mu, nil, nil)
	feeder0 := New(0, 3, nil, nil, nil, nil)
	feeder2 := New(2, 3, nil, nil, nil, nil)

	mu.Lock()
	deliverT(t, p, envFrom(feeder0, 0, 1, 1), 1)
	deliverT(t, p, envFrom(feeder2, 2, 1, 1), 2)
	mu.Unlock()
	// Wait for the determinants to reach the logger.
	deadline := time.Now().Add(10 * time.Second)
	for lg.Logged() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("logger only has %d determinants", lg.Logged())
		}
		time.Sleep(200 * time.Microsecond)
	}

	// Fresh incarnation from an empty checkpoint.
	inc := New(1, 3, lg, &sync.Mutex{}, nil, nil)
	inc.BeginRecovery()

	m0 := envFrom(New(0, 3, nil, nil, nil, nil), 0, 1, 1)
	m2 := envFrom(New(2, 3, nil, nil, nil, nil), 2, 1, 1)

	// Responses outstanding: hold.
	if v, err := inc.Deliverable(m0, 0); err != nil || v != proto.Hold {
		t.Fatalf("admitted before responses: %v", v)
	}
	if err := inc.OnRecoveryData(0, determinant.AppendSlice(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := inc.OnRecoveryData(2, determinant.AppendSlice(nil, nil)); err != nil {
		t.Fatal(err)
	}
	// Responses in, yet still held: only the harness ends collection.
	if v, err := inc.Deliverable(m0, 0); err != nil || v != proto.Hold {
		t.Fatalf("admitted before OnCollected: %v", v)
	}
	inc.OnCollected()

	// The logger pinned slot 1 to (P0,#1): m2 must hold, m0 delivers.
	if v, err := inc.Deliverable(m2, 0); err != nil || v != proto.Hold {
		t.Fatalf("out-of-order replay admitted: %v", v)
	}
	if v, err := inc.Deliverable(m0, 0); err != nil || v != proto.Deliver {
		t.Fatalf("recorded message held: %v", v)
	}
	if err := inc.OnDeliver(m0, 1); err != nil {
		t.Fatal(err)
	}
	if v, err := inc.Deliverable(m2, 1); err != nil || v != proto.Deliver {
		t.Fatalf("slot 2 held: %v", v)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	lg := newLoggerT(t, 3, time.Hour)
	var mu sync.Mutex
	p := New(1, 3, lg, &mu, nil, nil)
	feeder := New(0, 3, nil, nil, nil, nil)
	mu.Lock()
	deliverT(t, p, envFrom(feeder, 0, 1, 1), 1)
	snap := p.AppendSnapshot(nil)
	unstable := p.UnstableCount()
	mu.Unlock()

	restored := New(1, 3, lg, &sync.Mutex{}, nil, nil)
	if err := restored.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if restored.ownDelivered != 1 || restored.UnstableCount() != unstable {
		t.Fatalf("restored state: delivered=%d unstable=%d", restored.ownDelivered, restored.UnstableCount())
	}
	if err := restored.Restore([]byte{0xFF}); err == nil {
		t.Fatal("Restore accepted garbage")
	}
}

func TestOnPeerCheckpointPrunes(t *testing.T) {
	lg := newLoggerT(t, 4, time.Hour)
	var mu sync.Mutex
	p2 := New(2, 4, lg, &mu, nil, nil)
	p1 := New(1, 4, lg, &sync.Mutex{}, nil, nil)
	feeder := New(0, 4, nil, nil, nil, nil)

	// P1 accumulates two unstable determinants and sends to P2.
	deliverT(t, p1, envFrom(feeder, 0, 1, 1), 1)
	deliverT(t, p1, envFrom(feeder, 0, 1, 2), 2)
	m := envFrom(p1, 1, 2, 1)
	mu.Lock()
	deliverT(t, p2, m, 1)
	before := p2.UnstableCount()
	p2.OnPeerCheckpoint(1, 2)
	after := p2.UnstableCount()
	mu.Unlock()
	if before != 3 { // two of P1's + own delivery
		t.Fatalf("before = %d, want 3", before)
	}
	if after != 1 { // only own delivery survives
		t.Fatalf("after = %d, want 1", after)
	}
}

func TestLoggerFetchForOrdering(t *testing.T) {
	lg := newLoggerT(t, 2, 0)
	done := make(chan struct{})
	lg.LogAsync([]determinant.D{
		{Sender: 0, SendIndex: 2, Receiver: 1, DeliverIndex: 3},
		{Sender: 0, SendIndex: 1, Receiver: 1, DeliverIndex: 1},
		{Sender: 0, SendIndex: 3, Receiver: 1, DeliverIndex: 2},
	}, func(vclock.Vec) { close(done) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ack never fired")
	}
	got := lg.FetchFor(1, 1)
	if len(got) != 2 {
		t.Fatalf("FetchFor = %v", got)
	}
	if got[0].DeliverIndex != 2 || got[1].DeliverIndex != 3 {
		t.Fatalf("FetchFor out of order: %v", got)
	}
	if extra := lg.FetchFor(0, 0); len(extra) != 0 {
		t.Fatalf("FetchFor(0) = %v, want empty", extra)
	}
	// Prune drops records and advances the stable floor.
	lg.Prune(1, 2)
	if got := lg.FetchFor(1, 0); len(got) != 1 || got[0].DeliverIndex != 3 {
		t.Fatalf("after prune: %v", got)
	}
	if v := lg.StableVec(); v[1] < 2 {
		t.Fatalf("stable floor not advanced by prune: %v", v)
	}
}

func TestOnDeliverRejectsGarbage(t *testing.T) {
	p := New(0, 2, nil, nil, nil, nil)
	bad := &wire.Envelope{Kind: wire.KindApp, From: 1, To: 0, SendIndex: 1, Piggyback: []byte{0xFF}}
	if err := p.OnDeliver(bad, 1); err == nil {
		t.Fatal("garbage piggyback accepted")
	}
}
