package harness

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/transport"
	"windar/layer"
)

// The per-message counters reach metrics.Rank through the app goroutine's
// tally, published before a Recv parks, at each step boundary, in a
// checkpoint, and when the goroutine exits, finished or killed. This file
// checks each of those points against an independent count.

const (
	exactRanks    = 3
	exactSteps    = 8
	exactBurst    = 4
	exactParkStep = 3 // rank 1 parks on rank 0, with rank 2's burst held
	exactKillStep = 5 // rank 2 is killed mid-step, sends unpublished
	exactVictim   = 2
	tagBody       = int32(1)
	tagTail       = int32(2)
)

// exactCounter is a user interceptor counting each rank's sends and
// deliveries as the chain sees them, across incarnations.
type exactCounter struct {
	sent, delivered [exactRanks]atomic.Int64
	x               *exactRun
}

func (c *exactCounter) Wrap(next layer.Handler) layer.Handler {
	return &exactHandler{Forward: layer.Forward{Next: next}, c: c}
}

type exactHandler struct {
	layer.Forward
	c *exactCounter
}

func (h *exactHandler) Send(m *layer.Msg) {
	h.c.sent[m.Rank].Add(1)
	h.Forward.Send(m)
}

func (h *exactHandler) Deliver(m *layer.Msg) {
	h.c.delivered[m.Rank].Add(1)
	h.Forward.Deliver(m)
}

// Checkpoint runs inside the checkpoint, on the rank's app goroutine.
func (h *exactHandler) Checkpoint(info *layer.CheckpointInfo) {
	h.c.x.check(info.Rank, "in a checkpoint")
	h.Forward.Checkpoint(info)
}

// exactRun is the fixture shared by every rank's application.
type exactRun struct {
	t       *testing.T
	c       *Cluster
	counter *exactCounter

	release        chan struct{} // rank 0 waits on it at the park step
	parkAt         atomic.Int64  // rank 1's clock reading just before the parking Recv
	atHold, resume chan struct{} // the victim signals atHold, then waits on resume
	atHoldOnce     sync.Once
	checks         atomic.Int64
}

// check compares rank's published counters with the interceptor's counts;
// called on the rank's own app goroutine, or while it is parked or gone.
func (x *exactRun) check(rank int, where string) {
	x.checks.Add(1)
	s := x.c.Metrics().Rank(rank).Snapshot()
	sent, delivered := x.counter.sent[rank].Load(), x.counter.delivered[rank].Load()
	if s.MsgsSent != sent || s.MsgsDelivered != delivered {
		x.t.Errorf("rank %d %s: metrics %d sent / %d delivered, chain saw %d / %d",
			rank, where, s.MsgsSent, s.MsgsDelivered, sent, delivered)
	}
}

// exactApp: each step receives the previous step's tail from every peer,
// sends a burst to every peer, receives every peer's burst, then sends a
// tail — so every step boundary follows sends no Recv has published.
type exactApp struct {
	rank int
	x    *exactRun
	sum  byte
}

func (a *exactApp) Steps() int { return exactSteps }

func (a *exactApp) Step(env app.Env, s int) {
	x := a.x
	x.check(a.rank, "at a step boundary")
	for p := 0; p < exactRanks && s > 0; p++ {
		if p != a.rank {
			b, _ := env.Recv(p, tagTail)
			a.sum += b[0]
		}
	}
	if s == exactParkStep && a.rank == 0 {
		<-x.release
	}
	for p := 0; p < exactRanks; p++ {
		for i := 0; p != a.rank && i < exactBurst; i++ {
			env.Send(p, tagBody, []byte{byte(a.rank + s + i)})
		}
	}
	if s == exactKillStep && a.rank == exactVictim {
		x.atHoldOnce.Do(func() { close(x.atHold) })
		<-x.resume // the first incarnation dies here
	}
	for p := 0; p < exactRanks; p++ {
		if p == a.rank {
			continue
		}
		if s == exactParkStep && a.rank == 1 && p == 0 {
			x.parkAt.Store(x.c.clk.Now().UnixNano())
		}
		for i := 0; i < exactBurst; i++ {
			b, _ := env.Recv(p, tagBody)
			a.sum += b[0]
		}
	}
	for p := 0; p < exactRanks; p++ {
		if p != a.rank {
			env.Send(p, tagTail, []byte{byte(s)})
		}
	}
}

func (a *exactApp) Snapshot() []byte { return []byte{a.sum} }

func (a *exactApp) Restore(b []byte) error {
	a.sum = b[0]
	return nil
}

// TestCountersExactAtQuiescence: the published counters equal what the
// chain saw whenever the rank's app goroutine is parked, between steps,
// inside a checkpoint, or gone — while a receiver is parked on a message
// that has not arrived, with another source's burst held in its shard;
// after a kill, with the dead incarnation's unpublished sends included;
// and after Wait. Dropping any one publication point fails it.
func TestCountersExactAtQuiescence(t *testing.T) {
	for _, tk := range []transport.Kind{transport.Mem, transport.TCP} {
		t.Run(tk, func(t *testing.T) { countersExactAtQuiescence(t, tk) })
	}
}

func countersExactAtQuiescence(t *testing.T, tk transport.Kind) {
	x := &exactRun{t: t, release: make(chan struct{}), atHold: make(chan struct{}), resume: make(chan struct{})}
	x.counter = &exactCounter{x: x}
	cfg := testConfig(exactRanks, TDI)
	cfg.Transport = tk
	cfg.CheckpointEvery = 2
	cfg.Interceptors = []layer.Interceptor{x.counter}
	c, err := NewCluster(cfg, func(rank, n int) app.App { return &exactApp{rank: rank, x: x} })
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	x.c = c
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second) //windar:allow directclock — test deadline

	// Parked: rank 1 has sent its burst and waits on rank 0, which has
	// not sent; rank 2's burst sits in rank 1's shard, held.
	r1 := c.ranks[1]
	for {
		r1.mu.Lock()
		held := &r1.shards[2]
		held.mu.Lock()
		// One load: read twice, a store between the reads could pair a
		// zero bound with an earlier Recv's recvStart.
		at := x.parkAt.Load()
		parked := at != 0 && r1.recvStart.UnixNano() >= at && held.pending() > 0
		held.mu.Unlock()
		if parked {
			x.check(1, "parked on a held message")
		}
		r1.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) { //windar:allow directclock — test deadline
			t.Fatal("rank 1 never parked at the park step")
		}
		time.Sleep(100 * time.Microsecond) //windar:allow directclock — polling interval
	}
	close(x.release)

	// Killed: the victim has sent its burst and is still running.
	<-x.atHold
	c.ranksMu.Lock()
	dead := c.ranks[exactVictim]
	c.ranksMu.Unlock()
	if err := c.Kill(exactVictim); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	close(x.resume)
	dead.senders.Wait()
	x.check(exactVictim, "after its kill")
	if err := c.Recover(exactVictim); err != nil {
		t.Fatalf("Recover: %v", err)
	}

	c.Wait()
	for rank := 0; rank < exactRanks; rank++ {
		x.check(rank, "after Wait")
	}
	assertNoLiveHolds(t, c)
	if x.checks.Load() < 3*exactSteps {
		t.Fatalf("only %d exactness checks ran", x.checks.Load())
	}
}
