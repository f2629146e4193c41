package harness

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/core"
	"windar/internal/transport"
	"windar/internal/vclock"
	"windar/internal/wire"
	"windar/layer"
)

// orphanApp is the smallest history in which one dead peer alone holds a
// recovering master's determinants. Rank 1 sends to the master and then
// triggers rank 2, so the master's two AnySource deliveries happen in
// the order (1, 2). The master folds that order into its state and sends
// the result to rank 1 only, so only rank 1's antecedence graph learns
// it. Rank 1 checkpoints that graph and then acks. The master never
// checkpoints.
type orphanApp struct {
	rank int
	sum  uint64
}

func (a *orphanApp) Steps() int { return [3]int{2, 3, 1}[a.rank] }

func (a *orphanApp) Step(env app.Env, s int) {
	switch {
	case a.rank == 0 && s == 0:
		for i := 0; i < 2; i++ {
			data, from := env.Recv(app.AnySource, 0)
			a.sum = a.sum*31 + uint64(from)*1000 + du64(data)
		}
		env.Send(1, 1, u64(a.sum))
	case a.rank == 0:
		data, _ := env.Recv(1, 2)
		a.sum = a.sum*31 + du64(data)
	case a.rank == 1 && s == 0:
		env.Send(0, 0, u64(11))
		env.Send(2, 3, u64(1))
	case a.rank == 1 && s == 1:
		data, _ := env.Recv(0, 1)
		a.sum = du64(data)
	case a.rank == 1:
		env.Send(0, 2, u64(a.sum+1))
	default:
		env.Recv(1, 3)
		env.Send(0, 0, u64(22))
	}
}

func (a *orphanApp) Snapshot() []byte { return u64(a.sum) }

func (a *orphanApp) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("orphanApp: bad snapshot length %d", len(b))
	}
	a.sum = du64(b)
	return nil
}

// orphanFold is the master's fold of its two AnySource deliveries, first
// then second, of orphanApp's messages.
func orphanFold(first, second int) uint64 {
	payload := [3]uint64{0, 11, 22}
	sum := uint64(first)*1000 + payload[first]
	return sum*31 + uint64(second)*1000 + payload[second]
}

// orphanObs records the sender of the master's first delivery, closes
// acked once the master has delivered all three of its messages and,
// after armed is set, closes replayed at the master's next delivery.
type orphanObs struct {
	nopObserver
	first           atomic.Int64
	acked, replayed chan struct{}
	ackOnce, rOnce  sync.Once
	armed           atomic.Bool
}

func (o *orphanObs) OnDeliver(rank, from int, sendIndex, deliverIndex, demand int64) {
	switch {
	case rank != 0:
	case o.armed.Load():
		o.rOnce.Do(func() { close(o.replayed) })
	case deliverIndex == 1:
		o.first.Store(int64(from))
	case deliverIndex == 3:
		o.ackOnce.Do(func() { close(o.acked) })
	}
}

// TestRecoverAwaitsDownHolder is the orphan case as a fixed schedule:
// under TAG the master recovers while rank 1, the only holder of its
// post-checkpoint determinants, is down. Rank 2 is live and resends its
// message at once, so a master that stops collecting once the live peers
// have answered delivers it first and forks from the recorded order.
// The master must wait for rank 1 to revive and answer, then replay the
// recorded order and reach the fault-free state. A run whose master
// happened to deliver rank 2's message first is no orphan case; it is
// run again.
func TestRecoverAwaitsDownHolder(t *testing.T) {
	factory := func(rank, n int) app.App { return &orphanApp{rank: rank} }
	r1 := orphanFold(1, 2)
	want := [][]byte{u64(r1*31 + r1 + 1), u64(r1), u64(0)}
	for _, tk := range []transport.Kind{transport.Mem, transport.TCP} {
		tk := tk
		t.Run(tk, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(3, TAG)
			cfg.Transport = tk
			cfg.CheckpointPolicy = policyFunc(func(rank, step int) bool { return rank == 1 && step == 2 })
			for attempt := 1; ; attempt++ {
				obs := &orphanObs{acked: make(chan struct{}), replayed: make(chan struct{})}
				cfg.Observer = obs
				got := run(t, cfg, factory, func(c *Cluster) {
					<-obs.acked
					for _, victim := range []int{1, 0} {
						if err := c.Kill(victim); err != nil {
							t.Errorf("Kill(%d): %v", victim, err)
						}
					}
					obs.armed.Store(true)
					if err := c.Recover(0); err != nil {
						t.Errorf("Recover(0): %v", err)
					}
					// A master that does not wait for rank 1 delivers
					// rank 2's resend at once; one that waits delivers
					// nothing.
					select {
					case <-obs.replayed:
					case <-time.After(50 * time.Millisecond):
					}
					if err := c.Recover(1); err != nil {
						t.Errorf("Recover(1): %v", err)
					}
				})
				if obs.first.Load() == 1 {
					assertSameStates(t, want, got, "down-holder recovery")
					return
				}
				if attempt == 20 {
					t.Fatal("the master never delivered rank 1's message first")
				}
			}
		})
	}
}

// dependProbe is an interceptor that checks TDI's piggyback decoding end
// to end. Each send's payload is prefixed with the sender's
// DependInterval at encode time, so the log, its durable streams and
// every resend carry it. Each delivery strips it again. The receiver must
// then hold at least every element of that vector except its own, and
// the delivery's demand must be the vector's element for the receiver.
// This is the check TestResyncFloorDifferential applies in
// internal/core, applied to a whole cluster. seen, when set, is called
// with every delivery, under mu.
type dependProbe struct {
	mu         sync.Mutex
	deliveries int
	bad        []string
	seen       func(r *rankRuntime, m *layer.Msg)
}

func (p *dependProbe) Wrap(next layer.Handler) layer.Handler {
	return dependProbeLayer{Forward: layer.Forward{Next: next}, r: next.(coreHandler).r, p: p}
}

type dependProbeLayer struct {
	layer.Forward
	r *rankRuntime
	p *dependProbe
}

func (l dependProbeLayer) Send(m *layer.Msg) {
	di := l.r.prot.(*core.TDI).DependInterval()
	m.Payload = append(wire.AppendVec(nil, di), m.Payload...)
	l.Next.Send(m)
}

func (l dependProbeLayer) Deliver(m *layer.Msg) {
	sent, n, err := wire.ReadVec(m.Payload)
	if err != nil {
		panic(fmt.Sprintf("dependProbe: rank %d: payload from %d lacks the vector: %v", m.Rank, m.Peer, err))
	}
	m.Payload = m.Payload[n:]
	got := l.r.prot.(*core.TDI).DependInterval()
	bad := ""
	for k := range sent {
		if k != m.Rank && got[k] < sent[k] {
			bad = fmt.Sprintf("element %d is %d, the sender had %d", k, got[k], sent[k])
		}
	}
	if m.Demand != sent[m.Rank] {
		bad = fmt.Sprintf("demand %d, the sender's element is %d", m.Demand, sent[m.Rank])
	}
	l.p.mu.Lock()
	l.p.deliveries++
	if l.p.seen != nil {
		l.p.seen(l.r, m)
	}
	if bad != "" && len(l.p.bad) < 5 {
		l.p.bad = append(l.p.bad, fmt.Sprintf("rank %d delivering %d#%d: %s", m.Rank, m.Peer, m.SendIndex, bad))
	}
	l.p.mu.Unlock()
	l.Next.Deliver(m)
}

// assertClean fails t on every report and when no delivery was probed.
func (p *dependProbe) assertClean(t *testing.T) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range p.bad {
		t.Error(b)
	}
	if p.deliveries == 0 {
		t.Error("the probe saw no delivery")
	}
}

// echoMasterApp has the master answer each worker as soon as its message
// of the step arrives. A replay that reorders the AnySource deliveries
// therefore regenerates replies whose vectors differ from the originals
// at the same send index. Tags carry the step, so no worker runs a step
// ahead of the others and same-step checkpoints form a consistent cut.
// The application state is order-insensitive, as TDI requires.
type echoMasterApp struct {
	rank, steps int
	sum         uint64
}

func (a *echoMasterApp) Steps() int { return a.steps }

func (a *echoMasterApp) Step(env app.Env, s int) {
	ask, answer := int32(2*s), int32(2*s+1)
	if a.rank == 0 {
		for i := 1; i < env.N(); i++ {
			data, from := env.Recv(app.AnySource, ask)
			a.sum += du64(data) * uint64(from)
			env.Send(from, answer, u64(du64(data)+1))
		}
		return
	}
	env.Send(0, ask, u64(uint64(a.rank*1000+s)+a.sum%97))
	data, _ := env.Recv(0, answer)
	a.sum = a.sum*31 + du64(data)
}

func (a *echoMasterApp) Snapshot() []byte { return u64(a.sum) }

func (a *echoMasterApp) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("echoMasterApp: bad snapshot length %d", len(b))
	}
	a.sum = du64(b)
	return nil
}

// TestRestartWithoutCheckpointRollsBack restarts a cluster in which the
// master never took a checkpoint and every worker took one, at step 10.
// The master restores the initial state. It must still broadcast a
// ROLLBACK, with a zero frontier: that is what makes the workers resend
// what it lost, and its RESPONSEs give it the resync floors that keep its
// regenerated deltas from building on sends the workers discarded. Every
// delivery of both processes must carry a piggyback that decodes to the
// sender's vector, and the run must reach the fault-free state.
func TestRestartWithoutCheckpointRollsBack(t *testing.T) {
	const n, steps = 4, 30
	factory := func(rank, n int) app.App { return &echoMasterApp{rank: rank, steps: steps} }
	for _, tk := range []transport.Kind{transport.Mem, transport.TCP} {
		tk := tk
		t.Run(tk, func(t *testing.T) {
			t.Parallel()
			probe := &dependProbe{}
			config := func(dir string) Config {
				cfg := testConfig(n, TDI)
				cfg.Transport = tk
				cfg.StallTimeout = 0 // a missing ROLLBACK shows as the timeout below
				// One checkpoint per worker, at the same step: a worker
				// restored at a later step than another could depend on
				// intervals the other lost, which no restore resolves.
				cfg.CheckpointPolicy = policyFunc(func(rank, step int) bool { return rank != 0 && step == 10 })
				cfg.Interceptors = []layer.Interceptor{probe}
				if dir != "" {
					cfg.Stable = diskBackend(t, dir)
					cfg.DurableLogs = true
				}
				return cfg
			}
			want := run(t, config(""), factory, nil)

			dir := t.TempDir()
			c, err := NewCluster(config(dir), factory)
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			if err := c.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			waitWorkerCheckpoints(t, c, 10)
			c.Close() // abrupt: every rank dies mid-run
			assertNoLiveHolds(t, c)

			c2, err := NewCluster(config(dir), factory)
			if err != nil {
				t.Fatalf("NewCluster(resume): %v", err)
			}
			defer c2.Close()
			if _, ok, _ := c2.ckpts.Load(0); ok {
				t.Fatal("the master has a checkpoint; the case needs it to have none")
			}
			if err := c2.StartFromStable(); err != nil {
				t.Fatalf("StartFromStable: %v", err)
			}
			await(t, c2, "resumed cluster")
			for rank := 0; rank < n; rank++ {
				if got := c2.AppSnapshot(rank); !bytes.Equal(got, want[rank]) {
					t.Errorf("rank %d: resumed state %x, fault-free %x", rank, got, want[rank])
				}
			}
			probe.assertClean(t)
			assertNoLiveHolds(t, c2)
		})
	}
}

// waitWorkerCheckpoints blocks until every rank but 0 has a durable
// checkpoint at or past step.
func waitWorkerCheckpoints(t *testing.T, c *Cluster, step int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for rank := 1; rank < c.cfg.N; rank++ {
		for {
			cp, ok, err := c.ckpts.LoadDurable(rank)
			if err != nil {
				t.Fatalf("LoadDurable(%d): %v", rank, err)
			}
			if ok && cp.Step >= step {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rank %d never had a durable checkpoint at step %d", rank, step)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestRollbackDropsOrphansUnderReplay runs the receiver loop over sends
// 1 to 3 of rank 1's dead incarnation, then the ROLLBACK of its
// successor restored at send frontier 1, then the successor's
// regenerated send 2. Under a Replayer the dead incarnation's sends above
// the frontier are dropped and the regenerated one is queued; under TDI
// every original stays queued and the regenerated copy is a duplicate.
func TestRollbackDropsOrphansUnderReplay(t *testing.T) {
	for p, want := range map[ProtocolKind]string{TDI: "[0#1 0#2 0#3]", TAG: "[0#1 1#2]", TEL: "[0#1 1#2]"} {
		t.Run(string(p), func(t *testing.T) {
			c, err := NewCluster(Config{N: 2, Protocol: p}, func(rank, n int) app.App { return probeApp{} })
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			r, err := c.newRuntime(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			send := func(inc int32, idx int64) *wire.Envelope {
				return &wire.Envelope{Kind: wire.KindApp, From: 1, To: 0, Incarnation: inc, SendIndex: idx, Piggyback: validPig(p, 2)}
			}
			in := transport.NewQueue()
			for idx := int64(1); idx <= 3; idx++ {
				in.Push(send(0, idx))
			}
			in.Push(&wire.Envelope{Kind: wire.KindRollback, From: 1, To: 0, Incarnation: 1,
				Payload: encodeRollback(0, vclock.New(2), vclock.Vec{1, 0})})
			in.Push(send(1, 2))
			in.Close()
			r.senders.Add(1)
			r.receiverLoop(in) // returns once the closed inbox is drained
			var got []string
			sh := &r.shards[1]
			for _, env := range sh.q[sh.head:] {
				got = append(got, fmt.Sprintf("%d#%d", env.Incarnation, env.SendIndex))
			}
			if fmt.Sprint(got) != want {
				t.Errorf("rank 1's queue after its ROLLBACK: %v, want %s", got, want)
			}
		})
	}
}

// holdReceiverObs parks rank 2's receiver inside the ingest-rejection
// callback once armed, until release closes.
type holdReceiverObs struct {
	nopObserver
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (o *holdReceiverObs) OnIngestRejected(rank int, kind string) {
	if rank == 2 && o.armed.CompareAndSwap(true, false) {
		close(o.entered)
		<-o.release
	}
}

// TestReviveAnswersLostRollback: rank 1's ROLLBACK reaches rank 2's
// inbox, and rank 2 dies before its receiver gets to it, so the
// broadcast is lost with the inbox. Rank 1's collection still counts
// rank 2; when rank 2 revives it must be sent the ROLLBACK again, or
// rank 1, holding every delivery under TAG, waits forever.
func TestReviveAnswersLostRollback(t *testing.T) {
	cfg := testConfig(3, TAG)
	cfg.Transport = transport.Mem
	clean := run(t, cfg, ringFactory(40), nil)
	obs := &holdReceiverObs{entered: make(chan struct{}), release: make(chan struct{})}
	cfg.Observer = obs
	faulty := run(t, cfg, ringFactory(40), func(c *Cluster) {
		time.Sleep(2 * time.Millisecond)
		obs.armed.Store(true)
		corrupt := &wire.Envelope{Kind: wire.KindRollback, From: 0, To: 2, Payload: []byte{0xFF}}
		if err := c.tr.Send(corrupt, transport.SendOpts{}); err != nil {
			t.Fatalf("inject: %v", err)
		}
		<-obs.entered // rank 2's receiver is parked
		if err := c.Kill(1); err != nil {
			t.Fatalf("Kill(1): %v", err)
		}
		if err := c.Recover(1); err != nil {
			t.Fatalf("Recover(1): %v", err)
		}
		time.Sleep(20 * time.Millisecond) // the ROLLBACK lands in rank 2's inbox
		if err := c.Kill(2); err != nil {
			t.Fatalf("Kill(2): %v", err)
		}
		close(obs.release)
		if err := c.Recover(2); err != nil {
			t.Fatalf("Recover(2): %v", err)
		}
	})
	assertSameStates(t, clean, faulty, "lost-rollback recovery")
}
