package harness

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/transport"
	"windar/internal/wire"
)

// pushApp is a one-way stream: rank 0 only sends, rank 1 only receives.
// Rank 0's deliveredCount therefore stays zero forever, so any failure
// of rank 0 strikes "right after a checkpoint" — the trivial recovery
// path — no matter when the kill lands.
type pushApp struct {
	rank, steps int
	sum         uint64
}

func (a *pushApp) Steps() int {
	if a.rank > 1 {
		return 0
	}
	return a.steps
}

func (a *pushApp) Step(env app.Env, s int) {
	if a.rank == 0 {
		env.Send(1, 0, u64(uint64(s)*13+7))
		return
	}
	data, _ := env.Recv(0, 0)
	a.sum = a.sum*31 + du64(data)
}

func (a *pushApp) Snapshot() []byte { return u64(a.sum) }

func (a *pushApp) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("pushApp: bad snapshot length %d", len(b))
	}
	a.sum = du64(b)
	return nil
}

func pushFactory(steps int) app.Factory {
	return func(rank, n int) app.App {
		return &pushApp{rank: rank, steps: steps}
	}
}

// captureObs records recovery-phase spans and ingest rejections.
type captureObs struct {
	nopObserver
	mu        sync.Mutex
	phases    map[int][]string         // rank -> phase names in emit order
	phaseDur  map[string]time.Duration // rank/phase -> span duration (last emit)
	completes map[int]time.Duration
	rejected  map[string]int // kind -> count
}

func newCaptureObs() *captureObs {
	return &captureObs{
		phases:    map[int][]string{},
		phaseDur:  map[string]time.Duration{},
		completes: map[int]time.Duration{},
		rejected:  map[string]int{},
	}
}

func (o *captureObs) OnRecoveryPhase(rank int, phase string, d time.Duration) {
	o.mu.Lock()
	o.phases[rank] = append(o.phases[rank], phase)
	o.phaseDur[fmt.Sprintf("%d/%s", rank, phase)] = d
	o.mu.Unlock()
}

func (o *captureObs) OnRecoveryComplete(rank int, d time.Duration) {
	o.mu.Lock()
	o.completes[rank] = d
	o.mu.Unlock()
}

func (o *captureObs) OnIngestRejected(rank int, kind string) {
	o.mu.Lock()
	o.rejected[kind]++
	o.mu.Unlock()
}

// TestRecoverWithDeadPeer: a rank recovering while another rank is
// still down counts the down rank in its RESPONSE expectation, and the
// down rank answers once it revives. Neither may hang collection (or
// trip the stall watchdog) on any protocol.
func TestRecoverWithDeadPeer(t *testing.T) {
	for _, p := range allProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			clean := run(t, testConfig(4, p), ringFactory(60), nil)
			faulty := run(t, testConfig(4, p), ringFactory(60), func(c *Cluster) {
				time.Sleep(2 * time.Millisecond)
				if err := c.Kill(1); err != nil {
					t.Errorf("Kill(1): %v", err)
				}
				if err := c.Kill(2); err != nil {
					t.Errorf("Kill(2): %v", err)
				}
				time.Sleep(time.Millisecond)
				// Rank 1 recovers while rank 2 is still dead: rank 2
				// owes its RESPONSE until it revives.
				if err := c.Recover(1); err != nil {
					t.Errorf("Recover(1): %v", err)
				}
				time.Sleep(2 * time.Millisecond)
				if err := c.Recover(2); err != nil {
					t.Errorf("Recover(2): %v", err)
				}
			})
			assertSameStates(t, clean, faulty, "dead-peer recovery")
		})
	}
}

// TestTrivialRecoveryEmitsAllPhases pins the zero-delivery recovery
// path: when the failure lost no deliveries, all four phase spans are
// still emitted — at zero duration — so phase summaries stay symmetric
// across runs.
func TestTrivialRecoveryEmitsAllPhases(t *testing.T) {
	obs := newCaptureObs()
	cfg := testConfig(3, TDI)
	cfg.Observer = obs
	clean := run(t, testConfig(3, TDI), pushFactory(50), nil)
	faulty := run(t, cfg, pushFactory(50), func(c *Cluster) {
		time.Sleep(2 * time.Millisecond)
		if err := c.KillAndRecover(0, time.Millisecond); err != nil {
			t.Errorf("KillAndRecover(0): %v", err)
		}
	})
	assertSameStates(t, clean, faulty, "trivial recovery")

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if got, want := len(obs.phases[0]), len(RecoveryPhases); got != want {
		t.Fatalf("rank 0 emitted %d phases %v, want all %d", got, obs.phases[0], want)
	}
	for i, phase := range RecoveryPhases {
		if obs.phases[0][i] != phase {
			t.Errorf("phase #%d = %q, want %q", i, obs.phases[0][i], phase)
		}
		if d := obs.phaseDur[fmt.Sprintf("0/%s", phase)]; d != 0 {
			t.Errorf("trivial recovery phase %q duration %v, want 0", phase, d)
		}
	}
	if d, ok := obs.completes[0]; !ok || d != 0 {
		t.Errorf("trivial recovery complete duration %v (emitted=%v), want 0", d, ok)
	}
}

// TestCorruptControlRejected injects undecodable ROLLBACK and RESPONSE
// envelopes: each must bump the ingest_rejected counter and emit the
// observer event with the control kind, not crash the rank.
func TestCorruptControlRejected(t *testing.T) {
	obs := newCaptureObs()
	cfg := testConfig(3, TDI)
	cfg.Observer = obs
	c, err := NewCluster(cfg, sinkFactory(2))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for _, kind := range []wire.Kind{wire.KindRollback, wire.KindResponse} {
		env := &wire.Envelope{Kind: kind, From: 1, To: 0, Payload: []byte{0xFF}}
		if err := c.tr.Send(env, transport.SendOpts{}); err != nil {
			t.Fatalf("inject: %v", err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.Metrics().Total().IngestRejected < 2 {
		if time.Now().After(deadline) {
			t.Fatal("corrupt control messages never counted as rejected")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= 2; i++ {
		env := &wire.Envelope{
			Kind: wire.KindApp, From: 2, To: 0,
			SendIndex: int64(i), Tag: 0, Piggyback: validPig(TDI, 3),
			Payload: u64(uint64(i)),
		}
		if err := c.tr.Send(env, transport.SendOpts{}); err != nil {
			t.Fatalf("inject valid %d: %v", i, err)
		}
	}
	c.Wait()
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if obs.rejected["rollback"] != 1 {
		t.Errorf("rollback rejections observed = %d, want 1", obs.rejected["rollback"])
	}
	if obs.rejected["response"] != 1 {
		t.Errorf("response rejections observed = %d, want 1", obs.rejected["response"])
	}
}

// TestConcurrentKillRecover fails two distinct ranks from two
// goroutines racing each other, on both transports — exercising the
// mutual suppression-bound clamping and the resend of owed ROLLBACKs to
// a reviving rank under the race detector.
func TestConcurrentKillRecover(t *testing.T) {
	for _, tk := range []transport.Kind{transport.Mem, transport.TCP} {
		tk := tk
		t.Run(tk, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(5, TDI)
			cfg.Transport = tk
			clean := run(t, cfg, ringFactory(60), nil)
			for trial := 0; trial < 3; trial++ {
				faulty := run(t, cfg, ringFactory(60), func(c *Cluster) {
					time.Sleep(2 * time.Millisecond)
					var wg sync.WaitGroup
					for _, victim := range []int{1, 3} {
						victim := victim
						wg.Add(1)
						go func() {
							defer wg.Done()
							if err := c.KillAndRecover(victim, time.Millisecond); err != nil {
								t.Errorf("KillAndRecover(%d): %v", victim, err)
							}
						}()
					}
					wg.Wait()
				})
				assertSameStates(t, clean, faulty, fmt.Sprintf("%s trial %d", tk, trial))
			}
		})
	}
}

// TestKillPeerDuringCollect kills a responder immediately after a
// recovery begins, while the recoverer's ROLLBACK is (most likely)
// still being answered; the dead peer still owes its RESPONSE and must
// answer after it revives. Under TAG and TEL the collection gates every
// delivery, so a responder that is never sent the ROLLBACK again wedges
// the roll. The deterministic phase-triggered variant lives in
// internal/chaos.
func TestKillPeerDuringCollect(t *testing.T) {
	for _, p := range allProtocols {
		t.Run(string(p), func(t *testing.T) {
			clean := run(t, testConfig(4, p), ringFactory(60), nil)
			faulty := run(t, testConfig(4, p), ringFactory(60), func(c *Cluster) {
				time.Sleep(2 * time.Millisecond)
				if err := c.Kill(1); err != nil {
					t.Errorf("Kill(1): %v", err)
				}
				if err := c.Recover(1); err != nil {
					t.Errorf("Recover(1): %v", err)
				}
				if err := c.Kill(2); err != nil { // racing rank 1's collection
					t.Errorf("Kill(2): %v", err)
				}
				time.Sleep(2 * time.Millisecond)
				if err := c.Recover(2); err != nil {
					t.Errorf("Recover(2): %v", err)
				}
			})
			assertSameStates(t, clean, faulty, "kill-during-collect")
		})
	}
}

// TestKillRecovererMidRecovery crashes the recovering rank again right
// after its recovery starts: the second incarnation must re-register a
// fresh ROLLBACK and the stale exchange must not wedge anyone.
func TestKillRecovererMidRecovery(t *testing.T) {
	for _, p := range allProtocols {
		t.Run(string(p), func(t *testing.T) {
			clean := run(t, testConfig(4, p), ringFactory(60), nil)
			faulty := run(t, testConfig(4, p), ringFactory(60), func(c *Cluster) {
				time.Sleep(2 * time.Millisecond)
				if err := c.Kill(1); err != nil {
					t.Errorf("Kill(1): %v", err)
				}
				if err := c.Recover(1); err != nil {
					t.Errorf("Recover(1): %v", err)
				}
				if err := c.Kill(1); err != nil { // crash mid-recovery
					t.Errorf("re-Kill(1): %v", err)
				}
				time.Sleep(time.Millisecond)
				if err := c.Recover(1); err != nil {
					t.Errorf("re-Recover(1): %v", err)
				}
			})
			assertSameStates(t, clean, faulty, "kill-recoverer")
		})
	}
}

// killInRecoverObs runs a hook from inside Cluster.Recover: OnRollback
// fires after the new runtime is published and before Recover decides
// whether its collection phase is empty — the window a concurrent Kill
// of a peer can land in. It also signals rank 1's first delivery.
type killInRecoverObs struct {
	*captureObs
	delivered  chan struct{}
	once       sync.Once
	onRollback func(rank int)
}

func (o *killInRecoverObs) OnDeliver(rank, from int, sendIndex, deliverIndex, demand int64) {
	if rank == 1 {
		o.once.Do(func() { close(o.delivered) })
	}
}

func (o *killInRecoverObs) OnRollback(rank, expect int) {
	o.mu.Lock()
	hook := o.onRollback
	o.mu.Unlock()
	if hook != nil {
		hook(rank)
	}
}

func (o *killInRecoverObs) setHook(f func(rank int)) {
	o.mu.Lock()
	o.onRollback = f
	o.mu.Unlock()
}

// TestKillLastResponderInsideRecover is the deterministic form of the
// Recover/Kill race: rank 1 recovers with rank 3 its only live peer, and
// rank 3 is killed from inside Recover(1), between the runtime's
// publication and the empty-collection check. The kill leaves rank 1's
// collection open; it closes once ranks 0, 2 and 3 have revived and
// answered, and the collect-demands span is emitted exactly once.
func TestKillLastResponderInsideRecover(t *testing.T) {
	cfg := testConfig(4, TDI)
	cfg.CheckpointEvery = 0 // any delivery makes the recovery non-trivial
	clean := run(t, cfg, ringFactory(40), nil)

	obs := &killInRecoverObs{captureObs: newCaptureObs(), delivered: make(chan struct{})}
	cfg.Observer = obs
	faulty := run(t, cfg, ringFactory(40), func(c *Cluster) {
		select {
		case <-obs.delivered:
		case <-time.After(30 * time.Second):
			t.Error("rank 1 never delivered")
			return
		}
		for _, victim := range []int{1, 0, 2} {
			if err := c.Kill(victim); err != nil {
				t.Errorf("Kill(%d): %v", victim, err)
			}
		}
		obs.setHook(func(rank int) {
			if rank != 1 {
				return
			}
			if err := c.Kill(3); err != nil {
				t.Errorf("Kill(3) inside Recover(1): %v", err)
			}
		})
		if err := c.Recover(1); err != nil {
			t.Errorf("Recover(1): %v", err)
		}
		obs.setHook(nil)
		for _, rank := range []int{0, 2, 3} {
			if err := c.Recover(rank); err != nil {
				t.Errorf("Recover(%d): %v", rank, err)
			}
		}
	})
	assertSameStates(t, clean, faulty, "kill-inside-recover")

	obs.mu.Lock()
	defer obs.mu.Unlock()
	collects := 0
	for _, phase := range obs.phases[1] {
		if phase == PhaseCollectDemands {
			collects++
		}
	}
	if collects != 1 {
		t.Errorf("rank 1 emitted %d collect-demands spans, want exactly 1 (phases: %v)", collects, obs.phases[1])
	}
}
