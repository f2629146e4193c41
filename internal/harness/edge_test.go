package harness

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"windar/internal/ckpt"
	"windar/internal/stable"
)

// slowBackend sleeps in every durable Put, the one write a checkpoint
// Save makes, widening the window in which a kill lands mid-checkpoint.
type slowBackend struct{ stable.Backend }

func (s slowBackend) Put(key string, data []byte) error {
	time.Sleep(4 * time.Millisecond)
	return s.Backend.Put(key, data)
}

// rewindFailBackend fails every Rewind once armed: the durable sender
// log cannot be positioned at the restored send frontier.
type rewindFailBackend struct {
	stable.Backend
	armed *atomic.Bool
}

func (b rewindFailBackend) Rewind(name string, upTo int64) error {
	if b.armed.Load() {
		return errors.New("injected rewind failure")
	}
	return b.Backend.Rewind(name, upTo)
}

// TestRecoverReturnsRewindError: a restore whose durable sender log
// cannot be rewound is reported by Recover as an error, before any
// goroutine of the incarnation starts. The rank stays down and a later
// Recover still brings it back to the fault-free state.
func TestRecoverReturnsRewindError(t *testing.T) {
	cfg := testConfig(3, TDI)
	cfg.DurableLogs = true
	clean := run(t, cfg, ringFactory(40), nil)
	armed := new(atomic.Bool)
	cfg.Stable = rewindFailBackend{Backend: stable.NewSim(), armed: armed}
	faulty := run(t, cfg, ringFactory(40), func(c *Cluster) {
		time.Sleep(2 * time.Millisecond)
		if err := c.Kill(1); err != nil {
			t.Fatalf("Kill(1): %v", err)
		}
		armed.Store(true)
		if err := c.Recover(1); err == nil {
			t.Error("Recover(1) succeeded with a failing Rewind")
		}
		armed.Store(false)
		if err := c.Recover(1); err != nil {
			t.Errorf("Recover(1) after the failure: %v", err)
		}
	})
	assertSameStates(t, clean, faulty, "recover after rewind failure")
}

// TestKillDuringCheckpointWindow slows stable-storage writes so failures
// are likely to strike while a checkpoint is being written, and verifies
// recovery still converges to the failure-free result (the checkpoint
// slot is overwritten atomically: recovery sees either the old or the new
// checkpoint, both consistent).
func TestKillDuringCheckpointWindow(t *testing.T) {
	cfg := testConfig(4, TDI)
	cfg.CheckpointEvery = 2
	slow := func() Config { // a fresh backend per run: the cluster closes it
		c := cfg
		stableFromEnv(t, &c)
		if c.Stable == nil {
			c.Stable = stable.NewSim()
		}
		c.Stable = slowBackend{c.Stable}
		return c
	}
	clean := run(t, slow(), ringFactory(50), nil)
	for trial := 0; trial < 3; trial++ {
		faulty := run(t, slow(), ringFactory(50), func(c *Cluster) {
			time.Sleep(time.Duration(3+trial) * time.Millisecond)
			if err := c.KillAndRecover(trial%4, time.Millisecond); err != nil {
				t.Errorf("trial %d: %v", trial, err)
			}
		})
		assertSameStates(t, clean, faulty, "kill-during-checkpoint")
	}
}

// TestKillFinishedRank kills a rank whose application already completed;
// the incarnation replays from its last checkpoint to completion again
// and the cluster still terminates with the right states.
func TestKillFinishedRank(t *testing.T) {
	cfg := testConfig(3, TDI)
	clean := run(t, cfg, ringFactory(10), nil)

	c, err := NewCluster(cfg, ringFactory(10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Wait() // everything finished
	if err := c.KillAndRecover(1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { c.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster never re-finished after post-completion kill")
	}
	for r := 0; r < 3; r++ {
		if string(c.AppSnapshot(r)) != string(clean[r]) {
			t.Fatalf("rank %d state changed after post-completion recovery", r)
		}
	}
}

// TestCheckpointContents loads a rank's checkpoint from stable storage
// after a run and sanity-checks its fields against Algorithm 1 line 33.
func TestCheckpointContents(t *testing.T) {
	cfg := testConfig(3, TDI)
	cfg.CheckpointEvery = 4
	c, err := NewCluster(cfg, ringFactory(20))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Wait()

	mgr := ckpt.NewManager(c.Store())
	cp, ok, err := mgr.Load(1)
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	if cp.Rank != 1 {
		t.Fatalf("Rank = %d", cp.Rank)
	}
	if cp.Step == 0 || cp.Step%4 != 0 {
		t.Fatalf("Step = %d, want a positive multiple of 4", cp.Step)
	}
	if len(cp.AppImage) != 8 {
		t.Fatalf("AppImage len = %d", len(cp.AppImage))
	}
	if len(cp.ProtoState) == 0 {
		t.Fatal("empty protocol state")
	}
	if len(cp.LastSendIndex) != 3 || len(cp.LastDeliverIndex) != 3 {
		t.Fatalf("vector lengths: %d, %d", len(cp.LastSendIndex), len(cp.LastDeliverIndex))
	}
	// In the ring each step delivers one message, so the checkpointed
	// delivered count equals the step.
	if cp.DeliveredCount != int64(cp.Step) {
		t.Fatalf("DeliveredCount = %d at step %d", cp.DeliveredCount, cp.Step)
	}
}

// TestMultiFailurePWDProtocols exercises simultaneous failures under the
// PWD baselines, whose recovery additionally depends on determinant
// collection from survivors (and, for TEL, the event logger).
func TestMultiFailurePWDProtocols(t *testing.T) {
	for _, p := range []ProtocolKind{TAG, TEL} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			clean := run(t, testConfig(4, p), ringFactory(50), nil)
			faulty := run(t, testConfig(4, p), ringFactory(50), func(c *Cluster) {
				time.Sleep(3 * time.Millisecond)
				if err := c.Kill(0); err != nil {
					t.Errorf("Kill(0): %v", err)
				}
				if err := c.Kill(2); err != nil {
					t.Errorf("Kill(2): %v", err)
				}
				time.Sleep(time.Millisecond)
				if err := c.Recover(0); err != nil {
					t.Errorf("Recover(0): %v", err)
				}
				if err := c.Recover(2); err != nil {
					t.Errorf("Recover(2): %v", err)
				}
			})
			assertSameStates(t, clean, faulty, string(p)+" multi-failure")
		})
	}
}

// TestBlockingModeBaselines runs the PWD protocols in blocking mode with
// a failure: the Fig. 8 communication architectures must be orthogonal
// to the protocol choice.
func TestBlockingModeBaselines(t *testing.T) {
	for _, p := range []ProtocolKind{TAG, TEL} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(4, p)
			cfg.Mode = Blocking
			clean := run(t, cfg, ringFactory(30), nil)
			faulty := run(t, cfg, ringFactory(30), func(c *Cluster) {
				time.Sleep(3 * time.Millisecond)
				if err := c.KillAndRecover(1, 2*time.Millisecond); err != nil {
					t.Errorf("KillAndRecover: %v", err)
				}
			})
			assertSameStates(t, clean, faulty, string(p)+" blocking")
		})
	}
}

// TestRepetitiveSuppressionObservable verifies the two duplicate defences
// of Algorithm 1 actually fire during a recovery: receiver-side discard
// (lines 10/19) and the send suppression driven by RESPONSE (line 10).
func TestRepetitiveSuppressionObservable(t *testing.T) {
	cfg := testConfig(4, TDI)
	c, err := NewCluster(cfg, ringFactory(60))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * time.Millisecond)
	if err := c.KillAndRecover(2, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Wait()
	tot := c.Metrics().Total()
	if tot.ResentMsgs == 0 {
		t.Error("no log resends observed during recovery")
	}
	if tot.RepetitiveDiscarded == 0 {
		t.Error("no repetitive messages discarded during recovery")
	}
	if tot.ControlMsgs == 0 {
		t.Error("no control messages recorded")
	}
}

// TestDetectDelayTolerated runs recovery with a long failure-detection
// window: peers keep (non-blockingly) sending to the dead rank; those
// messages park at the fabric and are delivered to the incarnation, which
// must dedupe them against the log resends.
func TestDetectDelayTolerated(t *testing.T) {
	clean := run(t, testConfig(4, TDI), ringFactory(60), nil)
	faulty := run(t, testConfig(4, TDI), ringFactory(60), func(c *Cluster) {
		time.Sleep(3 * time.Millisecond)
		if err := c.KillAndRecover(1, 10*time.Millisecond); err != nil {
			t.Errorf("KillAndRecover: %v", err)
		}
	})
	assertSameStates(t, clean, faulty, "slow-detection")
}
