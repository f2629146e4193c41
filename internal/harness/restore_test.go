package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"windar/internal/ckpt"
	"windar/internal/proto"
	"windar/internal/stable"
)

// policyFunc adapts a function to layer.CheckpointPolicy.
type policyFunc func(rank, step int) bool

func (f policyFunc) ShouldCheckpoint(rank, step int) bool { return f(rank, step) }

// gatePolicy checkpoints every ten steps and parks rank 1's first
// incarnation at the step-4 boundary until the test releases it, so a
// kill lands at a known point with deliveries since the last checkpoint.
type gatePolicy struct {
	once             sync.Once
	reached, release chan struct{}
}

func (p *gatePolicy) ShouldCheckpoint(rank, step int) bool {
	if rank == 1 && step == 4 {
		p.once.Do(func() {
			close(p.reached)
			<-p.release
		})
	}
	return step%10 == 0
}

// ckptWindowObs checks every recovery of rank 1 against the checkpoints
// the observers were told about before the kill that preceded it, and
// runs a one-shot hook inside rank 1's next log-release span.
type ckptWindowObs struct {
	nopObserver
	mu           sync.Mutex
	seen, atKill int // newest checkpoint step reported while alive; its value at the kill
	dead         bool
	mismatches   []string
	onLogRelease func()
}

func (o *ckptWindowObs) OnCheckpoint(rank, step int, _ int64) {
	o.mu.Lock()
	if rank == 1 && !o.dead {
		o.seen = step
	}
	o.mu.Unlock()
}

func (o *ckptWindowObs) OnKill(rank int) {
	o.mu.Lock()
	if rank == 1 {
		o.dead, o.atKill = true, o.seen
	}
	o.mu.Unlock()
}

func (o *ckptWindowObs) OnRecover(rank, fromStep int) {
	o.mu.Lock()
	if rank == 1 {
		if fromStep != o.atKill {
			o.mismatches = append(o.mismatches, fmt.Sprintf(
				"recovered from step %d, but the observers last saw a checkpoint at step %d", fromStep, o.atKill))
		}
		o.dead, o.seen = false, fromStep
	}
	o.mu.Unlock()
}

func (o *ckptWindowObs) OnRecoveryPhase(rank int, phase string, _ time.Duration) {
	if rank != 1 || phase != PhaseLogRelease {
		return
	}
	o.mu.Lock()
	hook := o.onLogRelease
	o.onLogRelease = nil
	o.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// TestKillBetweenStageAndCheckpointReport kills a rank inside its own
// checkpoint: the first checkpoint after a recovery emits the log-release
// span, and the observer kills the rank from inside that span. A
// checkpoint used to be staged for recovery, then the kill could land,
// then the observers were told — so the next recovery restored a
// checkpoint the trace checker never saw (the flake of
// chaos.TestLineageAcrossRecovery). Staging and reporting are now one
// critical section behind the kill check: every recovery must restore
// exactly the newest checkpoint the observers saw before the kill.
func TestKillBetweenStageAndCheckpointReport(t *testing.T) {
	cfg := testConfig(4, TDI)
	cfg.CheckpointEvery = 10
	clean := run(t, cfg, ringFactory(40), nil)

	pol := &gatePolicy{reached: make(chan struct{}), release: make(chan struct{})}
	obs := &ckptWindowObs{}
	cfg.CheckpointPolicy, cfg.Observer = pol, obs
	killed := make(chan struct{})
	faulty := run(t, cfg, ringFactory(40), func(c *Cluster) {
		select {
		case <-pol.reached:
		case <-time.After(30 * time.Second):
			t.Error("rank 1 never reached step 4")
			close(pol.release)
			return
		}
		obs.mu.Lock()
		obs.onLogRelease = func() {
			if err := c.Kill(1); err != nil {
				t.Errorf("Kill(1) inside the checkpoint: %v", err)
			}
			close(killed)
		}
		obs.mu.Unlock()
		err := c.Kill(1)
		close(pol.release)
		if err != nil {
			t.Errorf("Kill(1): %v", err)
			return
		}
		if err := c.Recover(1); err != nil {
			t.Errorf("Recover(1): %v", err)
			return
		}
		select {
		case <-killed:
		case <-time.After(30 * time.Second):
			t.Error("rank 1 never took a checkpoint after its recovery")
			return
		}
		if err := c.Recover(1); err != nil {
			t.Errorf("second Recover(1): %v", err)
		}
	})
	assertSameStates(t, clean, faulty, "kill inside checkpoint")
	obs.mu.Lock()
	defer obs.mu.Unlock()
	for _, m := range obs.mismatches {
		t.Error(m)
	}
}

// restoreCapture records, at every recovery of rank 0, the sender log the
// new incarnation restored — taken from inside Recover before the
// incarnation's goroutines start, so nothing has touched it yet.
type restoreCapture struct {
	nopObserver
	c         *Cluster
	ckptTaken chan struct{}
	once      sync.Once

	mu      sync.Mutex
	logs    [][]proto.LogItem   // per recovery: Log.All()
	resends [][][]proto.LogItem // per recovery, per destination: ItemsFor(dest, 0)
}

func (o *restoreCapture) OnCheckpoint(rank, step int, _ int64) {
	if rank == 0 {
		o.once.Do(func() { close(o.ckptTaken) })
	}
}

func (o *restoreCapture) OnRecover(rank, _ int) {
	if rank != 0 {
		return
	}
	o.c.ranksMu.Lock()
	r := o.c.ranks[0]
	o.c.ranksMu.Unlock()
	r.mu.Lock()
	all := r.log.All()
	resends := make([][]proto.LogItem, r.n)
	for dest := range resends {
		resends[dest] = r.log.ItemsFor(dest, 0)
	}
	r.mu.Unlock()
	o.mu.Lock()
	o.logs = append(o.logs, all)
	o.resends = append(o.resends, resends)
	o.mu.Unlock()
}

// cloneItems deep-copies items, byte fields included.
func cloneItems(items []proto.LogItem) []proto.LogItem {
	out := append([]proto.LogItem(nil), items...)
	for i := range out {
		out[i].Piggyback = bytes.Clone(out[i].Piggyback)
		out[i].Payload = bytes.Clone(out[i].Payload)
	}
	return out
}

// TestRepeatedRecoveryRestoresSameStagedCheckpoint runs two kill/recover
// cycles of rank 0 that restore the same staged checkpoint: the sender
// log is adopted from the checkpoint's items in place, and in between the
// first incarnation appends behind it and peers' CHECKPOINT_ADVANCEs
// release from it. Both recoveries must restore the same log and the same
// resend sets, equal to the checkpoint's items, and the checkpoint itself
// must come out of both cycles byte for byte unchanged.
func TestRepeatedRecoveryRestoresSameStagedCheckpoint(t *testing.T) {
	const steps, victimCkpt, peerCkpt = 600, 300, 450
	cfg := testConfig(3, TDI)
	// Inline checkpoint logs whatever WINDAR_STABLE says: this test is
	// about adopting a staged checkpoint's items. (Durable streams are
	// truncated by releases, so a later restore from them legitimately
	// holds less.)
	cfg.Stable = stable.NewSim()
	cfg.CheckpointEvery = 0
	clean := run(t, cfg, ringFactory(steps), nil)

	// Rank 0 checkpoints once, with 300 items for rank 1 in its log (two
	// chunk views); the peers checkpoint after it, releasing adopted
	// items from the recovered incarnation's log.
	cfg.Stable = stable.NewSim()
	cfg.CheckpointPolicy = policyFunc(func(rank, step int) bool {
		if rank == 0 {
			return step == victimCkpt
		}
		return step == peerCkpt
	})
	obs := &restoreCapture{ckptTaken: make(chan struct{})}
	cfg.Observer = obs
	var staged *ckpt.Checkpoint
	var before []proto.LogItem
	faulty := run(t, cfg, ringFactory(steps), func(c *Cluster) {
		obs.c = c
		select {
		case <-obs.ckptTaken:
		case <-time.After(30 * time.Second):
			t.Error("rank 0 never checkpointed")
			return
		}
		cp, ok, err := c.ckpts.Load(0)
		if err != nil || !ok || cp.Step != victimCkpt {
			t.Errorf("staged checkpoint: ok=%v err=%v", ok, err)
			return
		}
		staged, before = cp, cloneItems(cp.Log)
		for cycle := 0; cycle < 2; cycle++ {
			time.Sleep(2 * time.Millisecond)
			if err := c.Kill(0); err != nil {
				t.Errorf("cycle %d: Kill(0): %v", cycle, err)
				return
			}
			if err := c.Recover(0); err != nil {
				t.Errorf("cycle %d: Recover(0): %v", cycle, err)
				return
			}
			if got, _, _ := c.ckpts.Load(0); got != cp {
				t.Errorf("cycle %d: rank 0 took another checkpoint; the test needs one", cycle)
				return
			}
		}
	})
	assertSameStates(t, clean, faulty, "two restores of one staged checkpoint")
	if t.Failed() {
		return
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.logs) != 2 {
		t.Fatalf("captured %d restores, want 2", len(obs.logs))
	}
	if n := len(obs.resends[0][1]); n < victimCkpt/2 {
		t.Fatalf("restored log holds %d items for rank 1; the checkpoint should carry most of %d", n, victimCkpt)
	}
	if !reflect.DeepEqual(obs.logs[0], before) {
		t.Errorf("first restore's log differs from the checkpoint's items")
	}
	if !reflect.DeepEqual(obs.logs[0], obs.logs[1]) {
		t.Errorf("the two restores of one checkpoint restored different logs")
	}
	if !reflect.DeepEqual(obs.resends[0], obs.resends[1]) {
		t.Errorf("the two restores of one checkpoint would resend different items")
	}
	if !reflect.DeepEqual(staged.Log, before) {
		t.Errorf("the staged checkpoint's items changed across two adopting incarnations")
	}
}
