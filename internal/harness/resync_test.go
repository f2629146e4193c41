package harness

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/metrics"
	"windar/internal/transport"
	"windar/internal/vclock"
	"windar/internal/workload"
	"windar/layer"
)

// burstMasterApp is workload.MasterWorker with the master answering each
// worker with a burst of messages per step. Every send of a burst after
// the first follows no delivery, so fault-free it is an empty delta, and
// a master left sending full vectors after its recovery shows in
// PigFullMsgs — plain MasterWorker's master changes every element of its
// vector between two sends to a worker and sends full vectors anyway.
type burstMasterApp struct {
	rank, n, steps, burst int
	sum                   uint64
}

func (a *burstMasterApp) Steps() int { return a.steps }

func (a *burstMasterApp) Step(env app.Env, s int) {
	if a.rank == 0 {
		var total uint64
		for i := 1; i < a.n; i++ {
			data, _ := env.Recv(app.AnySource, 3)
			total += du64(data)
		}
		a.sum += total
		for w := 1; w < a.n; w++ {
			for b := 0; b < a.burst; b++ {
				env.Send(w, 4, u64(a.sum+uint64(b)))
			}
		}
		return
	}
	env.Send(0, 3, uint64Value(a.rank, s, a.sum))
	for b := 0; b < a.burst; b++ {
		data, _ := env.Recv(0, 4)
		a.sum = a.sum*31 + du64(data)
	}
}

func (a *burstMasterApp) Snapshot() []byte { return u64(a.sum) }

func (a *burstMasterApp) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("burstMasterApp: bad snapshot length %d", len(b))
	}
	a.sum = du64(b)
	return nil
}

// resyncObs triggers the kill once the master has delivered killAt
// messages and takes each recovered rank's counters when its roll-forward
// completes.
type resyncObs struct {
	nopObserver
	killAt  int64
	trigger chan struct{}
	once    sync.Once

	mu         sync.Mutex
	c          *Cluster
	atComplete map[int]metrics.Snapshot
}

func (o *resyncObs) OnDeliver(rank, from int, sendIndex, deliverIndex, demand int64) {
	if rank == 0 && deliverIndex >= o.killAt {
		o.once.Do(func() { close(o.trigger) })
	}
}

func (o *resyncObs) OnRecoveryComplete(rank int, d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.atComplete[rank] = o.c.coll.Rank(rank).Snapshot()
}

// fullShare is the fraction of rank's piggybacks sent as full vectors.
func fullShare(s metrics.Snapshot) float64 {
	return float64(s.PigFullMsgs) / float64(s.PigFullMsgs+s.PigDeltaMsgs)
}

// TestMasterRecoveryResync kills the AnySource master mid-run — alone, and
// together with a worker — on both transports. A recovered master's
// roll-forward reorders its deliveries, so its regenerated vectors differ
// from the originals at the same send indices; the resync floors must
// keep every worker's delta chain exact. Required: the fault-free final
// state, no rejected ingest, and, once each victim's roll-forward is
// over, full vectors at the fault-free share plus what the floors keep
// full — the regenerated sends at or below them, at most a step's worth,
// and one first send above each floor. The master's AnySource replay
// sets the reorder flag, so its floors must have blocked deltas, and
// every delivery must decode to the sender's vector (dependProbe).
func TestMasterRecoveryResync(t *testing.T) {
	const n, steps, burst = 4, 150, 4
	apps := []struct {
		name    string
		factory app.Factory
		// floorBlocks: the master's regenerated bursts are empty deltas
		// that the floors keep full.
		floorBlocks bool
	}{
		{"masterworker", workload.NewMasterWorker(steps), false},
		{"burst", func(rank, n int) app.App { return &burstMasterApp{rank: rank, n: n, steps: steps, burst: burst} }, true},
	}
	for _, tk := range []transport.Kind{transport.Mem, transport.TCP} {
		for _, victims := range [][]int{{0}, {0, 2}} {
			for _, a := range apps {
				tk, victims, a := tk, victims, a
				t.Run(fmt.Sprintf("%s/victims%v/%s", tk, victims, a.name), func(t *testing.T) {
					t.Parallel()
					cfg := testConfig(n, TDI)
					cfg.Transport = tk
					var clean *Cluster
					want := run(t, cfg, a.factory, func(c *Cluster) { clean = c })

					// The kill lands two steps past a checkpoint, so the
					// master regenerates sends its workers had ingested.
					obs := &resyncObs{killAt: (steps/3 + 2) * (n - 1), trigger: make(chan struct{}), atComplete: map[int]metrics.Snapshot{}}
					cfg.Observer = obs
					probe := &dependProbe{}
					cfg.Interceptors = []layer.Interceptor{probe}
					var faulty *Cluster
					got := run(t, cfg, a.factory, func(c *Cluster) {
						obs.mu.Lock()
						obs.c, faulty = c, c
						obs.mu.Unlock()
						<-obs.trigger
						for _, v := range victims {
							if err := c.Kill(v); err != nil {
								t.Errorf("Kill(%d): %v", v, err)
							}
						}
						for _, v := range victims {
							if err := c.Recover(v); err != nil {
								t.Errorf("Recover(%d): %v", v, err)
							}
						}
					})
					assertSameStates(t, want, got, "master recovery")
					probe.assertClean(t)
					if rej := faulty.Metrics().Total().IngestRejected; rej != 0 {
						t.Errorf("%d envelopes rejected at ingest", rej)
					}
					if !faulty.replayReordered.Load() {
						t.Error("the master's AnySource replay never set the reorder flag")
					}
					if f := faulty.coll.Rank(0).Snapshot().PigFloorFullMsgs; a.floorBlocks && f == 0 {
						t.Error("the master's floors never blocked a delta")
					}

					obs.mu.Lock()
					defer obs.mu.Unlock()
					for _, v := range victims {
						at, ok := obs.atComplete[v]
						if !ok {
							t.Errorf("rank %d never completed its recovery", v)
							continue
						}
						end := faulty.coll.Rank(v).Snapshot()
						sends := end.PigFullMsgs + end.PigDeltaMsgs - at.PigFullMsgs - at.PigDeltaMsgs
						fulls := end.PigFullMsgs - at.PigFullMsgs
						share := fullShare(clean.coll.Rank(v).Snapshot())
						limit := int64(share*float64(sends)) + 2*burst*(n-1) + (n - 1)
						if fulls > limit {
							t.Errorf("rank %d: %d full vectors in %d sends after its recovery, want at most %d (fault-free share %.3f)",
								v, fulls, sends, limit, share)
						}
					}
				})
			}
		}
	}
}

// TestReorderFlagTrigger: the cluster's reorder flag flips on a restored
// incarnation's AnySource delivery, and not on a first incarnation's
// AnySource delivery or on a restored incarnation's named-source one.
func TestReorderFlagTrigger(t *testing.T) {
	r := newIdleRuntime(t, 3, TDI)
	zero := vclock.New(3)
	recv := func(source, from int, sendIndex int64) {
		t.Helper()
		r.enqueueApp(tdiEnv(from, 0, sendIndex, zero, 0))
		if _, got := r.Recv(source, app.AnyTag); got != from {
			t.Fatalf("delivered from %d, want %d", got, from)
		}
	}
	recv(app.AnySource, 1, 1)
	if r.c.replayReordered.Load() {
		t.Fatal("a first incarnation's AnySource delivery set the flag")
	}
	r.mu.Lock()
	r.rollback = encodeRollback(0, vclock.New(3), vclock.New(3)) // as restore does
	r.mu.Unlock()
	recv(1, 1, 2)
	if r.c.replayReordered.Load() {
		t.Fatal("a restored incarnation's named-source delivery set the flag")
	}
	recv(app.AnySource, 2, 1)
	if !r.c.replayReordered.Load() {
		t.Fatal("a restored incarnation's AnySource delivery left the flag clear")
	}
}

// victimObs closes trigger once rank has delivered killAt messages and
// recovered when its next recovery completes.
type victimObs struct {
	nopObserver
	rank               int
	killAt             int64
	trigger, recovered chan struct{}
	tOnce, rOnce       sync.Once
}

func (o *victimObs) OnDeliver(rank, from int, sendIndex, deliverIndex, demand int64) {
	if rank == o.rank && deliverIndex >= o.killAt {
		o.tOnce.Do(func() { close(o.trigger) })
	}
}

func (o *victimObs) OnRecoveryComplete(rank int, d time.Duration) {
	if rank == o.rank {
		o.rOnce.Do(func() { close(o.recovered) })
	}
}

// TestDeterministicReplayResendsDeltas kills rank 1 of a named-source
// flood ring, then its successor rank 2, on both transports. Rank 2 dies
// once its first incarnation has delivered a message of rank 1's second:
// by per-link FIFO across incarnations, every regenerated copy rank 1
// transmitted before rank 2's RESPONSE arrived (one that was not
// suppressed) has then reached rank 2's first incarnation and been
// discarded, so none is still in flight to take the place of a resend.
// Both checkpoint only at one early step. Rank 1's
// replay makes no AnySource choice, so its regenerated sends to rank 2
// are the deltas a first run sends, at or below its floor too; rank 2's
// rollback has rank 1 resend those from its log. Required: at least one
// such record — above rank 1's checkpoint and at or below what rank 2 had
// delivered when rank 1 died, which bounds the floor from below — reaches
// rank 2's new incarnation, every delivery decodes to the sender's
// vector, no victim's floor ever blocked a delta, and the run reaches
// the fault-free state.
func TestDeterministicReplayResendsDeltas(t *testing.T) {
	const n, steps, window, ckptStep, killStep = 4, 60, 8, 10, 30
	factory := workload.NewFlood(steps, window)
	for _, tk := range []transport.Kind{transport.Mem, transport.TCP} {
		tk := tk
		t.Run(tk, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(n, TDI)
			cfg.Transport = tk
			cfg.CheckpointPolicy = policyFunc(func(rank, step int) bool { return step == ckptStep })
			want := run(t, cfg, factory, nil)

			obs := &victimObs{rank: 1, killAt: killStep * window, trigger: make(chan struct{}), recovered: make(chan struct{})}
			probe := &dependProbe{}
			// (ckpt1, delivered2] holds rank 1's regenerated sends to rank 2
			// at or below its floor; resent counts those rank 2's second
			// incarnation delivered from rank 1's log.
			var ckpt1, delivered2, resent int64
			drained := make(chan struct{})
			var drainOnce sync.Once
			probe.seen = func(r *rankRuntime, m *layer.Msg) {
				if r.id == 2 && r.incarnation == 0 && m.Peer == 1 && r.delivEnv.Incarnation > 0 {
					drainOnce.Do(func() { close(drained) })
				}
				if r.id == 2 && r.incarnation > 0 && m.Peer == 1 && m.Resent &&
					m.SendIndex > ckpt1 && m.SendIndex <= delivered2 {
					resent++
				}
			}
			cfg.Observer = obs
			cfg.Interceptors = []layer.Interceptor{probe}
			var faulty *Cluster
			got := run(t, cfg, factory, func(c *Cluster) {
				faulty = c
				<-obs.trigger
				if err := c.Kill(1); err != nil {
					t.Fatalf("Kill(1): %v", err)
				}
				cp, ok, err := c.ckpts.Load(1)
				if err != nil || !ok {
					t.Fatalf("rank 1 has no checkpoint (%v)", err)
				}
				c.ranksMu.Lock()
				r2 := c.ranks[2]
				c.ranksMu.Unlock()
				r2.mu.Lock()
				probe.mu.Lock()
				ckpt1, delivered2 = cp.LastSendIndex[2], r2.lastDeliverIndex[1]
				probe.mu.Unlock()
				r2.mu.Unlock()
				if err := c.Recover(1); err != nil {
					t.Fatalf("Recover(1): %v", err)
				}
				<-obs.recovered
				select {
				case <-drained:
				case <-time.After(30 * time.Second):
					t.Error("rank 2 never delivered a message of rank 1's second incarnation")
					return
				}
				if err := c.Kill(2); err != nil {
					t.Fatalf("Kill(2): %v", err)
				}
				if err := c.Recover(2); err != nil {
					t.Fatalf("Recover(2): %v", err)
				}
			})
			assertSameStates(t, want, got, "two consecutive victims")
			probe.assertClean(t)
			probe.mu.Lock()
			defer probe.mu.Unlock()
			if resent == 0 {
				t.Errorf("rank 2 was resent no regenerated record of rank 1 in (%d, %d]", ckpt1, delivered2)
			}
			if faulty.replayReordered.Load() {
				t.Error("a named-source replay set the reorder flag")
			}
			for _, v := range []int{1, 2} {
				if f := faulty.coll.Rank(v).Snapshot().PigFloorFullMsgs; f != 0 {
					t.Errorf("rank %d: its floors blocked %d deltas of a deterministic replay", v, f)
				}
			}
		})
	}
}

// skipEchoApp is echoMasterApp with three workers and two twists that
// make a recovered master's replay reorder its AnySource deliveries in a
// way a delta can see; ranks past 3 only pad the vector, so a delta
// beats a full vector. Worker 2 sends only in even steps, so its element
// does not rise between the master's replies to worker 3 in an even step
// and the odd step after it; in odd steps it only waits for the master's
// step-end message, so it never runs a step ahead. Worker w sleeps
// (3-w)·gap before each send, so the original run delivers each even
// step in the order 3, 2, 1. A restored master first waits until its
// peers' resends are queued, so its replay takes each step in scan
// order: 1, 2, 3. With forward set, worker 3 passes each answer on to
// rank 4, which learns worker 2's element only through worker 3. With
// hold set, a restored master waits for it instead, at most ten
// seconds.
type skipEchoApp struct {
	rank, steps int
	gap         time.Duration
	forward     bool
	hold        <-chan struct{}
	sum         uint64
	restored    bool
}

func (a *skipEchoApp) Steps() int { return a.steps }

func (a *skipEchoApp) Step(env app.Env, s int) {
	ask, answer := int32(2*s), int32(2*s+1)
	switch {
	case a.rank == 4 && a.forward:
		data, _ := env.Recv(3, answer)
		a.sum = a.sum*31 + du64(data)
		return
	case a.rank > 3:
		return
	case a.rank == 0:
		if a.restored {
			a.restored = false
			if a.hold == nil {
				time.Sleep(10 * a.gap)
			} else {
				select {
				case <-a.hold:
				case <-time.After(10 * time.Second):
				}
			}
		}
		asks := 3 - s%2
		for i := 0; i < asks; i++ {
			data, from := env.Recv(app.AnySource, ask)
			a.sum += du64(data) * uint64(from)
			env.Send(from, answer, u64(du64(data)+1))
		}
		if s%2 == 1 {
			env.Send(2, answer, u64(a.sum))
		}
		return
	case a.rank == 2 && s%2 == 1:
		data, _ := env.Recv(0, answer)
		a.sum = a.sum*31 + du64(data)
		return
	}
	time.Sleep(time.Duration(3-a.rank) * a.gap)
	env.Send(0, ask, u64(uint64(a.rank*1000+s)+a.sum%97))
	data, _ := env.Recv(0, answer)
	a.sum = a.sum*31 + du64(data)
	if a.rank == 3 && a.forward {
		env.Send(4, answer, u64(a.sum))
	}
}

func (a *skipEchoApp) Snapshot() []byte { return u64(a.sum) }

func (a *skipEchoApp) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("skipEchoApp: bad snapshot length %d", len(b))
	}
	a.sum, a.restored = du64(b), true
	return nil
}

// evenStepObs closes trigger when the master delivers worker 2's message
// of an even step at or past step from: the master has answered worker 3
// in that step and not yet in the next. It counts the master's
// redeliveries that took another delivery index than the first delivery
// of the same message: the replay reordered.
type evenStepObs struct {
	nopObserver
	from    int64
	trigger chan struct{}
	once    sync.Once

	mu        sync.Mutex
	at        map[[2]int64]int64
	reordered int
}

func (o *evenStepObs) OnDeliver(rank, from int, sendIndex, deliverIndex, demand int64) {
	if rank != 0 {
		return
	}
	if from == 2 && sendIndex > o.from/2 {
		o.once.Do(func() { close(o.trigger) })
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.at == nil {
		o.at = map[[2]int64]int64{}
	}
	key := [2]int64{int64(from), sendIndex}
	if d, ok := o.at[key]; !ok {
		o.at[key] = deliverIndex
	} else if d != deliverIndex {
		o.reordered++
	}
}

func (o *evenStepObs) reorders() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.reordered
}

// TestReorderedReplayKeepsFloors kills skipEchoApp's master between its
// replies to worker 3 in an even step and the odd step after it, at
// least four steps past its only checkpoint. Worker 3 ingested the original even
// reply, in which the master had not yet delivered worker 2's message.
// The replay regenerates that reply after worker 2's message, and the
// odd reply, the first worker 3 delivers from the new incarnation, has
// nothing of worker 2's to send. As a delta on the regenerated even reply
// it would omit worker 2's element, which worker 3 then never learns;
// the master's AnySource replay sets the reorder flag, so the floor
// keeps that reply full. Required, on both transports: the replay
// reordered, the flag is set, the floors blocked a delta, worker 3
// delivered a full vector from the master above what it had delivered
// at the kill, every delivery decodes to the sender's vector
// (dependProbe), and the run reaches the fault-free state.
func TestReorderedReplayKeepsFloors(t *testing.T) {
	const n, steps, ckptStep = 12, 24, 6
	factory := func(rank, n int) app.App { return &skipEchoApp{rank: rank, steps: steps, gap: 2 * time.Millisecond} }
	for _, tk := range []transport.Kind{transport.Mem, transport.TCP} {
		tk := tk
		t.Run(tk, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(n, TDI)
			cfg.Transport = tk
			cfg.CheckpointPolicy = policyFunc(func(rank, step int) bool { return rank == 0 && step == ckptStep })
			want := run(t, cfg, factory, nil)

			obs := &evenStepObs{from: ckptStep + 4, trigger: make(chan struct{})}
			probe := &dependProbe{}
			// atKill is what worker 3 had delivered from the master at the
			// kill; full counts its later deliveries of full vectors.
			atKill, full := int64(-1), 0
			probe.seen = func(r *rankRuntime, m *layer.Msg) {
				if r.id == 3 && m.Peer == 0 && atKill >= 0 && m.SendIndex > atKill {
					if len(m.Piggyback) > 0 && m.Piggyback[0] == 0 { // an absolute full vector
						full++
					}
				}
			}
			cfg.Observer = obs
			cfg.Interceptors = []layer.Interceptor{probe}
			var faulty *Cluster
			got := run(t, cfg, factory, func(c *Cluster) {
				faulty = c
				<-obs.trigger
				if err := c.Kill(0); err != nil {
					t.Fatalf("Kill(0): %v", err)
				}
				c.ranksMu.Lock()
				r3 := c.ranks[3]
				c.ranksMu.Unlock()
				r3.mu.Lock()
				probe.mu.Lock()
				atKill = r3.lastDeliverIndex[0]
				probe.mu.Unlock()
				r3.mu.Unlock()
				if err := c.Recover(0); err != nil {
					t.Fatalf("Recover(0): %v", err)
				}
			})
			assertSameStates(t, want, got, "reordered master replay")
			probe.assertClean(t)
			if obs.reorders() == 0 {
				t.Error("the master's replay delivered in the original order")
			}
			if !faulty.replayReordered.Load() {
				t.Error("the master's AnySource replay never set the reorder flag")
			}
			if f := faulty.coll.Rank(0).Snapshot().PigFloorFullMsgs; f == 0 {
				t.Error("the master's floors never blocked a delta")
			}
			probe.mu.Lock()
			defer probe.mu.Unlock()
			if full == 0 {
				t.Errorf("worker 3 delivered no full vector from the master past %d", atKill)
			}
		})
	}
}

// TestRestartAfterReorderedReplayKeepsFloors restarts a cluster whose
// AnySource master did a reordered replay before the restart. The first
// process runs skipEchoApp with forward set over a disk backend and
// kills the master as TestReorderedReplayKeepsFloors does. Workers 1-3
// checkpoint at step 6, rank 4 at step 9, the master at 6 and, after
// its recovery, at 20, so its log keeps the regenerated replies of steps
// 6-19. The restart rolls worker 3 back to step 6, and worker 3 delivers
// those replies from the master's log. The regenerated even reply of
// step 8 holds worker 2's message of step 8, the original held only
// that of step 6, so worker 3's forward of step 8 differs from the one
// rank 4 merged before its checkpoint. Its forward of step 9 has nothing
// new of worker 2's; as a delta on the forward rank 4 discarded it would
// omit worker 2's element. Worker 3 names every source and the restored
// master makes no AnySource choice until rank 4 has delivered that
// forward, so only the restart itself can have set the reorder flag.
// Required, on both transports: the first process's replay reordered,
// the restart set the flag, worker 3's floors blocked a delta, rank 4
// delivered the forward of step 9, every delivery of both processes
// decodes to the sender's vector (dependProbe), and the resumed run
// reaches the fault-free state.
func TestRestartAfterReorderedReplayKeepsFloors(t *testing.T) {
	const n, steps, ckptStep, fwdCkpt, lateCkpt = 12, 24, 6, 9, 20
	factory := func(hold <-chan struct{}) app.Factory {
		return func(rank, n int) app.App {
			return &skipEchoApp{rank: rank, steps: steps, gap: 2 * time.Millisecond, forward: true, hold: hold}
		}
	}
	ckpts := map[int]int{0: lateCkpt, 1: ckptStep, 2: ckptStep, 3: ckptStep, 4: fwdCkpt}
	for _, tk := range []transport.Kind{transport.Mem, transport.TCP} {
		tk := tk
		t.Run(tk, func(t *testing.T) {
			t.Parallel()
			probe := &dependProbe{}
			config := func(dir string) Config {
				cfg := testConfig(n, TDI)
				cfg.Transport = tk
				cfg.CheckpointPolicy = policyFunc(func(rank, step int) bool {
					return step == ckpts[rank] || rank == 0 && step == ckptStep
				})
				cfg.Interceptors = []layer.Interceptor{probe}
				if dir != "" {
					cfg.Stable = diskBackend(t, dir)
					cfg.DurableLogs = true
				}
				return cfg
			}
			want := run(t, config(""), factory(nil), nil)
			await := func(c *Cluster, what string) {
				t.Helper()
				done := make(chan struct{})
				go func() { c.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatalf("%s did not complete", what)
				}
			}

			dir := t.TempDir()
			cfg := config(dir)
			obs := &evenStepObs{from: ckptStep + 4, trigger: make(chan struct{})}
			cfg.Observer = obs
			c, err := NewCluster(cfg, factory(nil))
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			if err := c.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			<-obs.trigger
			if err := c.Kill(0); err != nil {
				t.Fatalf("Kill(0): %v", err)
			}
			if err := c.Recover(0); err != nil {
				t.Fatalf("Recover(0): %v", err)
			}
			await(c, "the first process")
			deadline := time.Now().Add(30 * time.Second)
			for rank, step := range ckpts {
				for {
					cp, ok, err := c.ckpts.LoadDurable(rank)
					if err != nil {
						t.Fatalf("LoadDurable(%d): %v", rank, err)
					}
					if ok && cp.Step == step {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("rank %d has no durable checkpoint at step %d", rank, step)
					}
					time.Sleep(time.Millisecond)
				}
			}
			c.Close()
			assertNoLiveHolds(t, c)
			if obs.reorders() == 0 {
				t.Fatal("the master's replay delivered in the original order")
			}

			// Rank 4 delivering worker 3's forward of step 9 releases the
			// restored master.
			hold := make(chan struct{})
			var released bool
			probe.mu.Lock()
			probe.seen = func(r *rankRuntime, m *layer.Msg) {
				if r.id == 4 && m.Tag == 2*fwdCkpt+1 && !released {
					released = true
					close(hold)
				}
			}
			probe.mu.Unlock()
			c2, err := NewCluster(config(dir), factory(hold))
			if err != nil {
				t.Fatalf("NewCluster(resume): %v", err)
			}
			defer c2.Close()
			if err := c2.StartFromStable(); err != nil {
				t.Fatalf("StartFromStable: %v", err)
			}
			await(c2, "the resumed cluster")
			for rank := 0; rank < n; rank++ {
				if got := c2.AppSnapshot(rank); !bytes.Equal(got, want[rank]) {
					t.Errorf("rank %d: resumed state %x, fault-free %x", rank, got, want[rank])
				}
			}
			probe.assertClean(t)
			assertNoLiveHolds(t, c2)
			if !c2.replayReordered.Load() {
				t.Error("the restart left the reorder flag clear")
			}
			if f := c2.coll.Rank(3).Snapshot().PigFloorFullMsgs; f == 0 {
				t.Error("worker 3's floors never blocked a delta")
			}
			probe.mu.Lock()
			defer probe.mu.Unlock()
			if !released {
				t.Error("rank 4 never delivered worker 3's forward of step 9")
			}
		})
	}
}
