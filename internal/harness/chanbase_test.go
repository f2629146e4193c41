package harness

import (
	"bytes"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/transport"
	"windar/layer"
)

// pacedApp sleeps before each step of the app it wraps, so a test can
// act on a run in flight.
type pacedApp struct {
	app.App
	gap time.Duration
}

func (p pacedApp) Step(env app.Env, s int) {
	time.Sleep(p.gap)
	p.App.Step(env, s)
}

func pacedRing(steps int) app.Factory {
	ring := ringFactory(steps)
	return func(rank, n int) app.App { return pacedApp{ring(rank, n), 500 * time.Microsecond} }
}

// relativePig reports whether a TDI piggyback reads against the
// channel's base: every form but the absolute full vector.
func relativePig(pig []byte) bool { return len(pig) == 0 || pig[0] != 0 }

// awaitDelivered blocks until rank has delivered at least count messages.
func awaitDelivered(t *testing.T, c *Cluster, rank int, count int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		c.ranksMu.Lock()
		r := c.ranks[rank]
		c.ranksMu.Unlock()
		r.mu.Lock()
		got := r.deliveredCount
		r.mu.Unlock()
		if got >= count {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d delivered only %d of %d", rank, got, count)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestKilledChannelEndsKeepTheBase kills rank 2 of a TDI ring ten steps
// past its only checkpoint and recovers it. As a receiver it dies with
// rank 1's relative piggybacks delivered past the checkpoint, queued or
// in flight; rank 1 resends them from its log, and the first one the
// new incarnation delivers must read against the base its checkpoint
// restored. As a sender it dies between two sends to rank 3: its replay
// regenerates the sends rank 3 already has, and the first new one rank 3
// delivers is relative to a regenerated send rank 3 discarded, which the
// replay made equal to the original rank 3 holds the base of. Required,
// on both transports: both cases reached, every delivery decodes to the
// sender's vector (dependProbe), no live hold and the fault-free state.
func TestKilledChannelEndsKeepTheBase(t *testing.T) {
	const n, steps, victim, ckptStep = 4, 60, 2, 10
	for _, tk := range []transport.Kind{transport.Mem, transport.TCP} {
		tk := tk
		t.Run(tk, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(n, TDI)
			cfg.Transport = tk
			cfg.CheckpointPolicy = policyFunc(func(rank, step int) bool { return step == ckptStep })
			want := run(t, cfg, pacedRing(steps), nil)

			probe := &dependProbe{}
			sentAtKill := int64(-1)
			// The first piggyback of each case, copied: a received one's
			// buffer is recycled after the delivery.
			var recvFirst, sendFirst []byte
			var recvResent, recvSeen, sendSeen bool
			probe.seen = func(r *rankRuntime, m *layer.Msg) {
				switch {
				case r.id == victim && r.incarnation == 1 && m.Peer == victim-1 && !recvSeen:
					recvSeen, recvResent, recvFirst = true, m.Resent, bytes.Clone(m.Piggyback)
				case r.id == victim+1 && m.Peer == victim && sentAtKill >= 0 && m.SendIndex > sentAtKill && !sendSeen:
					sendSeen, sendFirst = true, bytes.Clone(m.Piggyback)
				}
			}
			cfg.Interceptors = []layer.Interceptor{probe}
			got := run(t, cfg, pacedRing(steps), func(c *Cluster) {
				awaitDelivered(t, c, victim, ckptStep+10)
				if err := c.Kill(victim); err != nil {
					t.Fatalf("Kill: %v", err)
				}
				c.ranksMu.Lock()
				dead := c.ranks[victim]
				c.ranksMu.Unlock()
				dead.mu.Lock()
				sent := dead.lastSendIndex[victim+1]
				dead.mu.Unlock()
				probe.mu.Lock()
				sentAtKill = sent
				probe.mu.Unlock()
				if err := c.Recover(victim); err != nil {
					t.Fatalf("Recover: %v", err)
				}
			})
			assertSameStates(t, want, got, "killed channel ends")
			probe.assertClean(t)
			probe.mu.Lock()
			defer probe.mu.Unlock()
			if !recvSeen || !recvResent || !relativePig(recvFirst) {
				t.Errorf("the recovered receiver's first delivery from rank %d (seen %v, resent %v) is % x, want a resent relative piggyback", victim-1, recvSeen, recvResent, recvFirst)
			}
			if !sendSeen || !relativePig(sendFirst) {
				t.Errorf("rank %d's first delivery past send %d of the recovered sender (seen %v) is % x, want a relative piggyback", victim+1, sentAtKill, sendSeen, sendFirst)
			}
		})
	}
}

// TestRestartResendsRelativePiggybacks restarts a TDI ring over a disk
// backend after even ranks checkpointed at step 10 and odd ranks at step
// 14. Each odd rank's checkpoint keeps its sends of steps 11-14 in its
// log, relative piggybacks on sends its even successor delivered before
// its own checkpoint; the restart resends them, and each even rank's
// first delivery must read against the base its checkpoint restored.
// Required, on both transports: every even rank's first delivery in the
// resumed process is such a resend, every delivery of both processes
// decodes to the sender's vector (dependProbe), no live hold in the
// first process and the fault-free state.
func TestRestartResendsRelativePiggybacks(t *testing.T) {
	const n, steps = 4, 60
	for _, tk := range []transport.Kind{transport.Mem, transport.TCP} {
		tk := tk
		t.Run(tk, func(t *testing.T) {
			t.Parallel()
			probe := &dependProbe{}
			config := func(dir string) Config {
				cfg := testConfig(n, TDI)
				cfg.Transport = tk
				cfg.CheckpointPolicy = policyFunc(func(rank, step int) bool { return step == 10+4*(rank%2) })
				cfg.Interceptors = []layer.Interceptor{probe}
				if dir != "" {
					cfg.Stable = diskBackend(t, dir)
					cfg.DurableLogs = true
				}
				return cfg
			}
			want := run(t, config(""), pacedRing(steps), nil)

			dir := t.TempDir()
			c, err := NewCluster(config(dir), pacedRing(steps))
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			if err := c.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			for rank := 0; rank < n; rank++ {
				awaitDelivered(t, c, rank, 20)
			}
			deadline := time.Now().Add(30 * time.Second)
			for rank := 0; rank < n; rank++ {
				for {
					if cp, ok, err := c.ckpts.LoadDurable(rank); err != nil {
						t.Fatalf("LoadDurable(%d): %v", rank, err)
					} else if ok && cp.Step == 10+4*(rank%2) {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("rank %d has no durable checkpoint", rank)
					}
					time.Sleep(time.Millisecond)
				}
			}
			c.Close() // abrupt: every rank dies mid-run
			assertNoLiveHolds(t, c)

			first := map[int][]byte{}
			resent := map[int]bool{}
			probe.mu.Lock()
			probe.seen = func(r *rankRuntime, m *layer.Msg) {
				if _, ok := first[r.id]; !ok && r.id%2 == 0 {
					first[r.id], resent[r.id] = bytes.Clone(m.Piggyback), m.Resent
				}
			}
			probe.mu.Unlock()
			c2, err := NewCluster(config(dir), pacedRing(steps))
			if err != nil {
				t.Fatalf("NewCluster(resume): %v", err)
			}
			defer c2.Close()
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
			probe.mu.Lock()
			defer probe.mu.Unlock()
			for rank := 0; rank < n; rank += 2 {
				if pig, ok := first[rank]; !ok || !resent[rank] || !relativePig(pig) {
					t.Errorf("rank %d's first delivery after the restart (seen %v, resent %v) is % x, want a resent relative piggyback", rank, ok, resent[rank], pig)
				}
			}
		})
	}
}
