package harness

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/metrics"
	"windar/internal/transport"
	"windar/internal/workload"
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
// and one first send above each floor.
func TestMasterRecoveryResync(t *testing.T) {
	const n, steps, burst = 4, 150, 4
	apps := []struct {
		name    string
		factory app.Factory
	}{
		{"masterworker", workload.NewMasterWorker(steps)},
		{"burst", func(rank, n int) app.App { return &burstMasterApp{rank: rank, n: n, steps: steps, burst: burst} }},
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

					obs := &resyncObs{killAt: steps / 3 * (n - 1), trigger: make(chan struct{}), atComplete: map[int]metrics.Snapshot{}}
					cfg.Observer = obs
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
					if rej := faulty.Metrics().Total().IngestRejected; rej != 0 {
						t.Errorf("%d envelopes rejected at ingest", rej)
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
