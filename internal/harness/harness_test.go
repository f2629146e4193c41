package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/fabric"
	"windar/internal/stable"
	"windar/internal/transport"
)

// --- test applications ---

func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func du64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// ringApp circulates values around a ring; each step every rank sends to
// its right neighbour and receives from its left, folding the received
// value into a running checksum. Fully deterministic.
type ringApp struct {
	rank, n, steps int
	sum            uint64
}

func (a *ringApp) Steps() int { return a.steps }

func (a *ringApp) Step(env app.Env, s int) {
	env.Send((a.rank+1)%a.n, 0, u64(a.sum+uint64(s)*7+uint64(a.rank)))
	data, _ := env.Recv((a.rank-1+a.n)%a.n, 0)
	a.sum = a.sum*31 + du64(data)
}

func (a *ringApp) Snapshot() []byte { return u64(a.sum) }

func (a *ringApp) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("ringApp: bad snapshot length %d", len(b))
	}
	a.sum = du64(b)
	return nil
}

func ringFactory(steps int) app.Factory {
	return func(rank, n int) app.App {
		return &ringApp{rank: rank, n: n, steps: steps}
	}
}

// sumApp is the paper's Section II.C motivating pattern: every worker
// sends its value to rank 0, which receives them with AnySource (the
// arrival order must not matter, so it accumulates with addition) and
// broadcasts the total back.
type sumApp struct {
	rank, n, steps int
	state          uint64
}

func (a *sumApp) Steps() int { return a.steps }

func (a *sumApp) Step(env app.Env, s int) {
	if a.rank == 0 {
		var total uint64
		for i := 1; i < a.n; i++ {
			data, _ := env.Recv(app.AnySource, 0)
			total += du64(data)
		}
		a.state += total
		for i := 1; i < a.n; i++ {
			env.Send(i, 1, u64(a.state))
		}
	} else {
		env.Send(0, 0, uint64Value(a.rank, s, a.state))
		data, _ := env.Recv(0, 1)
		a.state = du64(data)
	}
}

func uint64Value(rank, step int, state uint64) []byte {
	return u64(uint64(rank)*1000003 + uint64(step)*7919 + state%97)
}

func (a *sumApp) Snapshot() []byte { return u64(a.state) }

func (a *sumApp) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("sumApp: bad snapshot length %d", len(b))
	}
	a.state = du64(b)
	return nil
}

func sumFactory(steps int) app.Factory {
	return func(rank, n int) app.App {
		return &sumApp{rank: rank, n: n, steps: steps}
	}
}

// --- helpers ---

// testTransport lets CI run the whole harness matrix over a different
// substrate: WINDAR_TRANSPORT=tcp go test ./internal/harness/.
func testTransport() transport.Kind {
	if k := os.Getenv("WINDAR_TRANSPORT"); k != "" {
		return k
	}
	return transport.Mem
}

func testConfig(n int, p ProtocolKind) Config {
	return Config{
		N:               n,
		Protocol:        p,
		CheckpointEvery: 5,
		Transport:       testTransport(),
		Fabric: fabric.Config{
			BaseLatency:    20 * time.Microsecond,
			JitterFraction: 1.0,
			Seed:           12345,
		},
		EventLoggerLatency: 200 * time.Microsecond,
		StallTimeout:       20 * time.Second,
	}
}

// stableFromEnv gives cfg a fresh disk backend with durable sender logs
// when WINDAR_STABLE=disk and cfg names no backend, so the whole matrix
// reruns over disk (the cluster owns and closes the backend):
// WINDAR_STABLE=disk go test ./internal/harness/.
func stableFromEnv(t *testing.T, cfg *Config) {
	t.Helper()
	if cfg.Stable == nil && os.Getenv("WINDAR_STABLE") == "disk" {
		d, err := stable.OpenDisk(stable.DiskOptions{Dir: t.TempDir(), FsyncInterval: time.Millisecond})
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		cfg.Stable = d
		cfg.DurableLogs = true
	}
}

// run executes factory to completion under cfg and returns the final app
// snapshots. kills, if non-nil, runs concurrently once the cluster is up.
func run(t *testing.T, cfg Config, factory app.Factory, chaos func(c *Cluster)) [][]byte {
	t.Helper()
	stableFromEnv(t, &cfg)
	c, err := NewCluster(cfg, factory)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if chaos != nil {
		held := holdWatch(t, c, "cluster")
		chaos(c)
		if held() {
			t.FailNow()
		}
	}
	await(t, c, "cluster")
	out := make([][]byte, cfg.N)
	for i := range out {
		out[i] = c.AppSnapshot(i)
	}
	assertNoLiveHolds(t, c)
	return out
}

// await waits up to a minute for c's applications to complete, under
// holdWatch: a TDI live hold fails t at once instead of parking a Recv
// until the stall timeout panics and takes the test binary down.
func await(t *testing.T, c *Cluster, what string) {
	t.Helper()
	held := holdWatch(t, c, what)
	done := make(chan struct{})
	go func() { c.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		held()
		c.Close()
		t.Fatalf("%s did not complete", what)
	}
	if held() {
		t.FailNow()
	}
}

// holdWatch polls TDI cluster c's live-hold count until the returned
// stop function is called. TDI never holds an in-order head outside a
// roll-forward, so a count fails t and closes c, which unparks every
// Recv. stop reports whether that happened; call it before c's deferred
// Close, and stop one watch before starting the next.
func holdWatch(t *testing.T, c *Cluster, what string) (stop func() bool) {
	if c.cfg.Protocol != TDI {
		return func() bool { return false }
	}
	quit, fired := make(chan struct{}), make(chan bool, 1)
	go func() {
		poll := time.NewTicker(5 * time.Millisecond)
		defer poll.Stop()
		for {
			select {
			case <-quit:
				fired <- false
				return
			case <-poll.C:
				if h := c.Metrics().Total().LiveHolds; h != 0 {
					t.Errorf("%s: TDI held an in-order head %d times outside a roll-forward", what, h)
					c.Close()
					fired <- true
					return
				}
			}
		}
	}()
	return sync.OnceValue(func() bool { close(quit); return <-fired })
}

// assertNoLiveHolds fails t when a rank of a TDI cluster held an
// in-order head outside a roll-forward (metrics.Rank.LiveHold): TDI's
// predicate never holds there, so each count is a protocol fault, such
// as an element decoded above its true value.
func assertNoLiveHolds(t *testing.T, c *Cluster) {
	t.Helper()
	if h := c.Metrics().Total().LiveHolds; c.cfg.Protocol == TDI && h != 0 {
		t.Errorf("TDI held an in-order head %d times outside a roll-forward", h)
	}
}

func assertSameStates(t *testing.T, want, got [][]byte, label string) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("%s: rank %d state %x, want %x", label, i, got[i], want[i])
		}
	}
}

var allProtocols = []ProtocolKind{TDI, TAG, TEL}

// --- failure-free runs ---

func TestRingCompletesAllProtocols(t *testing.T) {
	for _, p := range allProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			states := run(t, testConfig(4, p), ringFactory(40), nil)
			for i, s := range states {
				if len(s) != 8 || du64(s) == 0 {
					t.Errorf("rank %d suspicious final state %x", i, s)
				}
			}
		})
	}
}

func TestRingDeterministicAcrossProtocols(t *testing.T) {
	// The logging protocol must be transparent: all three must produce
	// identical application results.
	base := run(t, testConfig(4, TDI), ringFactory(30), nil)
	for _, p := range []ProtocolKind{TAG, TEL} {
		got := run(t, testConfig(4, p), ringFactory(30), nil)
		assertSameStates(t, base, got, string(p))
	}
}

func TestSumAppCompletes(t *testing.T) {
	states := run(t, testConfig(4, TDI), sumFactory(20), nil)
	// Every rank ends with the same broadcast state... rank 0 adds after
	// broadcast? No: rank 0 broadcasts a.state after adding, so all
	// match.
	for i := 1; i < len(states); i++ {
		if !bytes.Equal(states[0], states[i]) {
			t.Fatalf("rank %d state %x, rank 0 %x", i, states[i], states[0])
		}
	}
}

func TestBlockingModeCompletes(t *testing.T) {
	cfg := testConfig(4, TDI)
	cfg.Mode = Blocking
	base := run(t, testConfig(4, TDI), ringFactory(25), nil)
	got := run(t, cfg, ringFactory(25), nil)
	assertSameStates(t, base, got, "blocking-mode")
}

// --- failure and recovery ---

func TestRingSurvivesSingleFailure(t *testing.T) {
	for _, p := range allProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			clean := run(t, testConfig(4, p), ringFactory(60), nil)
			faulty := run(t, testConfig(4, p), ringFactory(60), func(c *Cluster) {
				time.Sleep(3 * time.Millisecond)
				if err := c.KillAndRecover(2, time.Millisecond); err != nil {
					t.Errorf("KillAndRecover: %v", err)
				}
			})
			assertSameStates(t, clean, faulty, string(p))
			if rec := c2Recoveries(t, p); rec == 0 {
				_ = rec // metric check done in dedicated test below
			}
		})
	}
}

func c2Recoveries(t *testing.T, p ProtocolKind) int64 { return 0 } // placeholder, see metrics test

func TestAnySourceSurvivesFailure(t *testing.T) {
	// The master uses AnySource: under TDI the replay may deliver
	// workers' values in a different order than the original run, and
	// the result must still be identical (commutative accumulation) —
	// the paper's core claim.
	clean := run(t, testConfig(5, TDI), sumFactory(40), nil)
	faulty := run(t, testConfig(5, TDI), sumFactory(40), func(c *Cluster) {
		time.Sleep(3 * time.Millisecond)
		if err := c.KillAndRecover(0, time.Millisecond); err != nil {
			t.Errorf("KillAndRecover: %v", err)
		}
	})
	assertSameStates(t, clean, faulty, "anysource-master-failure")
}

func TestWorkerFailureUnderAnySource(t *testing.T) {
	clean := run(t, testConfig(5, TDI), sumFactory(40), nil)
	faulty := run(t, testConfig(5, TDI), sumFactory(40), func(c *Cluster) {
		time.Sleep(3 * time.Millisecond)
		if err := c.KillAndRecover(3, time.Millisecond); err != nil {
			t.Errorf("KillAndRecover: %v", err)
		}
	})
	assertSameStates(t, clean, faulty, "anysource-worker-failure")
}

func TestMultipleSimultaneousFailures(t *testing.T) {
	// Section III.D: simultaneous failures lose each other's logs; the
	// lost messages and their dependencies are regenerated during the
	// rolling forward of each incarnation.
	clean := run(t, testConfig(4, TDI), ringFactory(60), nil)
	faulty := run(t, testConfig(4, TDI), ringFactory(60), func(c *Cluster) {
		time.Sleep(3 * time.Millisecond)
		if err := c.Kill(1); err != nil {
			t.Errorf("Kill(1): %v", err)
		}
		if err := c.Kill(2); err != nil {
			t.Errorf("Kill(2): %v", err)
		}
		time.Sleep(time.Millisecond)
		if err := c.Recover(1); err != nil {
			t.Errorf("Recover(1): %v", err)
		}
		if err := c.Recover(2); err != nil {
			t.Errorf("Recover(2): %v", err)
		}
	})
	assertSameStates(t, clean, faulty, "double-failure")
}

func TestRepeatedFailuresSameRank(t *testing.T) {
	clean := run(t, testConfig(4, TDI), ringFactory(80), nil)
	faulty := run(t, testConfig(4, TDI), ringFactory(80), func(c *Cluster) {
		for i := 0; i < 2; i++ {
			time.Sleep(4 * time.Millisecond)
			if err := c.KillAndRecover(1, time.Millisecond); err != nil {
				t.Errorf("KillAndRecover #%d: %v", i, err)
				return
			}
		}
	})
	assertSameStates(t, clean, faulty, "repeated-failure")
}

func TestFailureBeforeAnyCheckpoint(t *testing.T) {
	// With CheckpointEvery=0 the incarnation restarts from scratch.
	cfg := testConfig(3, TDI)
	cfg.CheckpointEvery = 0
	clean := run(t, cfg, ringFactory(30), nil)
	faulty := run(t, cfg, ringFactory(30), func(c *Cluster) {
		time.Sleep(2 * time.Millisecond)
		if err := c.KillAndRecover(1, time.Millisecond); err != nil {
			t.Errorf("KillAndRecover: %v", err)
		}
	})
	assertSameStates(t, clean, faulty, "no-checkpoint")
}

func TestPWDProtocolsSurviveFailure(t *testing.T) {
	for _, p := range []ProtocolKind{TAG, TEL} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			clean := run(t, testConfig(4, p), sumFactory(30), nil)
			faulty := run(t, testConfig(4, p), sumFactory(30), func(c *Cluster) {
				time.Sleep(3 * time.Millisecond)
				if err := c.KillAndRecover(0, time.Millisecond); err != nil {
					t.Errorf("KillAndRecover: %v", err)
				}
			})
			assertSameStates(t, clean, faulty, string(p))
		})
	}
}

func TestBlockingModeSurvivesFailure(t *testing.T) {
	cfg := testConfig(4, TDI)
	cfg.Mode = Blocking
	clean := run(t, cfg, ringFactory(40), nil)
	faulty := run(t, cfg, ringFactory(40), func(c *Cluster) {
		time.Sleep(3 * time.Millisecond)
		if err := c.KillAndRecover(2, 2*time.Millisecond); err != nil {
			t.Errorf("KillAndRecover: %v", err)
		}
	})
	assertSameStates(t, clean, faulty, "blocking-failure")
}

// --- bookkeeping behaviour ---

func TestRecoveryMetricsRecorded(t *testing.T) {
	cfg := testConfig(4, TDI)
	c, err := NewCluster(cfg, ringFactory(60))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Millisecond)
	if err := c.KillAndRecover(1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	await(t, c, "cluster")
	snap := c.Metrics().Rank(1).Snapshot()
	if snap.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", snap.Recoveries)
	}
	total := c.Metrics().Total()
	if total.MsgsSent == 0 || total.MsgsDelivered == 0 {
		t.Fatalf("no traffic recorded: %+v", total)
	}
}

func TestLogReleaseBoundsMemory(t *testing.T) {
	// With periodic checkpoints and CHECKPOINT_ADVANCE, retained log
	// items must be far below the total number of sends.
	cfg := testConfig(4, TDI)
	cfg.CheckpointEvery = 5
	c, err := NewCluster(cfg, ringFactory(100))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	await(t, c, "cluster")
	time.Sleep(5 * time.Millisecond) // let trailing CKPT_ADVANCE arrive
	total := c.Metrics().Total()
	live := c.LogItemsLive()
	if total.MsgsSent < 300 {
		t.Fatalf("expected ~400 sends, got %d", total.MsgsSent)
	}
	if int64(live) > total.MsgsSent/2 {
		t.Fatalf("log not released: %d live of %d sent", live, total.MsgsSent)
	}
	if total.LogItemsReleased == 0 {
		t.Fatal("no log items ever released")
	}
}

func TestKillErrors(t *testing.T) {
	c, err := NewCluster(testConfig(2, TDI), ringFactory(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Kill(0); err == nil {
		t.Fatal("Kill before Start should fail")
	}
	if err := c.Recover(0); err == nil {
		t.Fatal("Recover before Start should fail")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(0); err == nil {
		t.Fatal("Recover of a live rank should fail")
	}
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(0); err == nil {
		t.Fatal("double Kill should fail")
	}
	if err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	await(t, c, "cluster")
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{N: 0}, ringFactory(1)); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := NewCluster(Config{N: 2}, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := NewCluster(Config{N: 2, Protocol: "bogus"}, ringFactory(1)); err == nil {
		// Protocol validation happens at Start (newProtocol); accept
		// either behaviour but the cluster must not run.
		c, _ := NewCluster(Config{N: 2, Protocol: "bogus"}, ringFactory(1))
		if c != nil {
			defer c.Close()
			if err := c.Start(); err == nil {
				t.Fatal("bogus protocol started")
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if NonBlocking.String() != "non-blocking" || Blocking.String() != "blocking" {
		t.Fatal("mode strings")
	}
}

// TestCloseStopsEveryGoroutine: once Close returns, every goroutine the
// cluster started is gone — the receiver and checkpoint-writer loops of
// every incarnation, the stall watchdog, the mem fabric's link loops, on
// tcp the accept, serve, link and connection-watch loops, and under TEL
// the event logger's server — across a kill and a recovery.
// Goroutines that predate NewCluster (other tests' leftovers) are told
// apart by id.
func TestCloseStopsEveryGoroutine(t *testing.T) {
	rank := []string{"receiverLoop", "ckptWriterLoop", "stallWatchdog"}
	for _, cell := range []struct {
		name  string
		tr    transport.Kind
		p     ProtocolKind
		loops []string
	}{
		{"mem", transport.Mem, TDI, append(rank, "fabric.(*link).run")},
		{"tcp", transport.TCP, TDI, append(rank, "acceptLoop", "serveConn", "tcp.(*link).run", "tcp.(*link).watch")},
		{"tel", transport.Mem, TEL, append(rank, "fabric.(*link).run", "tel.(*Logger).serve")},
	} {
		t.Run(cell.name, func(t *testing.T) {
			before := goroutines()
			cfg := testConfig(3, cell.p)
			cfg.Transport, cfg.Mode = cell.tr, NonBlocking
			c, err := NewCluster(cfg, ringFactory(400))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
			if err := c.Kill(1); err != nil {
				t.Fatal(err)
			}
			if err := c.Recover(1); err != nil {
				t.Fatal(err)
			}
			// The check below is only as strong as the set of loops that
			// ran: each must show in a stack dump while the cluster runs.
			var running strings.Builder
			for _, g := range goroutines() {
				running.WriteString(g)
			}
			for _, fn := range cell.loops {
				if !strings.Contains(running.String(), fn) {
					t.Errorf("no %s goroutine while the cluster runs", fn)
				}
			}
			await(t, c, "cluster")
			c.Close()
			deadline := time.Now().Add(10 * time.Second)
			for {
				var left []string
				for id, g := range goroutines() {
					if _, old := before[id]; !old {
						left = append(left, g)
					}
				}
				if len(left) == 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines started by the cluster outlive Close:\n%s", len(left), strings.Join(left, "\n"))
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// goroutines returns every goroutine's stack, keyed by goroutine id.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(g, "goroutine "), " "); ok {
			out[id] = g
		}
	}
	return out
}
