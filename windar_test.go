package windar_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"windar"
	"windar/internal/trace"
)

func baseConfig(n int, p windar.Protocol) windar.Config {
	return windar.Config{
		Procs:           n,
		Protocol:        p,
		CheckpointEvery: 4,
		JitterFraction:  1,
		Seed:            5,
		StallTimeout:    30 * time.Second,
	}
}

func runToCompletion(t *testing.T, cfg windar.Config, f windar.Factory, chaos func(*windar.Cluster)) *windar.Cluster {
	t.Helper()
	c, err := windar.NewCluster(cfg, f)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if chaos != nil {
		chaos(c)
	}
	done := make(chan struct{})
	go func() { c.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster did not finish")
	}
	return c
}

func TestPublicAPIWorkloadRun(t *testing.T) {
	f, err := windar.WorkloadFactory("ring", 20)
	if err != nil {
		t.Fatal(err)
	}
	c := runToCompletion(t, baseConfig(4, windar.TDI), f, nil)
	stats := c.Stats()
	if stats.MsgsSent == 0 || stats.MsgsDelivered == 0 {
		t.Fatalf("no traffic: %+v", stats)
	}
	// The delta encoding (on by default) can only shrink the piggyback
	// below the full vector's n identifiers, never grow it.
	if got := stats.AvgPiggybackIDs(); got <= 0 || got > 4 {
		t.Fatalf("TDI piggyback = %v, want in (0, 4]", got)
	}
}

func TestPublicAPIFailureRecovery(t *testing.T) {
	f, err := windar.NPBFactory("lu", 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	clean := runToCompletion(t, baseConfig(4, windar.TDI), f, nil)
	rec := &windar.TraceRecorder{}
	cfg := baseConfig(4, windar.TDI)
	cfg.Trace = rec
	faulty := runToCompletion(t, cfg, f, func(c *windar.Cluster) {
		time.Sleep(4 * time.Millisecond)
		if err := c.KillAndRecover(2, time.Millisecond); err != nil {
			t.Errorf("KillAndRecover: %v", err)
		}
	})
	for r := 0; r < 4; r++ {
		if !bytes.Equal(clean.AppSnapshot(r), faulty.AppSnapshot(r)) {
			t.Fatalf("rank %d diverged after recovery", r)
		}
	}
	if problems := rec.Validate(true); len(problems) != 0 {
		t.Fatalf("trace violations: %v", problems)
	}
	if faulty.Stats().Recoveries != 1 {
		t.Fatalf("recoveries = %d", faulty.Stats().Recoveries)
	}
}

// spanSeen records the span contexts a user interceptor observes, the
// embedder's view of causal tracing.
type spanSeen struct {
	mu    sync.Mutex
	roots int
	child int
}

func (s *spanSeen) Wrap(next windar.Handler) windar.Handler {
	return &spanSeenLayer{Forward: windar.Forward{Next: next}, s: s}
}

type spanSeenLayer struct {
	windar.Forward
	s *spanSeen
}

func (l *spanSeenLayer) Deliver(m *windar.Msg) {
	l.s.mu.Lock()
	if m.Span.Parent == 0 {
		l.s.roots++
	} else {
		l.s.child++
	}
	if m.Span.Trace == 0 || m.Span.Span == 0 {
		panic("tracing enabled but span context empty")
	}
	l.s.mu.Unlock()
	l.Forward.Deliver(m)
}

// TestPublicAPITracingAndFlight runs a traced cluster with a bounded
// trace recorder, the flight recorder, armed across a kill/recover,
// checks that the chain saw causal span contexts on every delivery, and
// that the recorder dumps and serves the same window over /debug/flight,
// a window that validates offline as the live recorder does.
func TestPublicAPITracingAndFlight(t *testing.T) {
	f, err := windar.WorkloadFactory("ring", 20)
	if err != nil {
		t.Fatal(err)
	}
	rec := windar.NewBoundedTrace(64)
	seen := &spanSeen{}
	cfg := baseConfig(4, windar.TDI)
	cfg.Tracing = true
	cfg.Trace = rec
	cfg.Interceptors = []windar.Interceptor{seen}
	c := runToCompletion(t, cfg, f, func(c *windar.Cluster) {
		time.Sleep(3 * time.Millisecond)
		if err := c.KillAndRecover(1, time.Millisecond); err != nil {
			t.Errorf("KillAndRecover: %v", err)
		}
	})
	c.Close() // nothing records past here, so dump and endpoint agree
	if problems := rec.Validate(true); len(problems) != 0 {
		t.Fatalf("trace violations: %v", problems)
	}
	seen.mu.Lock()
	roots, child := seen.roots, seen.child
	seen.mu.Unlock()
	if roots == 0 || child == 0 {
		t.Fatalf("interceptor saw no causal structure: roots=%d children=%d", roots, child)
	}
	path := filepath.Join(t.TempDir(), "flight-test.jsonl")
	if err := rec.WriteFile(path); err != nil {
		t.Fatalf("flight WriteFile: %v", err)
	}
	dumped, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight file missing: %v", err)
	}
	dumpedRec, err := trace.Import(bytes.NewReader(dumped))
	if err != nil {
		t.Fatalf("import flight dump: %v", err)
	}
	if dumpedRec.Dropped() == 0 {
		t.Fatal("flight ring never evicted; the window test proves nothing")
	}
	if problems := dumpedRec.Validate(true); len(problems) != 0 {
		t.Fatalf("flight dump violations: %v", problems)
	}

	dbg, err := c.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	defer dbg.Close()
	resp, err := http.Get("http://" + dbg.Addr() + "/debug/flight")
	if err != nil {
		t.Fatalf("GET /debug/flight: %v", err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight: status %d, err %v", resp.StatusCode, err)
	}
	if !bytes.Equal(served, dumped) {
		t.Fatal("/debug/flight window and WriteFile dump disagree")
	}
}

// customApp exercises the public App interface end to end: a user-defined
// application, not one of the bundled factories.
type customApp struct {
	rank, n int
	acc     uint64
}

func (a *customApp) Steps() int { return 12 }

func (a *customApp) Step(env windar.Env, s int) {
	next := (a.rank + 1) % a.n
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], a.acc+uint64(s))
	env.Send(next, 9, b[:])
	data, from := env.Recv((a.rank-1+a.n)%a.n, 9)
	if from != (a.rank-1+a.n)%a.n {
		panic(fmt.Sprintf("wrong source %d", from))
	}
	a.acc = a.acc*17 + binary.BigEndian.Uint64(data)
}

func (a *customApp) Snapshot() []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], a.acc)
	return b[:]
}

func (a *customApp) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("bad snapshot")
	}
	a.acc = binary.BigEndian.Uint64(b)
	return nil
}

func TestPublicAPICustomApp(t *testing.T) {
	factory := func(rank, n int) windar.App { return &customApp{rank: rank, n: n} }
	clean := runToCompletion(t, baseConfig(3, windar.TDI), factory, nil)
	faulty := runToCompletion(t, baseConfig(3, windar.TDI), factory, func(c *windar.Cluster) {
		time.Sleep(2 * time.Millisecond)
		if err := c.KillAndRecover(1, time.Millisecond); err != nil {
			t.Errorf("KillAndRecover: %v", err)
		}
	})
	for r := 0; r < 3; r++ {
		if !bytes.Equal(clean.AppSnapshot(r), faulty.AppSnapshot(r)) {
			t.Fatalf("rank %d diverged", r)
		}
	}
}

func TestPublicAPIAllProtocolsAgree(t *testing.T) {
	f, err := windar.WorkloadFactory("halo", 15)
	if err != nil {
		t.Fatal(err)
	}
	var base [][]byte
	for _, p := range []windar.Protocol{windar.TDI, windar.TAG, windar.TEL} {
		cfg := baseConfig(4, p)
		cfg.EventLoggerLatency = 100 * time.Microsecond
		c := runToCompletion(t, cfg, f, nil)
		states := make([][]byte, 4)
		for r := range states {
			states[r] = c.AppSnapshot(r)
		}
		if base == nil {
			base = states
			continue
		}
		for r := range states {
			if !bytes.Equal(base[r], states[r]) {
				t.Fatalf("%s rank %d disagrees with TDI", p, r)
			}
		}
	}
}

func TestPublicAPIErrors(t *testing.T) {
	if _, err := windar.NewCluster(windar.Config{Procs: 2}, nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := windar.NPBFactory("nope", 8, 1); err == nil {
		t.Fatal("bad benchmark accepted")
	}
	if _, err := windar.WorkloadFactory("nope", 1); err == nil {
		t.Fatal("bad workload accepted")
	}
	if _, err := windar.NewCluster(windar.Config{}, func(rank, n int) windar.App { return nil }); err == nil {
		t.Fatal("Procs=0 accepted")
	}
}
