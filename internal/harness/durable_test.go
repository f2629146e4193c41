package harness

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/trace"
	"windar/internal/vclock"
	"windar/layer"
)

func diskBackend(t *testing.T, dir string) *stable.Disk {
	t.Helper()
	d, err := stable.OpenDisk(stable.DiskOptions{Dir: dir, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	return d
}

// waitDurableCheckpoints blocks until every rank has a durable checkpoint
// at or past step, then returns. Fails the test after 30s.
func waitDurableCheckpoints(t *testing.T, c *Cluster, step int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		all := true
		for rank := 0; rank < c.cfg.N; rank++ {
			cp, ok, err := c.ckpts.LoadDurable(rank)
			if err != nil {
				t.Fatalf("LoadDurable(%d): %v", rank, err)
			}
			if !ok || cp.Step < step {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for durable checkpoints")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStartFromStableResumesAfterAbruptStop is the in-process half of the
// durability story: a cluster over a disk backend is torn down mid-run
// (Close kills every rank, exactly the state a SIGKILL leaves on disk
// minus un-fsynced lazy appends), and a second cluster over the same
// directory resumes with StartFromStable. The resumed run must converge
// to the fault-free final state and pass full trace validation against
// the seeded checkpoint baselines. The process-level SIGKILL version of
// this test lives in internal/chaos (restart runner).
func TestStartFromStableResumesAfterAbruptStop(t *testing.T) {
	for _, p := range []ProtocolKind{TDI, TAG, TEL} {
		t.Run(string(p), func(t *testing.T) {
			const n, steps = 4, 120
			want := run(t, testConfig(n, p), ringFactory(steps), nil)

			dir := t.TempDir()
			cfg := testConfig(n, p)
			cfg.Stable = diskBackend(t, dir)
			cfg.DurableLogs = true
			c, err := NewCluster(cfg, ringFactory(steps))
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			if err := c.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			waitDurableCheckpoints(t, c, 10)
			c.Close() // abrupt: ranks die mid-run, disk state stays

			rec := &trace.Recorder{}
			cfg2 := testConfig(n, p)
			cfg2.Stable = diskBackend(t, dir)
			cfg2.DurableLogs = true
			cfg2.Observer = rec
			c2, err := NewCluster(cfg2, ringFactory(steps))
			if err != nil {
				t.Fatalf("NewCluster(resume): %v", err)
			}
			defer c2.Close()
			if err := c2.StartFromStable(); err != nil {
				t.Fatalf("StartFromStable: %v", err)
			}
			done := make(chan struct{})
			go func() { c2.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("resumed cluster did not complete")
			}
			for rank := 0; rank < n; rank++ {
				if got := c2.AppSnapshot(rank); !bytes.Equal(got, want[rank]) {
					t.Errorf("rank %d: resumed state %x, fault-free %x", rank, got, want[rank])
				}
			}
			for _, pr := range rec.Validate(true) {
				t.Errorf("trace: %v", pr)
			}
			for _, pr := range rec.CheckInvariants() {
				t.Errorf("invariant: %v", pr)
			}
		})
	}
}

// TestStartFromStableFreshDir: with nothing durable yet, every rank
// restores the initial state and the run reaches Start's final states.
func TestStartFromStableFreshDir(t *testing.T) {
	const n, steps = 3, 20
	want := run(t, testConfig(n, TDI), ringFactory(steps), nil)

	cfg := testConfig(n, TDI)
	cfg.Stable = diskBackend(t, t.TempDir())
	c, err := NewCluster(cfg, ringFactory(steps))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	if err := c.StartFromStable(); err != nil {
		t.Fatalf("StartFromStable: %v", err)
	}
	done := make(chan struct{})
	go func() { c.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster did not complete")
	}
	for rank := 0; rank < n; rank++ {
		if got := c.AppSnapshot(rank); !bytes.Equal(got, want[rank]) {
			t.Errorf("rank %d: state %x, want %x", rank, got, want[rank])
		}
	}
}

// TestDurableLogsBoundStore is the release soak: with DurableLogs on,
// what the stable store holds (mirrored sender-log items, TEL
// determinants, checkpoint blobs) must stay bounded by the checkpoint
// interval — log release must truncate the slog/ streams and delete the
// tel/ keys — rather than grow with run length. The store is measured
// once every release the final checkpoints owe has landed (see
// settleReleases), so the bound does not depend on how many
// CHECKPOINT_ADVANCEs were still in flight when Wait returned.
func TestDurableLogsBoundStore(t *testing.T) {
	for _, p := range []ProtocolKind{TDI, TEL} {
		t.Run(string(p), func(t *testing.T) {
			lens := make(map[int]int)
			for _, steps := range []int{40, 160} {
				cfg := testConfig(4, p)
				cfg.DurableLogs = true
				c, err := NewCluster(cfg, ringFactory(steps))
				if err != nil {
					t.Fatalf("NewCluster: %v", err)
				}
				if err := c.Start(); err != nil {
					t.Fatalf("Start: %v", err)
				}
				done := make(chan struct{})
				go func() { c.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(60 * time.Second):
					t.Fatal("cluster did not complete")
				}
				settleReleases(t, c)
				lens[steps] = c.Store().Len()
				for _, names := range c.slogNames {
					for _, name := range names {
						c.Store().Scan(name, func(int64, []byte) error {
							lens[steps]++
							return nil
						})
					}
				}
				c.Close()
			}
			// The 4x-longer run may retain a little more (the final
			// checkpoints land at different points of the cycle), but
			// anything near-linear in steps means release is broken.
			t.Logf("stable store: %d objects at 40 steps, %d at 160", lens[40], lens[160])
			if lens[160] > 2*lens[40]+16 {
				t.Errorf("stable store grew with run length: %d objects at 40 steps, %d at 160", lens[40], lens[160])
			}
			if lens[160] == 0 {
				t.Error("expected a durable mirror to retain some objects")
			}
		})
	}
}

// settleReleases waits, after Wait, until every rank's newest staged
// checkpoint is durable and every channel's slog/ stream is truncated to
// what its destination's newest checkpoint covers — the last step of
// handling a CHECKPOINT_ADVANCE, after the log release and the protocol's
// pruning — and then until the TEL event logger has served every request
// queued before, so no determinant lands after the count.
func settleReleases(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second) //windar:allow directclock — test deadline
	for !releasesSettled(t, c) {
		if time.Now().After(deadline) { //windar:allow directclock — test deadline
			t.Fatal("checkpoint releases never settled")
		}
		time.Sleep(time.Millisecond) //windar:allow directclock — polling interval
	}
	if c.telLog != nil {
		served := make(chan struct{})
		c.telLog.LogAsync(nil, func(vclock.Vec) { close(served) })
		<-served
	}
}

func releasesSettled(t *testing.T, c *Cluster) bool {
	for dest := 0; dest < c.cfg.N; dest++ {
		staged, ok, err := c.ckpts.Load(dest)
		if err != nil {
			t.Fatalf("rank %d checkpoint: %v", dest, err)
		}
		if !ok {
			continue
		}
		durable, _, err := c.ckpts.LoadDurable(dest)
		if err != nil {
			t.Fatalf("rank %d durable checkpoint: %v", dest, err)
		}
		if durable == nil || durable.Step != staged.Step {
			return false
		}
		for src := 0; src < c.cfg.N; src++ {
			if src == dest {
				continue
			}
			covered, settled := staged.LastDeliverIndex[src], true
			c.Store().Scan(c.slogNames[src][dest], func(seq int64, _ []byte) error {
				settled = settled && seq > covered
				return nil
			})
			if !settled {
				return false
			}
		}
	}
	return true
}

// TestDurableLogsFollowRollbacks runs kill/recover cycles with durable
// logs on: every incarnation restores its sender log from the streams,
// rewinds them to its send frontier and re-appends what it re-executes,
// so the run must converge to the fault-free state and, once it has, each
// stream must hold exactly the rank's in-memory log for that channel —
// same send indices, same bytes.
func TestDurableLogsFollowRollbacks(t *testing.T) {
	const n, steps = 4, 150
	want := run(t, testConfig(n, TDI), ringFactory(steps), nil)
	t.Run("sim", func(t *testing.T) { durableLogsFollowRollbacks(t, nil, want) })
	t.Run("disk", func(t *testing.T) { durableLogsFollowRollbacks(t, diskBackend(t, t.TempDir()), want) })
}

func durableLogsFollowRollbacks(t *testing.T, backend stable.Backend, want [][]byte) {
	const n, steps = 4, 150
	cfg := testConfig(n, TDI)
	cfg.Stable = backend
	cfg.DurableLogs = true
	c, err := NewCluster(cfg, ringFactory(steps))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for _, victim := range []int{1, 2, 1} {
		time.Sleep(4 * time.Millisecond)
		if err := c.KillAndRecover(victim, time.Millisecond); err != nil {
			t.Fatalf("KillAndRecover(%d): %v", victim, err)
		}
	}
	c.Wait()
	for rank := 0; rank < n; rank++ {
		if got := c.AppSnapshot(rank); !bytes.Equal(got, want[rank]) {
			t.Errorf("rank %d: state %x, fault-free %x", rank, got, want[rank])
		}
	}
	// A release's durable half trails its in-memory half (it runs outside
	// the rank lock), so give the last ones a moment to land.
	mirrorDiff := func() string {
		for rank, r := range c.ranks {
			for dest, name := range c.slogNames[rank] {
				if dest == rank {
					continue
				}
				r.mu.Lock()
				mem := r.log.ItemsFor(dest, 0)
				r.mu.Unlock()
				i := 0
				diff := ""
				err := c.Store().Scan(name, func(seq int64, data []byte) error {
					if i < len(mem) && diff == "" && (mem[i].SendIndex != seq || !bytes.Equal(proto.AppendLogItem(nil, &mem[i]), data)) {
						diff = fmt.Sprintf("%s entry %d differs from the logged send %d", name, seq, mem[i].SendIndex)
					}
					i++
					return nil
				})
				if err != nil || i != len(mem) {
					diff = fmt.Sprintf("%s holds %d entries, the sender log %d (err %v)", name, i, len(mem), err)
				}
				if diff != "" {
					return diff
				}
			}
		}
		return ""
	}
	deadline := time.Now().Add(5 * time.Second)
	for diff := mirrorDiff(); diff != ""; diff = mirrorDiff() {
		if time.Now().After(deadline) {
			t.Fatal(diff)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendSpanLog is a SpanObserver keeping every send's span context,
// original sends and log resends apart.
type sendSpanLog struct {
	nopObserver
	mu     sync.Mutex
	sent   map[[3]int64]layer.SpanContext // (rank, dest, send index)
	resent map[[3]int64]layer.SpanContext
}

func newSendSpanLog() *sendSpanLog {
	return &sendSpanLog{sent: map[[3]int64]layer.SpanContext{}, resent: map[[3]int64]layer.SpanContext{}}
}

func (l *sendSpanLog) OnSendSpan(rank, dest int, idx int64, resent bool, span layer.SpanContext) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if resent {
		l.resent[[3]int64{int64(rank), int64(dest), idx}] = span
	} else {
		l.sent[[3]int64{int64(rank), int64(dest), idx}] = span
	}
}

func (*sendSpanLog) OnDeliverSpan(int, int, int64, int64, int64, layer.SpanContext) {}

// lateRankZero checkpoints rank 0 once before step 20 and every other
// rank once before step 10, so after a restart rank 0's restored sender
// log holds sends 11..20 that rank 1's restored state has not delivered.
type lateRankZero struct{}

func (lateRankZero) ShouldCheckpoint(rank, step int) bool {
	return (rank == 0 && step == 20) || (rank != 0 && step == 10)
}

// TestRestartResendKeepsCausalIdentity: a sender log rebuilt from the
// slog/ streams by a new process must resend each message under the
// span context the original send carried — trace, span and causal
// parent. (The stream codec once dropped Parent.)
func TestRestartResendKeepsCausalIdentity(t *testing.T) {
	const n, steps = 3, 30
	want := run(t, testConfig(n, TDI), ringFactory(steps), nil)
	dir := t.TempDir()
	runOnce := func(resume bool) *sendSpanLog {
		spans := newSendSpanLog()
		cfg := testConfig(n, TDI)
		cfg.CheckpointPolicy = lateRankZero{}
		cfg.Stable = diskBackend(t, dir)
		cfg.DurableLogs = true
		cfg.SpanTracing = true
		cfg.Observer = spans
		c, err := NewCluster(cfg, ringFactory(steps))
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		defer c.Close() // waits for the checkpoint writers: what was taken is durable
		start := c.Start
		if resume {
			start = c.StartFromStable
		}
		if err := start(); err != nil {
			t.Fatalf("start (resume=%v): %v", resume, err)
		}
		done := make(chan struct{})
		go func() { c.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("cluster (resume=%v) did not complete", resume)
		}
		for rank := 0; rank < n; rank++ {
			if got := c.AppSnapshot(rank); !bytes.Equal(got, want[rank]) {
				t.Errorf("resume=%v rank %d: state %x, fault-free %x", resume, rank, got, want[rank])
			}
		}
		return spans
	}
	first := runOnce(false)
	second := runOnce(true)

	fromStreams, withParent := 0, 0
	for key, got := range second.resent {
		if _, regenerated := second.sent[key]; regenerated {
			continue // sent anew by the second process and resent from memory
		}
		// The second process never made this send: the resent item can
		// only have been rebuilt from the first process's streams.
		fromStreams++
		orig, ok := first.sent[key]
		if !ok {
			t.Errorf("resend %v has no original send in the first process", key)
			continue
		}
		if got != orig {
			t.Errorf("resend %v carries span %+v, the original send carried %+v", key, got, orig)
		}
		if got.Parent != 0 {
			withParent++
		}
	}
	// Rank 0's sends 11..20 to rank 1, each caused by a delivery.
	if fromStreams < 10 || withParent < 10 {
		t.Fatalf("%d resends rebuilt from the streams, %d with a causal parent; want at least 10 of each", fromStreams, withParent)
	}
}
