package harness

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/fabric"
	"windar/internal/proto"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// leasePayload is what rank sends at step s in the lease tests: 96
// bytes, so a sender-log chunk holds ~150 records, or 1 KiB from
// leaseVictim, whose chunks fill every ~15 steps.
func leasePayload(rank, s int) []byte {
	b := make([]byte, 96)
	if rank == leaseVictim {
		b = make([]byte, 1024)
	}
	x := uint64(rank)<<32 | uint64(s)
	for i := 0; i < len(b); i += 8 {
		x = x*0x9E3779B97F4A7C15 + 1
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}

// leaseApp is a ring of leasePayload messages: every delivery is checked
// against what its sender sent at that step, resends included. The
// victim publishes each step it begins.
type leaseApp struct {
	rank, n, steps int
	sum            uint64
	wrong, step    *atomic.Int64
}

func (a *leaseApp) Steps() int { return a.steps }

func (a *leaseApp) Step(env app.Env, s int) {
	if a.rank == leaseVictim {
		a.step.Store(int64(s))
	}
	env.Send((a.rank+1)%a.n, 0, leasePayload(a.rank, s))
	left := (a.rank - 1 + a.n) % a.n
	data, _ := env.Recv(left, 0)
	if !bytes.Equal(data, leasePayload(left, s)) {
		a.wrong.Add(1)
	}
	a.sum = a.sum*31 + du64(data)
}

func (a *leaseApp) Snapshot() []byte { return u64(a.sum) }

func (a *leaseApp) Restore(b []byte) error {
	a.sum = du64(b)
	return nil
}

// badLeaseRecords counts the records of v, a view of rank's sender log
// in a leaseApp ring of n, that are not what rank sent or not where the
// view says: a ring send with send index s+1 carries leasePayload(rank,
// s), and the view holds consecutive send indices, each run ending at
// its Last after N records. Records are all one size, so a rewritten
// chunk still decodes; only its indices give it away.
func badLeaseRecords(v proto.LogView, rank, n int) int {
	bad, next := 0, int64(-1)
	for _, run := range v.Runs {
		k := 0
		for b := run.Recs; len(b) > 0; k++ {
			var it proto.LogItem
			size, err := proto.DecodeLogItem(&it, b)
			if err != nil {
				bad += run.N - k
				break
			}
			if it.Dest != (rank+1)%n || (next >= 0 && it.SendIndex != next) ||
				!bytes.Equal(it.Payload, leasePayload(rank, int(it.SendIndex-1))) {
				bad++
			}
			next = it.SendIndex + 1
			b = b[size:]
		}
		if k != run.N || next-1 != run.Last {
			bad++
		}
	}
	return bad
}

// restoredLogCheck checks, at every recovery, the sender log the new
// incarnation restored before anything has touched it.
type restoredLogCheck struct {
	nopObserver
	c                   atomic.Pointer[Cluster]
	recoveries, badRecs atomic.Int64
}

func (o *restoredLogCheck) OnRecover(rank, _ int) {
	c := o.c.Load()
	c.ranksMu.Lock()
	r := c.ranks[rank]
	c.ranksMu.Unlock()
	r.mu.Lock()
	v := r.log.View()
	o.badRecs.Add(int64(badLeaseRecords(v, rank, r.n)))
	v.Release()
	r.mu.Unlock()
	o.recoveries.Add(1)
}

// leaseVictim is the rank TestChunkLeasesSurviveKillRecover kills.
const leaseVictim = 2

// leasedView is a view of a rank's sender log the test holds, with the
// copy it must equal until its release.
type leasedView struct {
	r       *rankRuntime
	v, want proto.LogView
}

// TestChunkLeasesSurviveKillRecover kills and recovers rank 2 of a ring
// again and again while every rank keeps checkpointing, releasing and
// reusing sender-log chunks. Every delivery — resends included — equals
// what was sent, and so does every record of every restored log and of
// views the test takes of each rank's log and releases in random order;
// each view stays as taken until its release. Reuse must really happen:
// some released view's bytes are later rewritten by its log. A
// checkpoint job released while still staged, a view taken without a
// lease or a log reclaiming chunks views still hold shows as a wrong
// record; a job never released shows as no reuse.
func TestChunkLeasesSurviveKillRecover(t *testing.T) {
	const steps, kills, victim = 6000, 6, leaseVictim
	var wrong, step atomic.Int64
	factory := func(rank, n int) app.App {
		return &leaseApp{rank: rank, n: n, steps: steps, wrong: &wrong, step: &step}
	}
	cfg := testConfig(3, TDI)
	// Every rank checkpoints each ckptEvery steps, at its own offset, so a
	// checkpoint's view always holds the records its receiver has not yet
	// covered, and every survivor chunk (~150 steps of records) is in
	// some checkpoint's view. The victim's receiver checkpoints 10 steps
	// after the victim: it releases most chunks of the victim's staged
	// view then, and the victim's next fresh chunks reuse them well
	// before its next checkpoint, unless the staged view holds them.
	const ckptEvery = 100
	offset := [3]int{0, 37, 10}
	cfg.CheckpointPolicy = policyFunc(func(rank, step int) bool { return step > 0 && (step+offset[rank])%ckptEvery == 0 })
	cfg.Fabric = fabric.Config{} // zero latency: thousands of steps in well under a second
	clean := run(t, cfg, factory, nil)
	check := &restoredLogCheck{}
	cfg.Observer = check
	rng := rand.New(rand.NewSource(1))
	var held, released []leasedView
	var badViews, changed, reused int
	sample := func(c *Cluster) {
		for rank := 0; rank < cfg.N; rank++ {
			if rank == victim {
				continue // a lease of the test's would keep the victim's staged chunks from reuse
			}
			c.ranksMu.Lock()
			r := c.ranks[rank]
			c.ranksMu.Unlock()
			r.mu.Lock()
			v := r.log.View()
			r.mu.Unlock()
			badViews += badLeaseRecords(v, rank, cfg.N)
			held = append(held, leasedView{r: r, v: v, want: cloneView(v)})
		}
		for len(held) > 6 {
			i := rng.Intn(len(held))
			h := held[i]
			if !sameLogView(h.v, h.want) {
				changed++
			}
			h.v.Release()
			released = append(released, h)
			held = append(held[:i], held[i+1:]...)
		}
	}
	step.Store(0)
	faulty := run(t, cfg, factory, func(c *Cluster) {
		check.c.Store(c)
		deadline := time.Now().Add(60 * time.Second)
		progress := func(target int64) bool {
			for step.Load() < target {
				if time.Now().After(deadline) {
					t.Error("victim made no progress")
					return false
				}
				sample(c)
				time.Sleep(200 * time.Microsecond)
			}
			return true
		}
		for k := 1; k <= kills; k++ {
			if !progress(int64(k*steps/(kills+2) + rng.Intn(ckptEvery))) {
				return
			}
			if err := c.KillAndRecover(victim, 0); err != nil {
				t.Errorf("KillAndRecover(%d): %v", victim, err)
				return
			}
		}
		if !progress(steps * 9 / 10) {
			return
		}
		for _, h := range held {
			if !sameLogView(h.v, h.want) {
				changed++
			}
			h.v.Release()
			released = append(released, h)
		}
		// Appends write under the rank lock, so the released bytes are
		// read under it too. Every chunk of the survivors' was in a
		// checkpoint's view, and a job that kept its lease would keep the
		// chunk from ever being reused.
		for _, h := range released {
			h.r.mu.Lock()
			if !sameLogView(h.v, h.want) {
				reused++
			}
			h.r.mu.Unlock()
		}
	})
	assertSameStates(t, clean, faulty, "lease kill/recover")
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d deliveries differ from what was sent", n)
	}
	if n := check.badRecs.Load(); n != 0 {
		t.Errorf("%d records of %d restored logs differ from what was sent", n, check.recoveries.Load())
	}
	if check.recoveries.Load() != kills {
		t.Errorf("%d recoveries, want %d", check.recoveries.Load(), kills)
	}
	if badViews != 0 {
		t.Errorf("%d records of the views taken differ from what was sent", badViews)
	}
	if changed != 0 {
		t.Errorf("%d views changed before their release", changed)
	}
	if reused == 0 {
		t.Errorf("none of %d released views was ever reused by its log", len(released))
	}
}

// sameLogView reports whether v still holds what its deep copy want
// held: each run's destination, record count, last index and bytes.
func sameLogView(v, want proto.LogView) bool {
	if v.Count != want.Count || len(v.Runs) != len(want.Runs) {
		return false
	}
	for i, r := range v.Runs {
		w := want.Runs[i]
		if r.Dest != w.Dest || r.N != w.N || r.Last != w.Last || !bytes.Equal(r.Recs, w.Recs) {
			return false
		}
	}
	return true
}

// walkChurn records rank 0's resends and, at the first, releases every
// record it logged and appends as many to another destination, so that a
// log free to reuse the walk's chunks would write over the records the
// walk has yet to send.
type walkChurn struct {
	nopObserver
	churn func()
	once  sync.Once
	mu    sync.Mutex
	sent  []int64
}

func (o *walkChurn) OnSend(rank, dest int, sendIndex int64, resent bool) {
	if rank != 0 || !resent {
		return
	}
	o.mu.Lock()
	o.sent = append(o.sent, sendIndex)
	o.mu.Unlock()
	o.once.Do(o.churn)
}

// TestResendWalkHoldsItsLease drives handleRollback over a log of several
// chunks and, once the walk has sent its first record, has the log
// release and reuse every chunk it can. The resend walks its view after
// the rank lock is dropped; its lease must keep every record it has yet
// to send as logged, so the resends are exactly the logged indices.
func TestResendWalkHoldsItsLease(t *testing.T) {
	const records = 600
	obs := &walkChurn{}
	c, err := NewCluster(Config{N: 2, Observer: obs}, func(rank, n int) app.App { return probeApp{} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Wait()
	c.ranksMu.Lock()
	r := c.ranks[0]
	c.ranksMu.Unlock()
	r.mu.Lock()
	for i := 1; i <= records; i++ {
		r.log.Append(proto.LogItem{Dest: 1, SendIndex: int64(i), Payload: leasePayload(0, i-1)})
	}
	r.mu.Unlock()
	obs.churn = func() {
		r.mu.Lock()
		r.log.Release(1, records)
		for i := 1; i <= records; i++ {
			r.log.Append(proto.LogItem{Dest: 5, SendIndex: 1<<20 + int64(i), Payload: leasePayload(5, i)})
		}
		r.mu.Unlock()
	}
	r.handleRollback(&wire.Envelope{
		Kind: wire.KindRollback, From: 1, To: 0,
		Payload: encodeRollback(0, vclock.Vec{0, 0}, vclock.Vec{0, 0}),
	})
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.sent) != records {
		t.Fatalf("the walk resent %d records, want %d", len(obs.sent), records)
	}
	for i, idx := range obs.sent {
		if idx != int64(i+1) {
			t.Fatalf("resend %d carried send index %d, want %d: the walk read a reused chunk", i, idx, i+1)
		}
	}
}
