package harness

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/ckpt"
	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/wire"
)

// gatedBackend holds every checkpoint-image Put at a gate: entered
// reports that a Save has reached the store, and the Save proceeds only
// once the test sends on release. With both channels nil the gate holds
// every image Put until lifted.
type gatedBackend struct {
	stable.Backend
	entered, release chan struct{}
	// lifted is closed at test end so a failed test's writer can drain.
	lifted    chan struct{}
	imagePuts atomic.Int64

	mu      sync.Mutex
	putsPer map[string]int // image Puts by key, when non-nil
	images  [][]byte       // copies of the image Puts, in order
}

func (g *gatedBackend) Put(key string, data []byte) error {
	if strings.HasPrefix(key, "ckpt/") {
		g.imagePuts.Add(1)
		g.mu.Lock()
		if g.putsPer != nil {
			g.putsPer[key]++
		}
		g.images = append(g.images, bytes.Clone(data))
		g.mu.Unlock()
		select {
		case g.entered <- struct{}{}:
			select {
			case <-g.release:
			case <-g.lifted:
			}
		case <-g.lifted:
		}
	}
	return g.Backend.Put(key, data)
}

// TestCheckpointWriterSkipsSupersededSnapshots drives one rank's real
// doCheckpoint and checkpoint writer against a blocked store. A first
// checkpoint's Save is held inside the store; three more checkpoints
// queue behind it. Once the store unblocks, the three cost exactly one
// Save — of the newest — and its announcement carries every skipped
// checkpoint's advances at their maximum, never before that Save landed.
func TestCheckpointWriterSkipsSupersededSnapshots(t *testing.T) {
	gate := &gatedBackend{
		Backend: stable.NewSim(),
		entered: make(chan struct{}), release: make(chan struct{}), lifted: make(chan struct{}),
	}
	c, err := NewCluster(Config{N: 3, Stable: gate}, func(rank, n int) app.App { return probeApp{} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.newRuntime(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.ckptWG.Add(1)
	go r.ckptWriterLoop()
	defer func() { // runs before Close, which waits for the writer
		close(gate.lifted)
		r.kill()
	}()

	type advance struct {
		to           int
		count, total int64
	}
	got := make(chan advance, 16) // roomy: the peers' readers must never block the test
	for peer := 1; peer <= 2; peer++ {
		in := c.tr.Inbox(peer)
		go func() {
			for {
				env, ok := in.Recv()
				if !ok {
					return
				}
				if env.Kind != wire.KindCkptAdvance {
					t.Errorf("peer %d received %v", env.To, env.Kind)
					continue
				}
				count, total, err := decodeCkptAdvance(env.Payload)
				if err != nil {
					t.Error(err)
				}
				got <- advance{env.To, count, total}
			}
		}()
	}
	checkpoint := func(step int, delivered map[int]int64) {
		r.mu.Lock()
		for src, idx := range delivered {
			r.deliveredCount += idx - r.lastDeliverIndex[src]
			r.lastDeliverIndex[src] = idx
		}
		r.mu.Unlock()
		r.doCheckpoint(step)
	}
	await := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	receive := func(n int) []advance {
		t.Helper()
		var out []advance
		for len(out) < n {
			select {
			case a := <-got:
				out = append(out, a)
			case <-time.After(10 * time.Second):
				t.Fatalf("timed out after %d of %d advances: %+v", len(out), n, out)
			}
		}
		return out
	}
	noneYet := func(when string) {
		t.Helper()
		select {
		case a := <-got:
			t.Fatalf("%s: advance %+v announced before its covering Save returned", when, a)
		default:
		}
	}

	checkpoint(1, map[int]int64{1: 2})
	await("the first Save to reach the store", gate.entered)
	checkpoint(2, map[int]int64{1: 5, 2: 3}) // superseded
	checkpoint(3, map[int]int64{1: 9})       // superseded
	checkpoint(4, nil)                       // the newest: nothing new to announce on its own
	noneYet("store blocked")

	gate.release <- struct{}{}
	if first := receive(1); first[0] != (advance{to: 1, count: 2, total: 2}) {
		t.Fatalf("first checkpoint announced %+v", first[0])
	}
	await("the merged Save to reach the store", gate.entered)
	noneYet("merged Save in flight")
	if cp, ok, err := c.ckpts.LoadDurable(0); err != nil || !ok || cp.Step != 1 {
		t.Fatalf("durable checkpoint while the merged Save is held: %+v %v %v", cp, ok, err)
	}

	gate.release <- struct{}{}
	merged := receive(2)
	if merged[0].to > merged[1].to {
		merged[0], merged[1] = merged[1], merged[0]
	}
	want := []advance{{to: 1, count: 9, total: 12}, {to: 2, count: 3, total: 12}}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged announcement %+v, want %+v", merged, want)
	}
	if cp, ok, err := c.ckpts.LoadDurable(0); err != nil || !ok || cp.Step != 4 {
		t.Fatalf("durable checkpoint after the merged Save: %+v %v %v", cp, ok, err)
	}
	if n := gate.imagePuts.Load(); n != 2 {
		t.Fatalf("%d Saves reached the store for 4 checkpoints, want 2 (the held one, then one for the three queued)", n)
	}
	noneYet("after the merged announcement")
}

// TestDeliveryNeverWaitsOnCheckpointSave runs a ring whose every rank
// checkpoints every other step over a store that holds each checkpoint
// image Put for the whole run. Delivery must not notice: the run
// finishes while the first Saves are still held, each rank's writer has
// put at most one image, and once the store unblocks every rank's
// newest checkpoint becomes durable. A Save on the application's path
// would park the first checkpointing rank, and the ring with it.
func TestDeliveryNeverWaitsOnCheckpointSave(t *testing.T) {
	const n, steps = 4, 40
	gate := &gatedBackend{
		Backend: stable.NewSim(),
		lifted:  make(chan struct{}),
		putsPer: map[string]int{},
	}
	lift := sync.OnceFunc(func() { close(gate.lifted) })
	c, err := NewCluster(Config{
		N:               n,
		Protocol:        TDI,
		CheckpointEvery: 2,
		DurableLogs:     true,
		Stable:          gate,
		Transport:       testTransport(),
	}, ringFactory(steps))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer lift() // runs before Close, which waits for the writers
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		c.Wait()
		close(done)
	}()
	// A live hold (TDI waiting on a dependency, not a roll-forward) also
	// stalls the ring; name it rather than blame the held store. Failing
	// here cannot hang: the deferred lift runs before Close.
	deadline := time.After(10 * time.Second)
	poll := time.NewTicker(10 * time.Millisecond)
	defer poll.Stop()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		case <-deadline:
			t.Fatalf("run did not finish with every checkpoint Save held: delivery waits on stable storage")
		case <-poll.C:
			if h := c.Metrics().Total().LiveHolds; h != 0 {
				t.Fatalf("%d live holds: a rank held an in-order head outside a roll-forward", h)
			}
		}
	}
	if h := c.Health(); !h.Finished {
		t.Fatalf("Wait returned with unfinished ranks: %+v", h)
	}
	assertNoLiveHolds(t, c)
	gate.mu.Lock()
	for key, puts := range gate.putsPer {
		if puts > 1 {
			t.Errorf("%d image Puts of %s reached the held store, want at most 1", puts, key)
		}
	}
	gate.mu.Unlock()

	lift()
	for rank := 0; rank < n; rank++ {
		newest, ok, err := c.ckpts.Load(rank)
		if err != nil || !ok {
			t.Fatalf("rank %d staged no checkpoint: %v", rank, err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			cp, ok, err := c.ckpts.LoadDurable(rank)
			if err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
			if ok && cp.Step == newest.Step {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("rank %d: durable checkpoint %+v after the gate lifted, want step %d", rank, cp, newest.Step)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestSupersedeKeepsPerDestinationMaximum(t *testing.T) {
	jobs := []*ckptJob{
		{total: 10, advances: []ckptAdvance{{dest: 1, count: 7}, {dest: 3, count: 4}}},
		{total: 20, advances: []ckptAdvance{{dest: 2, count: 6}}},
		{total: 30, advances: []ckptAdvance{{dest: 1, count: 5}}}, // lower than the older 7: max wins
	}
	// Each job waits for the writer until the next one supersedes it.
	supersede(jobs[1], jobs[0])
	supersede(jobs[2], jobs[1])
	got := jobs[2]
	byDest := map[int]int64{}
	for _, a := range got.advances {
		if _, dup := byDest[a.dest]; dup {
			t.Fatalf("destination %d announced twice: %+v", a.dest, got.advances)
		}
		byDest[a.dest] = a.count
	}
	if want := map[int]int64{1: 7, 2: 6, 3: 4}; got.total != 30 || !reflect.DeepEqual(byDest, want) {
		t.Fatalf("supersede = total %d advances %v, want total 30 advances %v", got.total, byDest, want)
	}
}

// TestStagedCheckpointsStayImmutable holds rank 0's writer inside a Save
// while the rank takes more checkpoints, each changing every field the
// cycle refills in place: counters, protocol state, sender log and
// advances. A checkpoint must encode to the bytes it was taken with for
// as long as it is staged, waiting or being saved, and the store must
// receive exactly those bytes. Only once a newer one is staged and the
// writer has saved it, or the newer one superseded it while it waited,
// may the cycle refill it — never the one still staged, even with the
// writer idle.
func TestStagedCheckpointsStayImmutable(t *testing.T) {
	gate := &gatedBackend{
		Backend: stable.NewSim(),
		entered: make(chan struct{}), release: make(chan struct{}), lifted: make(chan struct{}),
	}
	c, err := NewCluster(Config{N: 3, Stable: gate}, func(rank, n int) app.App { return probeApp{} })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.newRuntime(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.ckptWG.Add(1)
	go r.ckptWriterLoop()
	defer func() { // runs before Close, which waits for the writer
		close(gate.lifted)
		r.kill()
	}()
	for peer := 1; peer <= 2; peer++ {
		in := c.tr.Inbox(peer)
		go func() {
			for {
				env, ok := in.Recv()
				if !ok {
					return
				}
				wire.Recycle(env)
			}
		}()
	}

	type taken struct {
		cp   *ckpt.Checkpoint
		blob []byte
	}
	var all []taken
	checkpoint := func(step int) *ckpt.Checkpoint {
		t.Helper()
		r.mu.Lock()
		r.lastDeliverIndex[1] += int64(step)
		r.deliveredCount += int64(step)
		r.lastSendIndex[2]++
		r.log.Append(proto.LogItem{Dest: 2, SendIndex: r.lastSendIndex[2], Payload: []byte{byte(step)}})
		r.mu.Unlock()
		r.doCheckpoint(step)
		cp, ok, err := c.ckpts.Load(0)
		if err != nil || !ok || cp.Step != step {
			t.Fatalf("step %d: staged checkpoint %+v, %v, %v", step, cp, ok, err)
		}
		if len(all) > 0 && all[len(all)-1].cp == cp {
			t.Fatalf("step %d refilled the checkpoint of step %d while it was staged", step, step-1)
		}
		blob, err := ckpt.Encode(cp)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, taken{cp, blob})
		return cp
	}
	unchanged := func(when string, steps ...int) {
		t.Helper()
		for _, step := range steps {
			tk := all[step-1]
			if blob, err := ckpt.Encode(tk.cp); err != nil || !bytes.Equal(blob, tk.blob) {
				t.Fatalf("%s: checkpoint of step %d changed before it was released", when, step)
			}
		}
	}
	await := func(what string) {
		t.Helper()
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}

	checkpoint(1)
	await("the Save of step 1")
	for step := 2; step <= 5; step++ {
		checkpoint(step)
		unchanged("step 1 held in its Save", 1, step)
	}
	gate.release <- struct{}{}
	await("the Save of step 5, which superseded steps 2-4")
	unchanged("step 5 held in its Save", 5)
	checkpoint(6)
	unchanged("step 5 held, step 6 waiting", 5, 6)
	gate.release <- struct{}{}
	await("the Save of step 6")
	refilled := checkpoint(7)
	unchanged("step 6 held, step 7 waiting", 6, 7)
	if !slices.ContainsFunc(all[:4], func(tk taken) bool { return tk.cp == refilled }) {
		t.Errorf("step 7 did not refill a released checkpoint")
	}
	gate.release <- struct{}{}
	await("the Save of step 7")
	lastFreed := func() *ckptJob {
		r.ckptMu.Lock()
		defer r.ckptMu.Unlock()
		if len(r.ckptFree) == 0 {
			return nil
		}
		return r.ckptFree[len(r.ckptFree)-1]
	}
	before := lastFreed()
	gate.release <- struct{}{}
	for deadline := time.Now().Add(10 * time.Second); lastFreed() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writer never finished the Save of step 7")
		}
	}
	// The writer is idle and step 7 is staged: step 8 must not refill it.
	checkpoint(8)
	unchanged("step 7 saved, step 8 waiting", 7, 8)

	gate.mu.Lock()
	defer gate.mu.Unlock()
	for i, step := range []int{1, 5, 6, 7} {
		if !bytes.Equal(gate.images[i], all[step-1].blob) {
			t.Errorf("image Put %d differs from the checkpoint of step %d as it was taken", i, step)
		}
	}
}
