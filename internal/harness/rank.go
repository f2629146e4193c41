package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"windar/internal/app"
	"windar/internal/ckpt"
	"windar/internal/metrics"
	"windar/internal/obs"
	"windar/internal/proto"
	"windar/internal/transport"
	"windar/internal/vclock"
	"windar/internal/wire"
	"windar/layer"
)

// killedPanic unwinds an application goroutine whose rank was killed. It
// is thrown by Env methods and swallowed by the app-loop wrapper — the
// in-process analogue of the process dying.
type killedPanic struct{}

// rankRuntime is one incarnation of one rank: protocol instance, sender
// log, counter vectors, receiving queue, and the goroutines of Fig. 4.
type rankRuntime struct {
	c           *Cluster
	id          int
	n           int
	incarnation int32

	// mu guards every field below it, the protocol instance, and the
	// log. cond is signalled when delivery conditions may have changed
	// (new arrival, RESPONSE processed, kill).
	mu   sync.Mutex
	cond *sync.Cond

	prot proto.Protocol
	log  *proto.Log

	// chain is the handler/interceptor stack built once per incarnation
	// (see chain.go); demander, resyncer and replayer cache the
	// protocol's optional views so no path repeats the type assertion.
	chain    layer.Handler
	demander proto.Demander
	resyncer proto.Resyncer
	replayer proto.Replayer

	// Per-message chain scratch. sendMsg is touched only by the app
	// goroutine inside Send; delivMsg, delivEnv, lent and recvStart only
	// under mu on the deliver path. Reusing them keeps the chain
	// allocation-free. lent is the last delivered envelope: the payload
	// Recv returned lives in its scratch, so it goes back to the pool at
	// the next delivery, not before.
	sendMsg   layer.Msg
	delivMsg  layer.Msg
	delivEnv  *wire.Envelope
	lent      *wire.Envelope
	recvStart time.Time
	// sendSuppressed is coreHandler.Send's verdict for the message just
	// pushed through the chain (valid until the next Send).
	sendSuppressed bool
	// sendEnv is the envelope every Send hands the transport: both
	// transports encode or copy it before Send returns, so it is reused.
	// Touched only by the app goroutine.
	sendEnv wire.Envelope
	// tally holds this incarnation's per-message counters until the app
	// goroutine publishes them — before Recv parks, at each step
	// boundary, in doCheckpoint, and when appLoop exits. It is written on
	// the send and deliver paths, which only the app goroutine runs, so no
	// other goroutine ever touches it.
	tally metrics.Tally

	// Span-tracing state (Config.SpanTracing; see span.go). spanSeq is
	// the per-incarnation send counter packed into span IDs; it is
	// incremented under mu on the send path. lastDelivSpan is the causal
	// cursor: the span of the most recently delivered message, updated
	// under mu on the deliver path and read under mu at the next send.
	spanSeq       uint32
	lastDelivSpan layer.SpanContext

	lastSendIndex         vclock.Vec // per destination (line 4)
	lastDeliverIndex      vclock.Vec // per source (line 5)
	lastCkptDeliverIndex  vclock.Vec // last advertised in CHECKPOINT_ADVANCE (line 6)
	rollbackLastSendIndex vclock.Vec // from RESPONSEs (line 7)
	deliveredCount        int64

	// shards is queue B split per source: each shard's FIFO is guarded
	// by its own lock, so ingest from different sources — and ingest vs
	// the delivery scan — no longer serialize on mu. Lock order is mu
	// outer, shard.mu inner; ingest takes only the shard lock for the
	// insert and mu alone for the wakeup, so the pair is never held in
	// the reverse order.
	shards []deliveryShard
	// scanCursor rotates the AnySource scan's starting source: it
	// advances past each delivered source (under mu), so a chatty
	// low-numbered rank cannot starve a high-numbered one.
	scanCursor int

	// Piggyback-rejection bookkeeping: the send index of the last
	// malformed head counted per source (so a held corrupt head is
	// counted once, not once per wakeup) and the last error for the
	// stall report.
	lastPigErrIdx []int64
	lastIngestErr error

	recovering     bool
	recoveryStart  time.Time
	recoveryTarget int64
	// restarted marks an incarnation started by StartFromStable: the
	// checkpoints it restored with need not form a consistent cut, so
	// its whole life counts as rolling forward (metrics.Rank.LiveHold).
	restarted bool

	// The collection phase (guarded by mu like the flags above; written
	// before start() launches the goroutines). rollback is the ROLLBACK
	// payload this incarnation broadcasts, nil for an initial launch.
	// respAwait marks every peer whose RESPONSE to it is still owed, dead
	// or alive, so a duplicate RESPONSE adjusts respExpect once; it is
	// non-nil only while the collection is open, and it is what a
	// reviving peer is checked against (sendOwedRollbacks).
	rollback       []byte
	respExpect     int       // RESPONSEs still owed
	respAwait      []bool    // per-peer: RESPONSE still owed
	collectPending bool      // collect-demands span not yet emitted
	collectStart   time.Time // ROLLBACK broadcast time
	firstResentAt  time.Time // first replayed delivery while recovering
	recoveredAt    time.Time // roll-forward completion; zeroed at next checkpoint

	// deliverLat is this rank's deliver-latency histogram (nil when
	// observability is off; checked before taking the extra clock read).
	deliverLat *obs.Hist
	// ckptStall records how long each checkpoint blocked the application
	// (the snapshot; the durable write runs concurrently).
	ckptStall *obs.Hist

	// Concurrent checkpointing: doCheckpoint stages the snapshot
	// synchronously and leaves the durable Save plus the
	// CHECKPOINT_ADVANCE fan-out in ckptNext; ckptWriterLoop does them off
	// the application's critical path. ckptFree holds the jobs the writer
	// is done with and no longer staged, which doCheckpoint refills, so a
	// steady checkpoint cycle allocates nothing of its own: the job keeps
	// its buffers, and the application's snapshot is copied into one.
	// ckptMu is a leaf lock.
	ckptMu   sync.Mutex
	ckptCond *sync.Cond
	ckptNext *ckptJob
	ckptFree []*ckptJob
	// ckptInfo is the chain's checkpoint report, written under mu.
	ckptInfo layer.CheckpointInfo
	// The writer's CHECKPOINT_ADVANCE scratch: both transports copy an
	// envelope before Send returns.
	advEnv wire.Envelope
	advBuf []byte

	// dead is set by kill just before it closes killed: isKilled, asked
	// on every Send and Recv, is one atomic load. killed serves the
	// select-based waits and aborts a blocked transport send.
	dead     atomic.Bool
	killed   chan struct{}
	killOnce sync.Once
	// senders counts this incarnation's goroutines that hand envelopes to
	// the transport — receiver (RESPONSEs, resends) and application.
	// restore and Close wait it out (see there).
	senders sync.WaitGroup

	theApp    app.App
	startStep int
}

// ckptJob is one staged checkpoint awaiting its durable write: the
// snapshot to save and the CHECKPOINT_ADVANCE fan-out to announce once —
// and only once — the save has landed (peers discard logs on its
// strength, so the announcement must never precede durability). A job
// is rewritten only after a newer checkpoint is staged and the writer
// has saved it or doCheckpoint superseded it (see ckptWriterLoop), so
// the manager and the writer never see it change.
type ckptJob struct {
	cp       ckpt.Checkpoint
	advances []ckptAdvance
	total    int64
}

// ckptAdvance is one peer's pending CHECKPOINT_ADVANCE: count of its
// messages the new checkpoint covers (the log-release bound).
type ckptAdvance struct {
	dest  int
	count int64
}

// deliveryShard is one source's slice of queue B.
type deliveryShard struct {
	mu sync.Mutex
	// q[head:] is the source's pending FIFO, sorted by SendIndex; q[:head]
	// is the slack pops leave behind (nil slots). The backing array is
	// kept: a drained queue restarts at its front, and an insert that
	// finds the array full slides the FIFO down into the slack before it
	// would grow (see insert) — so in a steady state ingest never
	// allocates.
	q    []*wire.Envelope
	head int
	// delivered mirrors lastDeliverIndex[src] for the ingest-side
	// duplicate check, so an insert needs only the shard lock. It is
	// written with both mu and shard.mu held (the delivery take, recovery
	// restore) and read under either.
	delivered int64
}

// front returns the FIFO head, or nil when nothing is pending.
func (sh *deliveryShard) front() *wire.Envelope {
	if sh.head == len(sh.q) {
		return nil
	}
	return sh.q[sh.head]
}

// pending is the number of queued messages.
func (sh *deliveryShard) pending() int { return len(sh.q) - sh.head }

// highWater is the highest send index ingested from the source, delivered
// or still queued: the FIFO's tail, which is sorted above delivered.
func (sh *deliveryShard) highWater() int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.pending() > 0 {
		return sh.q[len(sh.q)-1].SendIndex
	}
	return sh.delivered
}

// pop removes the FIFO head.
func (sh *deliveryShard) pop() {
	sh.q[sh.head] = nil // the array outlives the envelope
	sh.head++
	if sh.head == len(sh.q) {
		sh.q, sh.head = sh.q[:0], 0
	}
}

// dropOrphans removes the queued messages above send index upTo that an
// incarnation older than inc sent.
func (sh *deliveryShard) dropOrphans(upTo int64, inc int32) {
	kept := sh.q[:sh.head]
	for _, env := range sh.q[sh.head:] {
		if env.SendIndex > upTo && env.Incarnation < inc {
			wire.Recycle(env)
			continue
		}
		kept = append(kept, env)
	}
	clear(sh.q[len(kept):])
	sh.q = kept
	if sh.head == len(sh.q) {
		sh.q, sh.head = sh.q[:0], 0
	}
}

// insert places env at its SendIndex position and reports whether it was
// queued: a copy of a message already delivered or already pending is
// repetitive (false). When the array is full the FIFO slides down only
// if the slack is at least half of it, and grows otherwise, so a slide's
// copy is always paid for by as many pops.
func (sh *deliveryShard) insert(env *wire.Envelope) bool {
	if env.SendIndex <= sh.delivered {
		return false
	}
	q := sh.q[sh.head:]
	i := sort.Search(len(q), func(i int) bool { return q[i].SendIndex >= env.SendIndex })
	if i < len(q) && q[i].SendIndex == env.SendIndex {
		return false // a resent copy raced the parked original
	}
	if h := sh.head; h > 0 && 2*h >= len(sh.q) && len(sh.q) == cap(sh.q) {
		n := copy(sh.q, q)
		clear(sh.q[n:])
		sh.q, sh.head = sh.q[:n], 0
	}
	sh.q = append(sh.q, nil) // amortised: grows to the channel's deepest backlog, then the array is kept
	q = sh.q[sh.head:]
	copy(q[i+1:], q[i:])
	q[i] = env
	return true
}

// lockShard acquires sh.mu, counting the acquisitions that actually
// contended — the shard-contention rate is the direct measure of how
// much serialization sharding removed from the old single-mutex design.
func (r *rankRuntime) lockShard(sh *deliveryShard) {
	if sh.mu.TryLock() {
		return
	}
	r.c.coll.Rank(r.id).ShardContended()
	sh.mu.Lock()
}

var _ app.Env = (*rankRuntime)(nil)

// newRuntime builds a fresh runtime for rank at the given incarnation.
func (c *Cluster) newRuntime(rank int, incarnation int32) (*rankRuntime, error) {
	r := &rankRuntime{
		c:                     c,
		id:                    rank,
		n:                     c.cfg.N,
		incarnation:           incarnation,
		log:                   proto.NewLog(),
		lastSendIndex:         vclock.New(c.cfg.N),
		lastDeliverIndex:      vclock.New(c.cfg.N),
		lastCkptDeliverIndex:  vclock.New(c.cfg.N),
		rollbackLastSendIndex: vclock.New(c.cfg.N),
		shards:                make([]deliveryShard, c.cfg.N),
		lastPigErrIdx:         make([]int64, c.cfg.N),
		killed:                make(chan struct{}),
		tally:                 c.coll.Rank(rank).Tally(),
		deliverLat:            c.deliverLat.Rank(rank),
		ckptStall:             c.ckptStallFam.Rank(rank),
	}
	for i := range r.lastPigErrIdx {
		r.lastPigErrIdx[i] = -1
	}
	r.cond = sync.NewCond(&r.mu)
	r.ckptCond = sync.NewCond(&r.ckptMu)
	p, err := c.newProtocol(r)
	if err != nil {
		return nil, err
	}
	r.prot = p
	r.demander, _ = p.(proto.Demander)
	r.resyncer, _ = p.(proto.Resyncer)
	r.replayer, _ = p.(proto.Replayer)
	r.chain = r.buildChain(c.cfg.Interceptors)
	r.theApp = c.factory(rank, c.cfg.N)
	if r.theApp == nil {
		return nil, fmt.Errorf("harness: factory returned nil app for rank %d", rank)
	}
	return r, nil
}

// start launches the runtime's goroutines. A restored incarnation
// broadcasts its ROLLBACK before the application resumes.
func (r *rankRuntime) start(fromStep int) {
	r.startStep = fromStep
	r.senders.Add(2) // the receiver and the application
	// Pin the inbox handle synchronously so this incarnation's receiver
	// can never attach to a successor's queue.
	go r.receiverLoop(r.c.tr.Inbox(r.id).(transport.BatchInbox))
	r.c.ckptWG.Add(1)
	go r.ckptWriterLoop()
	if r.rollback != nil {
		r.broadcastRollback()
	}
	go r.appLoop(fromStep)
}

// kill cooperatively stops every goroutine of this incarnation.
func (r *rankRuntime) kill() {
	r.killOnce.Do(func() {
		r.dead.Store(true)
		close(r.killed)
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
		r.ckptMu.Lock()
		r.ckptCond.Broadcast()
		r.ckptMu.Unlock()
	})
}

func (r *rankRuntime) isKilled() bool { return r.dead.Load() }

func (r *rankRuntime) checkKilled() {
	if r.isKilled() {
		panic(killedPanic{})
	}
}

// appLoop runs the application from fromStep to completion. It publishes
// the incarnation's counter tally at every step boundary and before it
// reports completion; a killed incarnation publishes on the way out, so
// its traffic is counted too — before senders.Done, which restore waits
// on before the successor counts anything.
func (r *rankRuntime) appLoop(fromStep int) {
	defer r.senders.Done()
	defer func() {
		if p := recover(); p != nil {
			r.tally.Publish()
			if _, ok := p.(killedPanic); ok {
				return // the rank died; the incarnation takes over
			}
			panic(p) // a real bug: crash loudly
		}
	}()
	total := r.theApp.Steps()
	for s := fromStep; s < total; s++ {
		if pol := r.c.ckptPolicy; pol != nil && s > 0 && s != fromStep && pol.ShouldCheckpoint(r.id, s) {
			r.doCheckpoint(s)
		}
		r.tally.Publish()
		r.theApp.Step(r, s)
	}
	r.tally.Publish()
	r.c.markFinished(r)
}

// markFinished records that runtime r's application ran to completion, if
// r is still the live incarnation of its rank.
func (c *Cluster) markFinished(r *rankRuntime) {
	c.ranksMu.Lock()
	if c.ranks[r.id] == r && !r.isKilled() {
		c.finished[r.id] = true
	}
	c.ranksMu.Unlock()
	c.notifyWait()
}

// Rank implements app.Env.
func (r *rankRuntime) Rank() int { return r.id }

// N implements app.Env.
func (r *rankRuntime) N() int { return r.n }

// Send implements app.Env: Algorithm 1 lines 8-12, routed through the
// handler chain — the protocol layer attaches the piggyback, the obs and
// observer layers count and record the send, user interceptors may
// transform the payload, and the core layer logs the message and decides
// suppression (line 10: transmission is skipped when the destination's
// RESPONSE showed it already delivered this index). The message is
// always counted and logged; only the transmission is suppressed.
func (r *rankRuntime) Send(dest int, tag int32, data []byte) {
	r.checkKilled()
	if dest < 0 || dest >= r.n {
		panic(fmt.Sprintf("harness: rank %d Send to invalid destination %d", r.id, dest))
	}
	r.mu.Lock()
	r.lastSendIndex[dest]++
	idx := r.lastSendIndex[dest]
	m := &r.sendMsg
	m.Rank, m.Peer, m.Tag = r.id, dest, tag
	m.SendIndex, m.DeliverIndex, m.Demand = idx, 0, -1
	m.Piggyback, m.PiggybackIDs = nil, 0
	m.Payload, m.Resent = data, false
	m.Span = layer.SpanContext{}
	r.chain.Send(m)
	pig, payload := m.Piggyback, m.Payload
	span := m.Span
	suppress := r.sendSuppressed
	r.mu.Unlock()

	if suppress {
		return
	}
	// pig and payload are views of the sender log's record, which never
	// changes; the transport copies or encodes them, never retains them.
	env := &r.sendEnv
	env.Kind, env.From, env.To = wire.KindApp, r.id, dest
	env.Incarnation, env.Tag, env.SendIndex = r.incarnation, tag, idx
	env.Piggyback, env.Payload, env.Span = pig, payload, span
	r.transmit(env)
}

// transmit hands the app goroutine's scratch envelope to the transport:
// a rendezvous Send in blocking mode, a buffered one otherwise. The
// buffered Send is queue A of Fig. 4(b) — it returns once the link owns
// the frame, which survives this rank's kill, and waits only while the
// link already holds its bound. Either wait aborts when the rank is
// killed. No envelope outlives the call, and per-link FIFO holds because
// the app goroutine is the only sender of application messages.
func (r *rankRuntime) transmit(env *wire.Envelope) {
	blocking := r.c.cfg.Mode == Blocking
	var start time.Time
	if blocking {
		start = r.c.clk.Now()
	}
	err := r.c.tr.Send(env, transport.SendOpts{Rendezvous: blocking, Abort: r.killed})
	if blocking {
		r.c.coll.Rank(r.id).BlockedSend(r.c.clk.Now().Sub(start))
	}
	if err != nil {
		panic(killedPanic{})
	}
}

// Recv implements app.Env: the delivery manager of Algorithm 1 lines
// 15-31. It scans queue B for a message that matches the application's
// request, is next in its channel's FIFO order, and satisfies the
// protocol's delivery predicate.
func (r *rankRuntime) Recv(source int, tag int32) ([]byte, int) {
	r.checkKilled()
	r.mu.Lock()
	defer r.mu.Unlock()
	if source == app.AnySource && r.rollback != nil && !r.c.replayReordered.Load() {
		// A restored incarnation's AnySource choice may differ from the
		// dead one's, and so may every vector it sends after it.
		r.c.replayReordered.Store(true)
	}
	// recvStart feeds the obs layer's deliver-latency histogram. The
	// clock is read lazily, on the first failed scan: a Recv satisfied
	// by an already-queued message never touches the clock and records
	// a zero wait, which is what it had.
	var start time.Time
	r.recvStart = start
	for {
		// The kill check precedes the delivery scan: a killed rank must
		// never deliver another message, or its failure point drifts past
		// what Cluster.Kill recorded.
		if r.isKilled() {
			panic(killedPanic{})
		}
		if env := r.takeDeliverableLocked(source, tag); env != nil {
			return r.deliverLocked(env), env.From
		}
		now := r.c.clk.Now()
		if start.IsZero() {
			start = now
			r.recvStart = now
		}
		if st := r.c.cfg.StallTimeout; st > 0 && now.Sub(start) > st {
			panic(r.stallReportLocked(source, tag))
		}
		r.tally.Publish() // the app goroutine parks: its counts go public
		r.cond.Wait()
	}
}

// takeDeliverableLocked removes and returns the first deliverable queued
// message matching (source, tag), or returns nil; the caller commits a
// taken message with deliverLocked under the same hold of mu. It is the
// delivery scan the blocked receiver re-runs on every wakeup, so it must
// not heap-allocate. The AnySource scan starts at scanCursor — the source
// after the last delivery — and wraps, so every source with a deliverable
// head is reached within n deliveries regardless of how chatty the others
// are.
func (r *rankRuntime) takeDeliverableLocked(source int, tag int32) *wire.Envelope {
	if source != app.AnySource {
		if source < 0 || source >= r.n {
			r.panicInvalidSource(source)
		}
		return r.takeShard(source, tag)
	}
	for k := 0; k < r.n; k++ {
		src := r.scanCursor + k
		if src >= r.n {
			src -= r.n
		}
		if env := r.takeShard(src, tag); env != nil {
			return env
		}
	}
	return nil
}

// takeShard probes one source's FIFO head and, when it is deliverable,
// pops it and advances the shard's ingest-side duplicate bound — all
// under the one shard-lock hold the head was read with, so a delivery
// costs a single shard round. The FIFO, tag and protocol probes are
// cheap and non-blocking; ingest from this source waits them out.
func (r *rankRuntime) takeShard(src int, tag int32) *wire.Envelope {
	sh := &r.shards[src]
	r.lockShard(sh)
	head := sh.front()
	if head == nil || head.SendIndex != r.lastDeliverIndex[src]+1 || // FIFO gap: an earlier message is missing
		tag != app.AnyTag && head.Tag != tag {
		sh.mu.Unlock()
		return nil
	}
	v, err := r.prot.Deliverable(head, r.deliveredCount)
	if err != nil || v != proto.Deliver {
		sh.mu.Unlock()
		if err != nil {
			// The head stays queued, and only mu-holders remove it.
			r.noteIngestErrLocked(src, head.SendIndex, err)
		} else if !r.recovering && !r.restarted {
			r.c.coll.Rank(r.id).LiveHold()
		}
		return nil
	}
	sh.pop()
	sh.delivered = head.SendIndex
	sh.mu.Unlock()
	return head
}

// noteIngestErrLocked counts a malformed piggyback at a channel's FIFO
// head — once per (source, send index), since a held head is re-probed
// on every wakeup — and keeps the error for the stall report.
func (r *rankRuntime) noteIngestErrLocked(src int, sendIndex int64, err error) {
	if r.lastPigErrIdx[src] == sendIndex {
		return
	}
	r.lastPigErrIdx[src] = sendIndex
	r.lastIngestErr = err
	r.c.coll.Rank(r.id).IngestRejected()
	r.c.observer().OnIngestRejected(r.id, "piggyback")
}

// panicInvalidSource and panicDeliveryRejected format their messages
// out of line of the delivery scan: fmt boxing allocates, and both are
// fatal programming-error paths.
//
//go:noinline
func (r *rankRuntime) panicInvalidSource(source int) {
	panic(fmt.Sprintf("harness: rank %d Recv from invalid source %d", r.id, source))
}

//go:noinline
func (r *rankRuntime) panicDeliveryRejected(err error) {
	panic(fmt.Sprintf("harness: rank %d: protocol rejected delivery: %v", r.id, err))
}

// deliverLocked commits env, just taken from queue B, to the handler
// chain (chain.go): the protocol layer folds the piggyback into protocol
// state (lines 20-26), the obs and observer layers count and record the
// delivery, user interceptors may transform the payload, and the payload
// the chain leaves in the Msg is what Recv hands the application. Like
// the scan above it runs once per delivered message under the rank lock
// and must not heap-allocate on the failure-free path.
func (r *rankRuntime) deliverLocked(env *wire.Envelope) []byte {
	src := env.From
	r.lastDeliverIndex[src]++
	r.deliveredCount++
	// Rotate the AnySource fairness cursor past the source just served.
	r.scanCursor = src + 1
	if r.scanCursor >= r.n {
		r.scanCursor = 0
	}
	m := &r.delivMsg
	m.Rank, m.Peer, m.Tag = r.id, src, env.Tag
	m.SendIndex, m.DeliverIndex, m.Demand = env.SendIndex, r.deliveredCount, -1
	m.Piggyback, m.PiggybackIDs = env.Piggyback, 0
	m.Payload, m.Resent = env.Payload, env.Resent
	m.Span = env.Span
	r.delivEnv = env
	r.chain.Deliver(m)
	payload := m.Payload
	// The chain is done with the envelope's piggyback; drop the scratch
	// reference so a recycled envelope's buffer is never reachable
	// through the reused Msg.
	m.Piggyback, m.Payload = nil, nil
	if r.recovering {
		if env.Resent && r.firstResentAt.IsZero() {
			r.firstResentAt = r.c.clk.Now()
		}
		if r.deliveredCount >= r.recoveryTarget {
			r.recovering = false
			now := r.c.clk.Now()
			d := now.Sub(r.recoveryStart)
			r.c.coll.Rank(r.id).RecoveryDone(d)
			r.recoveredAt = now
			r.c.observer().OnRecoveryComplete(r.id, d)
			r.c.emitPhase(r.id, PhaseRollForward, d)
			if !r.firstResentAt.IsZero() {
				r.c.emitPhase(r.id, PhaseReplayLogged, now.Sub(r.firstResentAt))
			} else {
				// The roll was fed entirely by regenerated (non-resent)
				// sends; emit the zero span so every completed recovery
				// reports all four phases.
				r.c.emitPhase(r.id, PhaseReplayLogged, 0)
			}
			if r.collectPending {
				// A peer that is down still owes its RESPONSE (a protocol
				// that is no Replayer rolls forward without it); cap the
				// span at roll-forward completion.
				r.collectPending = false
				r.c.emitPhase(r.id, PhaseCollectDemands, now.Sub(r.collectStart))
			}
		}
	}
	// The delivery is committed and every reader of the envelope — the
	// chain, the recovery bookkeeping above — is done with it, but the
	// payload may live in its scratch: it is lent to the application
	// until its next Recv, so the envelope lent before goes back to the
	// pool now, and this one with the next delivery.
	wire.Recycle(r.lent)
	r.lent = env
	return payload
}

// responderDoneLocked accounts for peer's RESPONSE to this incarnation's
// ROLLBACK. No-op unless the collection still owes it.
func (r *rankRuntime) responderDoneLocked(peer int) {
	if r.respAwait == nil || peer < 0 || peer >= len(r.respAwait) || !r.respAwait[peer] {
		return
	}
	r.respAwait[peer] = false
	r.respExpect--
	r.collectedLocked()
}

// beginRecovery opens the collection phase of a runtime not yet started:
// every peer owes a RESPONSE, and the phase closes once each has answered
// (collectedLocked).
func (r *rankRuntime) beginRecovery() {
	r.respAwait = make([]bool, r.n)
	for p := range r.respAwait {
		r.respAwait[p] = p != r.id
	}
	r.respExpect = r.n - 1
	r.prot.BeginRecovery()
}

// collectedLocked closes the collection phase the first time no
// RESPONSE is owed: it is the only place a rank decides it is
// done collecting. The protocol learns it through OnCollected, and the
// collect-demands span is emitted if it is still owed (a rank whose
// failure lost no deliveries owes none, yet a PWD protocol holds until
// here all the same). Callers hold r.mu.
func (r *rankRuntime) collectedLocked() {
	if r.respAwait == nil || r.respExpect > 0 {
		return
	}
	r.respAwait = nil
	if r.replayer != nil {
		r.replayer.OnCollected()
	}
	if r.collectPending {
		r.collectPending = false
		r.c.emitPhase(r.id, PhaseCollectDemands, r.c.clk.Now().Sub(r.collectStart))
	}
	r.cond.Broadcast() // a PWD hold on the collection phase has lifted
}

// insertShard is ingest into queue B: the sorted insert into the
// source's shard under the shard lock alone, so ingest from different
// sources runs concurrently and never touches mu. Repetitive copies are
// discarded (Algorithm 1's receiver-side duplicate identification); it
// reports whether the message was queued. The wakeup ordering is safe
// without holding both locks: a scanner holds mu across its whole scan,
// so the caller's subsequent mu-protected Broadcast either precedes the
// scan (which then sees the insert) or is delivered to its cond.Wait.
func (r *rankRuntime) insertShard(env *wire.Envelope) bool {
	sh := &r.shards[env.From]
	r.lockShard(sh)
	queued := sh.insert(env)
	sh.mu.Unlock()
	if !queued {
		r.c.coll.Rank(r.id).RepetitiveDiscarded()
		wire.Recycle(env)
	}
	return queued
}

// doCheckpoint snapshots the rank and queues the durable write
// (Algorithm 1 lines 32-37). Runs on the app goroutine at a step
// boundary, but only the snapshot happens here: it is staged with the
// checkpoint manager (a same-process recovery restores it immediately)
// and the Save plus CHECKPOINT_ADVANCE fan-out run on the rank's
// checkpoint writer goroutine, so delivery never stalls on stable
// storage. Every log item the snapshot records is already on the wire:
// the app goroutine's sends returned only once their links owned them. The time the application *was* blocked is recorded in
// the ckpt_stall_ns family — the concurrent-checkpointing figure.
func (r *rankRuntime) doCheckpoint(step int) {
	start := r.c.clk.Now()
	// Published before the chain's checkpoint report below: observers of
	// a checkpoint see exact counts.
	r.tally.Publish()
	r.mu.Lock()
	// Stage and report in one critical section, behind the kill check:
	// Kill marks the rank dead before it takes this lock, and Recover
	// waits the lock out before it loads the staged checkpoint, so a kill
	// either preempts the whole checkpoint or follows all of it. It never
	// lands between the two, where recovery would restore a checkpoint
	// the observers (the trace checker among them) never saw.
	if r.isKilled() {
		r.mu.Unlock()
		return
	}
	r.ckptMu.Lock()
	var job *ckptJob
	if n := len(r.ckptFree); n > 0 {
		job, r.ckptFree = r.ckptFree[n-1], r.ckptFree[:n-1]
	} else {
		job = new(ckptJob)
	}
	r.ckptMu.Unlock()
	cp := &job.cp
	cp.Rank, cp.Step, cp.DeliveredCount = r.id, step, r.deliveredCount
	cp.AppImage = append(cp.AppImage[:0], r.theApp.Snapshot()...) // the app may reuse its snapshot at its next Step
	cp.ProtoState = r.prot.AppendSnapshot(cp.ProtoState[:0])
	cp.LastSendIndex = append(cp.LastSendIndex[:0], r.lastSendIndex...)
	cp.LastDeliverIndex = append(cp.LastDeliverIndex[:0], r.lastDeliverIndex...)
	// With durable logs the checkpoint is incremental: every retained log
	// item is already in its channel's slog/ stream, durable by the time
	// the Save completes, so the blob omits the log and recovery rebuilds
	// it from the streams.
	cp.LogExternal = r.c.durableLogs
	if !cp.LogExternal {
		cp.LogView = r.log.AppendView(cp.LogView.Runs) // the records themselves, not a copy
	}
	job.advances = job.advances[:0]
	for k := 0; k < r.n; k++ {
		if k != r.id && r.lastDeliverIndex[k] > r.lastCkptDeliverIndex[k] {
			job.advances = append(job.advances, ckptAdvance{dest: k, count: r.lastDeliverIndex[k]})
			r.lastCkptDeliverIndex[k] = r.lastDeliverIndex[k]
		}
	}
	job.total = r.deliveredCount
	if r.replayer != nil {
		r.replayer.OnPeerCheckpoint(r.id, job.total) // prune own replay-dead history
	}
	recoveredAt := r.recoveredAt
	r.recoveredAt = time.Time{}
	r.c.ckpts.Stage(cp)
	r.ckptInfo = layer.CheckpointInfo{Rank: r.id, Step: step, DeliveredCount: job.total}
	r.chain.Checkpoint(&r.ckptInfo)
	r.mu.Unlock()

	if !recoveredAt.IsZero() {
		// First checkpoint after a recovery: its CHECKPOINT_ADVANCE lets
		// peers release the logs the replay consumed.
		r.c.emitPhase(r.id, PhaseLogRelease, r.c.clk.Now().Sub(recoveredAt))
	}
	if r.ckptStall != nil {
		r.ckptStall.RecordDuration(r.c.clk.Now().Sub(start))
	}

	r.ckptMu.Lock()
	if old := r.ckptNext; old != nil {
		supersede(job, old) // staged before job, and never taken
		r.freeCkptJob(old)
	}
	r.ckptNext = job
	r.ckptCond.Broadcast()
	r.ckptMu.Unlock()
}

// ckptWriterLoop is the rank's checkpoint writer: durable Save, then
// the CHECKPOINT_ADVANCE fan-out, off the application's critical path.
// It takes the one waiting job at a time; doCheckpoint folds a newer
// checkpoint into a job still waiting (see supersede), so the writer is
// never more than one Save behind the application however slow stable
// storage is. On kill it saves the waiting job, if any (a clean Close
// never abandons the newest checkpoint's durable write; the advance
// sends abort on the killed channel instead), and exits.
//
// The writer holds each job it saved until it has saved the next, which
// was staged later, so the held job is no longer staged and returns to
// the free list. Steps rise within an incarnation, so each Stage
// replaces the last. A rank thus owns at most four jobs: held, saving,
// waiting and being filled.
func (r *rankRuntime) ckptWriterLoop() {
	defer r.c.ckptWG.Done()
	var held *ckptJob
	for {
		r.ckptMu.Lock()
		for r.ckptNext == nil && !r.isKilled() {
			r.ckptCond.Wait()
		}
		job := r.ckptNext
		r.ckptNext = nil
		r.ckptMu.Unlock()
		if job == nil {
			return
		}
		r.saveCheckpoint(job)
		if held != nil {
			r.ckptMu.Lock()
			r.freeCkptJob(held)
			r.ckptMu.Unlock()
		}
		held = job
	}
}

// freeCkptJob returns job to the free list, neither staged nor being
// saved: it ends the job's lease on the log's chunks (see Log.View) and
// drops its references to records that may since have been released.
// Caller holds ckptMu.
func (r *rankRuntime) freeCkptJob(job *ckptJob) {
	job.cp.LogView.Release()
	clear(job.cp.LogView.Runs)
	r.ckptFree = append(r.ckptFree, job)
}

// supersede folds old, a waiting checkpoint the writer never took, into
// job, the newer checkpoint that replaces it: job keeps its snapshot and
// total and takes in old's advances at the per-destination maximum. A
// rank's newest checkpoint covers all that its earlier ones covered, so
// old's Save is skipped outright — but a peer whose deliveries old was
// first to cover, and from which nothing was delivered since, appears
// only in old's advances and must still be told. job announces after its
// one covering Save, which keeps the release invariant.
func supersede(job, old *ckptJob) {
merge:
	for _, a := range old.advances {
		for i := range job.advances {
			if job.advances[i].dest == a.dest {
				job.advances[i].count = max(job.advances[i].count, a.count)
				continue merge
			}
		}
		job.advances = append(job.advances, a)
	}
}

// saveCheckpoint durably writes one staged checkpoint and announces the
// advance. Announcing strictly after Save preserves the release
// invariant: peers discard log items only once the covering checkpoint
// can actually be reloaded from stable storage.
func (r *rankRuntime) saveCheckpoint(job *ckptJob) {
	if err := r.c.ckpts.Save(&job.cp); err != nil {
		if r.isKilled() {
			return // the incarnation is gone; its save is moot
		}
		panic(fmt.Sprintf("harness: rank %d checkpoint: %v", r.id, err))
	}
	m := r.c.coll.Rank(r.id)
	env := &r.advEnv
	for _, a := range job.advances {
		r.advBuf = appendCkptAdvance(r.advBuf[:0], a.count, job.total)
		*env = wire.Envelope{
			Kind: wire.KindCkptAdvance, From: r.id, To: a.dest,
			Incarnation: r.incarnation, Payload: r.advBuf,
		}
		if err := r.c.tr.Send(env, transport.SendOpts{Abort: r.killed}); err != nil {
			// Killed mid-fan-out: the unreached peers simply retain their
			// logs until this rank's next incarnation re-advertises.
			return
		}
		m.ControlMsg()
	}
}

// stallReportLocked builds a diagnostic for a delivery wait that exceeded
// the configured stall timeout.
func (r *rankRuntime) stallReportLocked(source int, tag int32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "harness: rank %d stalled in Recv(source=%d, tag=%d); delivered=%d\n",
		r.id, source, tag, r.deliveredCount)
	if r.lastIngestErr != nil {
		fmt.Fprintf(&b, "  last rejected piggyback: %v\n", r.lastIngestErr)
	}
	if h := r.c.coll.Rank(r.id).Snapshot().LiveHolds; h != 0 {
		fmt.Fprintf(&b, "  holds outside a roll-forward: %d\n", h)
	}
	for src := range r.shards {
		sh := &r.shards[src]
		sh.mu.Lock()
		n, head := sh.pending(), sh.front()
		sh.mu.Unlock()
		if head == nil {
			continue
		}
		verdict, err := r.prot.Deliverable(head, r.deliveredCount)
		vs := verdict.String()
		if err != nil {
			vs = fmt.Sprintf("rejected (%v)", err)
		}
		fmt.Fprintf(&b, "  queue[%d]: %d msgs, head index %d (want %d), head tag %d, verdict %s\n",
			src, n, head.SendIndex, r.lastDeliverIndex[src]+1, head.Tag, vs)
	}
	return b.String()
}
