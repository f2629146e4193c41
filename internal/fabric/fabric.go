// Package fabric simulates the cluster interconnect the paper's testbed
// ran on (PCs on 100 Mb Ethernet under MPICH).
//
// The fabric is the mem transport (*Fabric implements
// transport.Transport). It provides, per ordered rank pair, a FIFO link
// with a latency and bandwidth model and a bounded in-flight buffer;
// across links, arrival order is unconstrained — exactly the
// non-determinism the TDI protocol exploits. It also owns the failure
// semantics the rollback recovery protocols are built against:
//
//   - Kill(rank) drops the rank's volatile state: everything sitting in
//     its inbox is lost, and its receivers are unblocked with ok=false.
//   - Messages that arrive while the destination is dead are parked and
//     handed to the incarnation after Revive — modelling the MPI layer's
//     retry, and producing the paper's "sender blocks until the receiver
//     recovers" behaviour for rendezvous sends.
//   - Rendezvous (blocking) sends return only when the destination's
//     inbox has accepted the message; buffered sends return as soon as
//     the link's bounded buffer has space (and block while it is full,
//     modelling the limited communication-subsystem memory the paper
//     blames for send-side blocking on large messages).
package fabric

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"windar/internal/clock"
	"windar/internal/obs"
	"windar/internal/transport"
	"windar/internal/wire"
)

// Config describes the interconnect.
type Config struct {
	// N is the number of ranks.
	N int
	// BaseLatency is the per-message propagation delay.
	BaseLatency time.Duration
	// BytesPerSecond is the per-link bandwidth; 0 means infinite.
	BytesPerSecond int64
	// JitterFraction adds a uniform random extra delay in
	// [0, JitterFraction·(base+transmission)]. Cross-link reordering
	// needs no jitter (links are independent), but jitter makes arrival
	// interleavings less regular, like a real network.
	JitterFraction float64
	// LinkBufferBytes bounds the bytes in flight per link; a buffered
	// send blocks while the link is over this. 0 means a generous
	// default.
	LinkBufferBytes int64
	// Seed makes jitter reproducible. Each link derives its own RNG.
	Seed int64
	// Batch, if non-nil, records per-sender batch occupancy (frames per
	// serviced transfer; always 1 here — the fabric services messages one
	// at a time, the per-message timing the figure experiments are
	// calibrated against).
	Batch *obs.Family
	// Clock defaults to the real clock.
	Clock clock.Clock
}

// DefaultLinkBuffer is used when Config.LinkBufferBytes is zero.
const DefaultLinkBuffer = 1 << 20

// ringChunk is the queued path's unit of encode memory: a link's ring
// grows from one of it by doubling, and holds at most one of it more than
// the link's byte bound (see ring). ringMax is the largest encoding the
// ring takes; a larger envelope is encoded into an allocation of its own.
const (
	ringChunk = 32 << 10
	ringMax   = ringChunk / 2
)

// Fabric is the simulated interconnect, the mem transport
// (transport.Mem). Create with New, release with Close.
type Fabric struct {
	cfg   Config
	clk   clock.Clock
	links []*link      // n*n, indexed from*n+to
	ranks []*rankState // destination-side state

	// instant is true when the configured network model never delays a
	// message (zero latency, infinite bandwidth):
	// Send may then bypass the link goroutine entirely and deliver
	// inline, saving two goroutine hand-offs per message.
	instant bool

	closeOnce sync.Once
	closed    chan struct{}
}

// New builds the fabric and starts one delivery goroutine per link (they
// are created lazily on first use).
func New(cfg Config) *Fabric {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("fabric: invalid N=%d", cfg.N))
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.LinkBufferBytes == 0 {
		cfg.LinkBufferBytes = DefaultLinkBuffer
	}
	f := &Fabric{
		cfg:    cfg,
		clk:    cfg.Clock,
		links:  make([]*link, cfg.N*cfg.N),
		ranks:  make([]*rankState, cfg.N),
		closed: make(chan struct{}),
	}
	f.instant = cfg.BaseLatency == 0 && cfg.BytesPerSecond <= 0
	for i := range f.ranks {
		f.ranks[i] = newRankState()
	}
	for from := 0; from < cfg.N; from++ {
		for to := 0; to < cfg.N; to++ {
			l := &link{
				f:      f,
				to:     to,
				maxBuf: cfg.LinkBufferBytes,
				rng:    rand.New(rand.NewSource(cfg.Seed ^ int64(from*cfg.N+to)*0x5851F42D4C957F2D ^ 0x5DEECE66D)),
				batch:  cfg.Batch.Rank(from),
			}
			l.cond = sync.NewCond(&l.mu)
			f.links[from*cfg.N+to] = l
			go l.run()
		}
	}
	return f
}

var _ transport.Transport = (*Fabric)(nil)

// N returns the number of ranks.
func (f *Fabric) N() int { return f.cfg.N }

// Kind implements transport.Transport.
func (f *Fabric) Kind() transport.Kind { return transport.Mem }

// Close stops all delivery goroutines. Pending messages are dropped.
func (f *Fabric) Close() {
	f.closeOnce.Do(func() {
		close(f.closed)
		for _, l := range f.links {
			l.mu.Lock()
			l.cond.Broadcast()
			l.mu.Unlock()
		}
		for _, r := range f.ranks {
			r.mu.Lock()
			r.aliveCond.Broadcast()
			r.mu.Unlock()
			r.inbox().Close()
		}
	})
}

// Send transmits env. On an instant fabric an idle link delivers it
// inline (tryInline); otherwise the fabric encodes it into the link's
// ring for size accounting and transmission timing and the receiver gets
// the decoded form, so wire round-tripping is exercised on every queued
// message. Either way env is not retained once Send returns.
func (f *Fabric) Send(env *wire.Envelope, opts transport.SendOpts) error {
	if env.From < 0 || env.From >= f.cfg.N || env.To < 0 || env.To >= f.cfg.N {
		return fmt.Errorf("fabric: bad endpoints %d->%d", env.From, env.To)
	}
	l := f.links[env.From*f.cfg.N+env.To]
	if f.instant && l.tryInline(env) {
		// Delivered synchronously: a rendezvous send's acceptance
		// condition (destination inbox took the message) already holds.
		return nil
	}
	var done chan struct{}
	if opts.Rendezvous {
		done = make(chan struct{})
	}
	if err := l.enqueue(env, done, opts.Abort, f.closed); err != nil {
		return err
	}
	if done != nil {
		select {
		case <-done:
		case <-opts.Abort:
			return transport.ErrAborted
		case <-f.closed:
			return transport.ErrAborted
		}
	}
	return nil
}

// Recv blocks until an envelope is available for rank, the rank is killed
// (ok=false), or the fabric is closed (ok=false). Each call observes the
// rank's *current* inbox: after a Kill, blocked receivers drain out with
// ok=false and the incarnation's receivers see only post-revival traffic.
//
// A long-lived receiver loop must use Inbox instead: re-calling Recv
// after a Kill/Revive would silently attach the old receiver to the new
// incarnation's inbox.
func (f *Fabric) Recv(rank int) (*wire.Envelope, bool) {
	return f.ranks[rank].inbox().Recv()
}

// Inbox returns a handle pinned to rank's current inbox: once the rank
// is killed, the old handle returns ok=false forever and the incarnation
// must obtain a fresh one.
func (f *Fabric) Inbox(rank int) transport.Inbox {
	return f.ranks[rank].inbox()
}

// Kill marks rank dead, dropping its inbox contents and unblocking its
// receivers. Messages subsequently arriving for it are parked until
// Revive.
func (f *Fabric) Kill(rank int) {
	r := f.ranks[rank]
	r.mu.Lock()
	r.alive = false
	old := r.box
	r.box = transport.NewQueue()
	r.admitLocked()
	r.mu.Unlock()
	old.Drop()
	// Senders blocked on full link buffers may hold this rank's abort
	// channel; wake them so they can observe it. Kills are rare, so a
	// global broadcast is fine.
	for _, l := range f.links {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// Revive brings rank back (as a new incarnation) and releases any parked
// deliveries destined to it.
func (f *Fabric) Revive(rank int) {
	r := f.ranks[rank]
	r.mu.Lock()
	r.alive = true
	r.admitLocked()
	r.aliveCond.Broadcast()
	r.mu.Unlock()
}

// Stall suspends delivery into rank: messages park at the links as
// during a dead window, but the rank's inbox and receivers stay
// attached — a transient partition in front of the rank, not a crash.
// Independent of Kill/Revive; pair every Stall with an Unstall.
func (f *Fabric) Stall(rank int) {
	r := f.ranks[rank]
	r.mu.Lock()
	r.stalled = true
	r.admitLocked()
	r.mu.Unlock()
}

// Unstall resumes delivery into rank, releasing parked messages in
// per-link FIFO order.
func (f *Fabric) Unstall(rank int) {
	r := f.ranks[rank]
	r.mu.Lock()
	r.stalled = false
	r.admitLocked()
	r.aliveCond.Broadcast()
	r.mu.Unlock()
}

// Alive reports whether rank is currently alive.
func (f *Fabric) Alive(rank int) bool {
	r := f.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alive
}

// InFlight reports the number of messages queued or in transit across all
// links (diagnostics and tests).
func (f *Fabric) InFlight() int {
	total := 0
	for _, l := range f.links {
		l.mu.Lock()
		total += l.pending() + l.busy
		l.mu.Unlock()
	}
	return total
}

// item is one queued message: its encoding — n bytes of the link's ring
// at off, or an allocation of its own when n exceeds ringMax — and, for
// a rendezvous send, the channel closed once the destination accepted it.
type item struct {
	off, n int
	own    []byte
	done   chan struct{}
}

// ring is a link's encode memory: the queued envelopes' encodings back to
// back, oldest first, in one or two runs. A record is written once at the
// tail and freed from the head once its message is decoded. A record
// never straddles the end of the buffer: one that does not fit there
// starts a second run at offset 0 if the head has left room; otherwise
// the ring grows (reserveLocked). With the bounded-buffer rule this keeps
// a link's ring within LinkBufferBytes plus one ringChunk (DESIGN.md,
// "Transport layer").
type ring struct {
	buf  []byte
	head int // oldest record
	end  int // just past the first run [head, end)
	tail int // just past the second run [0, tail); 0 while there is none
}

// alloc claims n bytes after the newest record; ok is false when they do
// not fit.
func (r *ring) alloc(n int) (off int, ok bool) {
	switch {
	case r.tail > 0: // two runs: the free space is [tail, head)
		if r.head-r.tail < n {
			return 0, false
		}
	case len(r.buf)-r.end >= n:
		r.end += n
		return r.end - n, true
	case r.head < n:
		return 0, false
	}
	r.tail += n
	return r.tail - n, true
}

// free releases the oldest record, n bytes long. When the first run is
// used up, the second becomes the first.
func (r *ring) free(n int) {
	if r.head += n; r.head == r.end {
		r.head, r.end, r.tail = 0, r.tail, 0
	}
}

// link is one ordered-pair FIFO channel with a serial service model: a
// message's transmission time delays the messages queued behind it, so a
// large payload stalls the link exactly the way the paper describes.
type link struct {
	f      *Fabric
	to     int
	maxBuf int64

	mu   sync.Mutex
	cond *sync.Cond
	// queue[qhead:] is the FIFO of messages waiting for service. Like a
	// delivery shard's queue it keeps its backing array: a pop zeroes its
	// slot and advances qhead, a drained queue restarts at the front, and
	// an append that finds the array full slides the FIFO down when the
	// slack is at least half the array. Together with the ring, the queued
	// path allocates nothing per message in a steady state.
	queue  []item
	qhead  int
	ring   ring
	queued int64 // bytes waiting
	busy   int   // messages in service (0 or 1)
	rng    *rand.Rand
	batch  *obs.Hist // occupancy of each serviced transfer (nil-safe)
}

// pending is the number of queued messages. Callers hold l.mu.
func (l *link) pending() int { return len(l.queue) - l.qhead }

// enqueue applies the bounded-buffer rule, then encodes env into the
// link's memory and queues it; done, when non-nil, is closed once the
// destination accepts the message. env is not retained.
func (l *link) enqueue(env *wire.Envelope, done chan struct{}, abort <-chan struct{}, closed chan struct{}) error {
	n := wire.EncodedSize(env)
	l.mu.Lock()
	for l.queued+int64(n) > l.maxBuf && l.queued > 0 {
		// Buffer full: wait for drain, abort, or shutdown. Poll the
		// abort channel around cond waits; the delivery goroutine
		// broadcasts on every dequeue.
		select {
		case <-abort:
			l.mu.Unlock()
			return transport.ErrAborted
		case <-closed:
			l.mu.Unlock()
			return transport.ErrAborted
		default:
		}
		l.cond.Wait()
	}
	it := item{n: n, done: done}
	if n <= ringMax {
		it.off = l.reserveLocked(n)
		wire.AppendEncode(l.ring.buf[it.off:it.off:it.off+n], env)
	} else {
		it.own = wire.AppendEncode(make([]byte, 0, n), env) // oversize: too large for the ring, the encoding owns its allocation
	}
	if h := l.qhead; h > 0 && 2*h >= len(l.queue) && len(l.queue) == cap(l.queue) {
		k := copy(l.queue, l.queue[h:])
		clear(l.queue[k:])
		l.queue, l.qhead = l.queue[:k], 0
	}
	l.queue = append(l.queue, it) // amortised: grows to the link's deepest backlog, then the array is kept
	l.queued += int64(n)
	l.cond.Broadcast()
	l.mu.Unlock()
	return nil
}

// reserveLocked returns the ring offset of n free bytes. When they do not
// fit, the ring grows: the live records move, oldest first, to the front
// of a buffer twice the size (capped at the bound, never smaller than
// what must fit) and the queued items are re-pointed. A record in service
// keeps reading the old buffer, which is never written again; its free
// lands on its copy, the first record of the new one.
//
//go:noinline
func (l *link) reserveLocked(n int) int {
	if off, ok := l.ring.alloc(n); ok {
		return off
	}
	r := &l.ring
	first, second := r.buf[r.head:r.end], r.buf[:r.tail]
	live := len(first) + len(second)
	bound := int(max(l.maxBuf, ringMax)) + ringChunk
	buf := make([]byte, max(min(max(2*len(r.buf), ringChunk), bound), live+n)) // amortised: the ring doubles up to its bound, then is reused
	copy(buf[copy(buf, first):], second)
	for i := l.qhead; i < len(l.queue); i++ {
		switch it := &l.queue[i]; {
		case it.own != nil:
		case it.off >= r.head: // first run
			it.off -= r.head
		default: // second run
			it.off += len(first)
		}
	}
	*r = ring{buf: buf, end: live}
	off, _ := r.alloc(n)
	return off
}

// tryInline delivers env synchronously on an instant network, bypassing
// the link goroutine. It only fires while the link is idle (nothing
// queued or in service) and the destination admits inline delivery
// (alive and unstalled: rankState.admit), so per-link FIFO order and the
// park-while-dead semantics are untouched: any message that cannot go
// right now takes the queued path, and once one is queued every later
// send queues behind it until the link drains. A Kill landing between
// the admission read and the push loses the message with the dropped
// inbox, exactly as a kill right after the push would. l.mu is held
// across the inbox push so a racing send on the same link cannot
// overtake the delivery. The receiver gets a deep copy with the same
// ownership contract a decode would produce, never the sender's envelope
// or its logged bytes; the queued path still wire-round-trips every
// message.
func (l *link) tryInline(env *wire.Envelope) bool {
	l.mu.Lock()
	box := l.f.ranks[l.to].admit.Load()
	if box == nil || l.pending() > 0 || l.busy > 0 {
		l.mu.Unlock()
		return false
	}
	denv := wire.GetEnvelope()
	wire.CopyInto(denv, env)
	l.batch.Record(1)
	box.Push(denv)
	l.mu.Unlock()
	return true
}

func (l *link) run() {
	for {
		l.mu.Lock()
		for l.pending() == 0 {
			select {
			case <-l.f.closed:
				l.mu.Unlock()
				return
			default:
			}
			l.cond.Wait()
		}
		it := l.queue[l.qhead]
		l.queue[l.qhead] = item{}
		if l.qhead++; l.qhead == len(l.queue) {
			l.queue, l.qhead = l.queue[:0], 0
		}
		l.queued -= int64(it.n)
		l.busy = 1
		b := it.own
		if b == nil {
			// The record stays claimed until the free below, so no send
			// writes over it while it is decoded outside the lock.
			b = l.ring.buf[it.off : it.off+it.n]
		}
		delay := l.delayFor(int64(it.n))
		l.cond.Broadcast()
		l.mu.Unlock()

		l.batch.Record(1)
		if delay > 0 {
			select {
			case <-l.f.clk.After(delay):
			case <-l.f.closed:
				return
			}
		}
		if !l.deliver(b, it.done) {
			return
		}
		l.mu.Lock()
		if it.own == nil {
			l.ring.free(it.n)
		}
		l.busy = 0
		l.mu.Unlock()
	}
}

// delayFor computes base + size/bandwidth + jitter. Callers hold l.mu (for
// the rng).
func (l *link) delayFor(size int64) time.Duration {
	d := l.f.cfg.BaseLatency
	if bps := l.f.cfg.BytesPerSecond; bps > 0 {
		d += time.Duration(size * int64(time.Second) / bps)
	}
	if jf := l.f.cfg.JitterFraction; jf > 0 && d > 0 {
		d += time.Duration(l.rng.Float64() * jf * float64(d))
	}
	return d
}

// deliver decodes the encoded message b and hands it to the destination,
// parking while the destination is dead or stalled, then closes done (a
// rendezvous send's acceptance) when non-nil. Returns false when the
// fabric shut down.
func (l *link) deliver(b []byte, done chan struct{}) bool {
	r := l.f.ranks[l.to]
	r.mu.Lock()
	for !r.alive || r.stalled {
		select {
		case <-l.f.closed:
			r.mu.Unlock()
			return false
		default:
		}
		r.aliveCond.Wait()
	}
	box := r.box
	r.mu.Unlock()

	env := wire.GetEnvelope()
	if err := wire.DecodeInto(env, b); err != nil {
		// An encode/decode mismatch is a bug in this repository, not a
		// runtime condition: fail loudly.
		panic(fmt.Sprintf("fabric: corrupt envelope on link to %d: %v", l.to, err))
	}
	box.Push(env)
	if done != nil {
		close(done)
	}
	return true
}

// rankState is the destination-side view of one rank.
type rankState struct {
	mu        sync.Mutex
	alive     bool
	stalled   bool // delivery suspended (Stall), independent of alive
	aliveCond *sync.Cond
	box       *transport.Queue
	// admit is box while the rank is alive and not stalled, nil
	// otherwise: the inline path's whole admission check, one atomic
	// load instead of a round on mu. Written under mu by every
	// transition of alive, stalled and box (admitLocked).
	admit atomic.Pointer[transport.Queue]
}

func newRankState() *rankState {
	r := &rankState{alive: true, box: transport.NewQueue()}
	r.aliveCond = sync.NewCond(&r.mu)
	r.admitLocked()
	return r
}

// admitLocked republishes the admission pointer after a transition.
func (r *rankState) admitLocked() {
	if r.alive && !r.stalled {
		r.admit.Store(r.box)
	} else {
		r.admit.Store(nil)
	}
}

func (r *rankState) inbox() *transport.Queue {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.box
}
