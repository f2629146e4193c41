// Package tcp implements transport.Transport over real TCP loopback
// connections: every ordered rank pair (from, to) gets its own TCP
// stream, so the kernel's byte-stream ordering is the per-link FIFO
// guarantee, and envelopes travel in the framed wire format rather than
// as in-process pointers. A message is framed once, by Send, straight
// into memory the link owns (wire.AppendFrame into a chunk of whole
// frames), and decoded once, from whatever a socket read returned, into
// a pooled envelope the harness recycles (wire.DecodeFrameInto); the
// frame-at-a-time wire.FrameReader is not used here.
//
// # Link protocol
//
// A connection starts with a hello (uvarint sender rank, uvarint
// connection generation) and then carries frames in the from→to
// direction. The sender keeps every frame buffered until the
// destination inbox accepts it: Send appends it to the link's tail
// chunk, the writer moves one whole chunk into the unacked window and
// then sends it with one Write, and acknowledgements — counted in
// frames — trim the window, so a connection that dies with a chunk half
// acknowledged is resumed from that chunk's first unacknowledged frame
// boundary. Acknowledgements do not travel back over the socket: the
// transport simulates a cluster inside one process, so the receive loop
// acknowledges in-process, atomically with the inbox push, making the
// accounting exact:
//
//   - an acknowledged frame was accepted by an inbox — if the rank is
//     later killed, the frame is lost with the inbox, exactly the
//     fabric's lost-message observable;
//   - an unacknowledged frame survives connection teardown and is
//     retransmitted, in order, on the next connection — so a message
//     accepted by Send while the destination is dead, or stranded in
//     the TCP stream when the kill closed the socket, parks on the
//     sender side and reaches the incarnation after Revive, exactly
//     the fabric's parked-delivery observable.
//
// The receive loop pushes and acknowledges once per socket read, not per
// frame. Kill serializes with that push+ack critical section on the rank
// lock, so after Kill returns every frame the dead incarnation inboxed
// is acked and every other frame is still queued for retransmission: the
// loss window equals the inbox contents, never more, never less.
//
// # Crash semantics
//
// Kill(rank) closes every inbound connection of the rank and drops its
// inbox: bytes in flight on the wire and messages waiting in the inbox
// die with the incarnation. Outbound traffic already accepted from the
// rank keeps flowing — the link queues belong to the network, matching
// the fabric, whose links deliver a dead sender's in-flight messages.
// Senders reconnect after Revive with bounded exponential backoff.
package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"windar/internal/clock"
	"windar/internal/obs"
	"windar/internal/transport"
	"windar/internal/wire"
)

// Config describes the TCP transport.
type Config struct {
	// N is the number of ranks. Required.
	N int
	// LinkBufferBytes bounds the bytes pending (queued + unacked) per
	// link; a buffered send blocks while the link is over this. 0
	// means DefaultLinkBuffer.
	LinkBufferBytes int64
	// DialBackoffMax caps the reconnect backoff. 0 means 100ms.
	DialBackoffMax time.Duration
	// Seed makes the reconnect-backoff jitter reproducible. Each link
	// derives its own RNG.
	Seed int64
	// Clock paces the reconnect backoff; default the real clock.
	Clock clock.Clock
	// Backoff, when non-nil, records every reconnect backoff delay the
	// dialing rank sleeps (per dialing rank, in nanoseconds) — the
	// tail-latency signal loopback runs otherwise hide. The recorded
	// value includes jitter: it is the delay actually slept.
	Backoff *obs.Family
	// Batch, if non-nil, records per-sender batch occupancy (frames per
	// link write).
	Batch *obs.Family
}

// DefaultLinkBuffer is used when Config.LinkBufferBytes is zero; it
// matches the fabric's default so the two transports exert the same
// send-side backpressure.
const DefaultLinkBuffer = 1 << 20

const (
	// chunkCap bounds the frames one link write carries: whatever Send
	// queued while the writer was busy, up to this many bytes — enough to
	// coalesce a burst of small protocol frames without holding a large
	// payload hostage behind the batch. A larger frame travels alone.
	chunkCap = 64 << 10
	// readBufMin is a connection's first read buffer; it doubles while
	// reads fill it, up to chunkCap, and beyond only to fit one frame.
	// A fresh send chunk starts with as much room, and with room for the
	// ends of 128 frames (readBufMin/32), so a burst of sends grows
	// neither slice from empty.
	readBufMin = 4 << 10
)

// Transport is the TCP loopback transport. Create with New, release
// with Close.
type Transport struct {
	cfg    Config
	clk    clock.Clock
	n      int
	maxBuf int64

	listeners []net.Listener
	addrs     []string

	links []*link      // n*n, indexed from*n+to
	ranks []*rankState // destination-side state

	closeOnce sync.Once
	closed    chan struct{}
}

var _ transport.Transport = (*Transport)(nil)

// New builds the transport: one loopback listener per rank, links
// created eagerly but dialed lazily on first use.
func New(cfg Config) (*Transport, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("tcp: invalid N=%d", cfg.N)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.LinkBufferBytes == 0 {
		cfg.LinkBufferBytes = DefaultLinkBuffer
	}
	if cfg.DialBackoffMax == 0 {
		cfg.DialBackoffMax = 100 * time.Millisecond
	}
	t := &Transport{
		cfg:       cfg,
		clk:       cfg.Clock,
		n:         cfg.N,
		maxBuf:    cfg.LinkBufferBytes,
		listeners: make([]net.Listener, cfg.N),
		addrs:     make([]string, cfg.N),
		links:     make([]*link, cfg.N*cfg.N),
		ranks:     make([]*rankState, cfg.N),
		closed:    make(chan struct{}),
	}
	for rank := 0; rank < cfg.N; rank++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("tcp: listen for rank %d: %w", rank, err)
		}
		t.listeners[rank] = ln
		t.addrs[rank] = ln.Addr().String()
		t.ranks[rank] = newRankState()
		go t.acceptLoop(rank, ln)
	}
	for from := 0; from < cfg.N; from++ {
		for to := 0; to < cfg.N; to++ {
			l := &link{
				t: t, from: from, to: to, base: map[int64]int64{},
				rng:   rand.New(rand.NewSource(cfg.Seed ^ int64(from*cfg.N+to)*0x5851F42D4C957F2D ^ 0x5DEECE66D)),
				batch: cfg.Batch.Rank(from),
			}
			l.work = sync.NewCond(&l.mu)
			l.space = sync.NewCond(&l.mu)
			t.links[from*cfg.N+to] = l
		}
	}
	return t, nil
}

// N implements transport.Transport.
func (t *Transport) N() int { return t.n }

// Kind implements transport.Transport.
func (t *Transport) Kind() transport.Kind { return transport.TCP }

func (t *Transport) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// linkFor returns env's (From, To) link, nil for endpoints out of range.
func (t *Transport) linkFor(env *wire.Envelope) *link {
	if env.From < 0 || env.From >= t.n || env.To < 0 || env.To >= t.n {
		return nil
	}
	return t.links[env.From*t.n+env.To]
}

// Send implements transport.Transport: the envelope is framed once,
// straight into the (From, To) link's tail chunk.
func (t *Transport) Send(env *wire.Envelope, opts transport.SendOpts) error {
	l := t.linkFor(env)
	if l == nil {
		return fmt.Errorf("tcp: bad endpoints %d->%d", env.From, env.To)
	}
	size := wire.FrameSize(env)
	l.mu.Lock()
	// The bounded buffer is the limited communication-subsystem memory
	// the paper blames for send-side blocking on large messages. The
	// abort channel is polled around cond waits — as in the fabric, it is
	// the sender's own kill, and Kill broadcasts every link.
	for !l.hasRoomLocked(size) {
		select {
		case <-opts.Abort:
			l.mu.Unlock()
			return transport.ErrAborted
		case <-t.closed:
			l.mu.Unlock()
			return transport.ErrAborted
		default:
		}
		l.space.Wait()
	}
	c := l.appendLocked(env, size)
	var done chan struct{}
	if opts.Rendezvous {
		done = make(chan struct{})
		c.waits = append(c.waits, waiter{frame: len(c.ends) - 1, done: done})
	}
	l.mu.Unlock()
	if done != nil {
		select {
		case <-done:
		case <-opts.Abort:
			return transport.ErrAborted
		case <-t.closed:
			return transport.ErrAborted
		}
	}
	return nil
}

// Inbox implements transport.Transport.
func (t *Transport) Inbox(rank int) transport.Inbox {
	return t.ranks[rank].inbox()
}

// Kill implements transport.Transport: drop the rank's inbox, sever its
// inbound connections (in-flight bytes die with them), and wake blocked
// senders so they can observe their abort channels.
func (t *Transport) Kill(rank int) {
	r := t.ranks[rank]
	r.alive.Store(false)
	r.mu.Lock()
	old := r.box
	r.box = transport.NewQueue()
	conns := r.retireConnsLocked()
	r.mu.Unlock()
	old.Drop()
	for conn := range conns {
		conn.Close()
	}
	// Kills are rare: a global broadcast lets writers targeting the dead
	// rank park and blocked Sends poll their abort channels.
	for _, l := range t.links {
		l.wake()
	}
}

// Revive implements transport.Transport: the next inbound connections
// feed the incarnation's fresh inbox (installed at Kill), and parked
// links re-dial.
func (t *Transport) Revive(rank int) {
	t.ranks[rank].alive.Store(true)
	for from := 0; from < t.n; from++ {
		t.links[from*t.n+rank].wake()
	}
}

// Stall implements transport.Transport: inbound receive loops hold
// frames unacked until Unstall, so parked messages survive kills via
// sender-side retransmission exactly like dead-window traffic.
func (t *Transport) Stall(rank int) {
	r := t.ranks[rank]
	r.mu.Lock()
	r.stalled = true
	r.mu.Unlock()
}

// Unstall implements transport.Transport.
func (t *Transport) Unstall(rank int) {
	r := t.ranks[rank]
	r.mu.Lock()
	r.stalled = false
	r.stallCond.Broadcast()
	r.mu.Unlock()
}

// Alive implements transport.Transport.
func (t *Transport) Alive(rank int) bool {
	return t.ranks[rank].alive.Load()
}

// InFlight implements transport.Transport: frames accepted by Send but
// not yet accepted by a destination inbox.
func (t *Transport) InFlight() int {
	total := 0
	for _, l := range t.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		total += l.frames
		l.mu.Unlock()
	}
	return total
}

// Close implements transport.Transport.
func (t *Transport) Close() {
	t.closeOnce.Do(func() {
		close(t.closed)
		for _, ln := range t.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		for _, r := range t.ranks {
			if r == nil {
				continue
			}
			r.mu.Lock()
			conns := r.retireConnsLocked()
			box := r.box
			r.mu.Unlock()
			box.Close()
			for conn := range conns {
				conn.Close()
			}
		}
		for _, l := range t.links {
			if l == nil {
				continue
			}
			l.mu.Lock()
			if l.conn != nil {
				l.conn.Close()
			}
			l.mu.Unlock()
			l.wake()
		}
	})
}

// acceptLoop serves one rank's listener until Close.
func (t *Transport) acceptLoop(rank int, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go t.serveConn(rank, conn)
	}
}

// serveConn is the receiver side of one link connection. It pins the
// rank's current inbox (incarnation isolation) and then, for every
// socket read, decodes the complete frames in it, pushes them to the
// inbox and acknowledges them on the sender's link in-process — push and
// ack under the rank lock, so a Kill observes either the whole batch
// pushed and acked or none of it. A connection accepted while the rank
// is dead is refused; the dialer parks until Revive.
func (t *Transport) serveConn(rank int, conn net.Conn) {
	from, gen, err := readHello(conn)
	if err != nil || from < 0 || int(from) >= t.n {
		conn.Close()
		return
	}
	l := t.links[int(from)*t.n+rank]

	r := t.ranks[rank]
	r.mu.Lock()
	if !r.alive.Load() {
		r.mu.Unlock()
		conn.Close()
		return
	}
	box := r.box
	r.conns[conn] = struct{}{}
	r.mu.Unlock()
	defer func() {
		conn.Close()
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
	}()

	var (
		buf    []byte           // buf[:have] is read but not yet decoded
		have   int              //
		filled bool             // the last read filled buf: more was waiting in the socket
		batch  []*wire.Envelope // decoded from the last read
		count  int64            // frames pushed over this connection
	)
	for {
		// Grow when the frame at the front does not fit, and — up to
		// chunkCap — while reads keep filling the buffer.
		if have == len(buf) || filled && len(buf) < chunkCap {
			grown := make([]byte, max(readBufMin, 2*len(buf)))
			copy(grown, buf[:have])
			buf = grown
		}
		n, rerr := conn.Read(buf[have:])
		have += n
		filled = have == len(buf)
		var used int
		var derr error
		batch, used, derr = decodeFrames(batch[:0], buf[:have])
		have = copy(buf, buf[used:have])
		if len(batch) > 0 {
			r.mu.Lock()
			// A stalled rank parks the batch here, unacked, so InFlight
			// counts it and Unstall releases it in stream order. Kill and
			// Close retire the connection: re-checked after every wake.
			for r.stalled && r.servingLocked(conn) {
				r.stallCond.Wait()
			}
			if !r.servingLocked(conn) {
				// The incarnation this connection fed was killed: the
				// batch stays unacked and reaches the next one by
				// retransmission on a fresh connection.
				r.mu.Unlock()
				for _, env := range batch {
					wire.Recycle(env)
				}
				return
			}
			box.PushBatch(batch)
			count += int64(len(batch))
			l.ack(gen, count)
			r.mu.Unlock()
			clear(batch) // the inbox owns the envelopes now
		}
		if rerr != nil || derr != nil {
			return // EOF, a severed socket, or a corrupt stream
		}
	}
}

// decodeFrames decodes every complete frame in b into a pooled envelope
// appended to batch, and returns the bytes those frames took; the rest of
// b is the prefix of a frame still in the socket. A non-nil error means
// the stream is corrupt after the frames returned.
func decodeFrames(batch []*wire.Envelope, b []byte) ([]*wire.Envelope, int, error) {
	used := 0
	for used < len(b) {
		env := wire.GetEnvelope()
		n, err := wire.DecodeFrameInto(env, b[used:])
		if n == 0 {
			wire.Recycle(env)
			return batch, used, err
		}
		batch = append(batch, env) // amortized: grows to the largest batch once, then reused
		used += n
	}
	return batch, used, nil
}

// readHello reads the dial-time preamble (sender rank, connection
// generation) byte-by-byte so no stream bytes are consumed before the
// frame decoder takes over.
func readHello(conn net.Conn) (from, gen int64, err error) {
	u := func() (int64, error) {
		var x uint64
		var s uint
		var b [1]byte
		for i := 0; i < binary.MaxVarintLen64; i++ {
			if _, err := io.ReadFull(conn, b[:]); err != nil {
				return 0, err
			}
			c := b[0]
			if c < 0x80 {
				return int64(x | uint64(c)<<s), nil
			}
			x |= uint64(c&0x7f) << s
			s += 7
		}
		return 0, fmt.Errorf("tcp: hello varint overflow")
	}
	if from, err = u(); err != nil {
		return 0, 0, err
	}
	if gen, err = u(); err != nil {
		return 0, 0, err
	}
	return from, gen, nil
}

// chunk is a run of whole frames back to back in one buffer: what Send
// queued while the link's writer was busy, and what one Write carries.
// Send appends to it while it is the tail of the queue; the writer pops
// it into the unacked window, then writes it; frame-counted acks consume
// it front to back; fully acked, it waits for the writer goroutine — the
// only one that knows no Write still reads buf — to make it reusable.
type chunk struct {
	buf   []byte
	ends  []int    // ends[i] is the offset in buf just past frame i
	acked int      // leading frames the destination inbox has accepted
	waits []waiter // rendezvous senders, in frame order
}

// waiter is a rendezvous Send blocked until its frame is acknowledged.
type waiter struct {
	frame int // index into the chunk's ends
	done  chan struct{}
}

// unackedFrom is the offset of the chunk's first unacknowledged frame.
func (c *chunk) unackedFrom() int {
	if c.acked == 0 {
		return 0
	}
	return c.ends[c.acked-1]
}

// link is the sender side of one ordered-pair TCP stream. A single
// writer goroutine preserves FIFO across dials; the in-process ack path
// trims the unacked window.
type link struct {
	t        *Transport
	from, to int

	mu    sync.Mutex
	work  *sync.Cond // the writer parks here: nothing to write, or the destination is dead
	space *sync.Cond // buffered Sends park here while the link is over its byte bound

	queue   []*chunk // accepted, not yet handed to a Write; Send appends to the last
	unacked []*chunk // handed to a Write, awaiting acks from the inbox
	done    []*chunk // fully acked; the writer moves them to free between Writes
	free    []*chunk // reusable by Send

	frames       int             // frames across queue+unacked not yet acked
	pendingBytes int64           // their bytes (the bounded buffer)
	conn         net.Conn        // current connection, nil while down
	gen          int64           // generation of the current connection
	base         map[int64]int64 // lifetime ack total at each generation's birth
	acked        int64           // frames acked over the link's lifetime
	started      bool            // writer goroutine launched

	// rng (backoff jitter) and batch (occupancy histogram, nil-safe)
	// are touched only by the writer goroutine.
	rng   *rand.Rand
	batch *obs.Hist
}

// hasRoomLocked applies the bounded-buffer rule: a frame is admitted
// while the link stays within LinkBufferBytes, and an empty link never
// rejects (so a frame larger than the bound still travels).
func (l *link) hasRoomLocked(size int) bool {
	return l.pendingBytes+int64(size) <= l.t.maxBuf || l.pendingBytes == 0
}

// appendLocked frames env (size = wire.FrameSize) into the tail chunk,
// opening a new one when the frame would take the tail past chunkCap,
// and returns the chunk. The writer is woken only when the queue was
// empty: otherwise it is mid-Write and will find the frame, or parked on
// a dead destination, where no frame helps.
func (l *link) appendLocked(env *wire.Envelope, size int) *chunk {
	var c *chunk
	if n := len(l.queue); n > 0 && len(l.queue[n-1].buf)+size <= chunkCap {
		c = l.queue[n-1]
	} else {
		c = l.newChunkLocked()
		l.queue = append(l.queue, c) // amortized: a handful of chunk pointers, grown once
		if n == 0 {
			l.work.Signal()
		}
	}
	c.buf = wire.AppendFrame(slices.Grow(c.buf, size), env) // amortized: a chunk grows to its link's burst size once, then is reused
	c.ends = append(c.ends, len(c.buf))                     // amortized with buf
	l.frames++
	l.pendingBytes += int64(size)
	return c
}

// newChunkLocked returns an empty chunk, recycled when one is free, and
// makes sure the link has its writer.
func (l *link) newChunkLocked() *chunk {
	if !l.started {
		l.started = true
		go l.run()
	}
	if n := len(l.free); n > 0 {
		c := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return c
	}
	return &chunk{buf: make([]byte, 0, readBufMin), ends: make([]int, 0, readBufMin/32)}
}

// wake makes the link's writer and its blocked senders re-check the
// world (Kill, Revive, Close).
func (l *link) wake() {
	l.mu.Lock()
	l.work.Broadcast()
	l.space.Broadcast()
	l.mu.Unlock()
}

// run is the link's writer: it dials when there is work and the
// destination is alive, retransmits the unacked window on every fresh
// connection, then streams the queue a chunk at a time. Exits on
// transport Close.
func (l *link) run() {
	for {
		l.mu.Lock()
		// No Write is in progress here, so nothing still reads the
		// buffers of fully acked chunks: only now may Send reuse them.
		for i, c := range l.done {
			if len(c.buf) <= chunkCap { // a lone oversized frame's buffer is not worth keeping
				c.buf, c.ends, c.waits, c.acked = c.buf[:0], c.ends[:0], c.waits[:0], 0
				l.free = append(l.free, c)
			}
			l.done[i] = nil
		}
		l.done = l.done[:0]
		for {
			if l.t.isClosed() {
				l.mu.Unlock()
				return
			}
			if l.conn == nil {
				if l.frames > 0 && l.t.Alive(l.to) {
					break
				}
			} else if len(l.queue) > 0 {
				break
			}
			l.work.Wait()
		}

		if l.conn == nil {
			l.mu.Unlock()
			conn, ok := l.dial()
			if !ok {
				continue // closed, or destination died again: re-park
			}
			l.mu.Lock()
			l.conn = conn
			l.gen++
			gen := l.gen
			l.base[gen] = l.acked
			// The unacked window restarts at its first unacknowledged
			// frame boundary, which may be inside the head chunk.
			retrans := make([][]byte, len(l.unacked))
			for i, c := range l.unacked {
				retrans[i] = c.buf[c.unackedFrom():]
			}
			l.mu.Unlock()
			// The receiver writes nothing back; a watchdog read detects
			// the connection dying (destination kill) even while this
			// writer is idle, so parked rendezvous frames reconnect.
			go l.watch(conn)
			if !l.writeHello(conn, gen) {
				continue
			}
			for _, b := range retrans {
				if !l.write(conn, b) {
					break
				}
			}
			continue
		}

		// Pop one whole chunk into the unacked window BEFORE writing it:
		// a write error then leaves every frame of it queued for
		// retransmission on the next connection.
		c := l.queue[0]
		l.queue = popFront(l.queue)
		l.unacked = append(l.unacked, c)
		conn := l.conn
		l.mu.Unlock()
		l.batch.Record(int64(len(c.ends)))
		l.write(conn, c.buf)
	}
}

// writeHello sends the dial-time preamble identifying the sender rank
// and connection generation.
func (l *link) writeHello(conn net.Conn, gen int64) bool {
	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(l.from))
	n += binary.PutUvarint(buf[n:], uint64(gen))
	return l.write(conn, buf[:n])
}

// write sends b; on error the connection is torn down and whatever b
// carried stays in the unacked window for retransmission.
func (l *link) write(conn net.Conn, b []byte) bool {
	if _, err := conn.Write(b); err != nil {
		l.dropConn(conn)
		return false
	}
	return true
}

// watch blocks reading the (otherwise silent) return direction of conn
// and retires the connection when it dies.
func (l *link) watch(conn net.Conn) {
	var b [1]byte
	for {
		if _, err := conn.Read(b[:]); err != nil {
			l.dropConn(conn)
			return
		}
	}
}

// dial connects to the destination with bounded exponential backoff,
// giving up when the transport closes or the destination dies.
func (l *link) dial() (net.Conn, bool) {
	backoff := time.Millisecond
	for {
		if l.t.isClosed() || !l.t.Alive(l.to) {
			return nil, false
		}
		conn, err := net.Dial("tcp", l.t.addrs[l.to])
		if err == nil {
			return conn, true
		}
		// Jitter desynchronizes the reconnect herd: every link dialing a
		// revived rank would otherwise retry on the same deterministic
		// schedule. Sleep a uniform pick from [backoff/2, backoff] and
		// record the delay actually slept.
		sleep := backoff/2 + time.Duration(l.rng.Int63n(int64(backoff/2)+1))
		l.t.cfg.Backoff.Rank(l.from).RecordDuration(sleep)
		select {
		case <-l.t.closed:
			return nil, false
		case <-l.t.clk.After(sleep):
		}
		if backoff *= 2; backoff > l.t.cfg.DialBackoffMax {
			backoff = l.t.cfg.DialBackoffMax
		}
	}
}

// dropConn retires conn if it is still the link's current connection.
func (l *link) dropConn(conn net.Conn) {
	conn.Close()
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.work.Broadcast()
	l.mu.Unlock()
}

// ack records that the destination inbox has accepted the first count
// frames of connection generation gen. Called in-process by the receive
// loop, under the destination's rank lock. The newly acknowledged frames
// leave the unacked window front to back — a chunk may be left partly
// acked — freeing their buffer space and completing their rendezvous.
func (l *link) ack(gen, count int64) {
	l.mu.Lock()
	n := int(l.base[gen] + count - l.acked)
	for n > 0 && len(l.unacked) > 0 {
		c := l.unacked[0]
		k := min(n, len(c.ends)-c.acked)
		from := c.unackedFrom()
		c.acked += k
		l.pendingBytes -= int64(c.unackedFrom() - from)
		l.frames -= k
		l.acked += int64(k)
		n -= k
		for len(c.waits) > 0 && c.waits[0].frame < c.acked {
			close(c.waits[0].done)
			c.waits = c.waits[1:]
		}
		if c.acked == len(c.ends) {
			l.unacked = popFront(l.unacked)
			l.done = append(l.done, c)
		}
	}
	l.space.Broadcast()
	l.mu.Unlock()
}

// popFront removes q's head by sliding the rest down, so the backing
// array is reused instead of regrown by the next append.
func popFront(q []*chunk) []*chunk {
	n := copy(q, q[1:])
	q[n] = nil
	return q[:n]
}

// rankState is the destination-side view of one rank.
type rankState struct {
	alive     atomic.Bool
	mu        sync.Mutex
	stalled   bool       // delivery suspended (Stall), independent of alive
	stallCond *sync.Cond // on mu; broadcast on Unstall / Kill / Close
	box       *transport.Queue
	conns     map[net.Conn]struct{} // inbound conns feeding the current incarnation
}

func newRankState() *rankState {
	r := &rankState{box: transport.NewQueue(), conns: map[net.Conn]struct{}{}}
	r.stallCond = sync.NewCond(&r.mu)
	r.alive.Store(true)
	return r
}

func (r *rankState) inbox() *transport.Queue {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.box
}

// servingLocked reports whether conn still feeds the rank's current
// incarnation: Kill and Close retire every inbound connection.
func (r *rankState) servingLocked(conn net.Conn) bool {
	_, ok := r.conns[conn]
	return ok
}

// retireConnsLocked detaches every inbound connection — from here on
// none of them pushes or acknowledges another frame — and returns them
// for the caller to close outside the lock.
func (r *rankState) retireConnsLocked() map[net.Conn]struct{} {
	conns := r.conns
	r.conns = map[net.Conn]struct{}{}
	r.stallCond.Broadcast() // stalled receive loops re-check servingLocked
	return conns
}
