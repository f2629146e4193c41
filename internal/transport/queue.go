package transport

import (
	"sync"

	"windar/internal/wire"
)

// Queue is an unbounded closable FIFO of envelopes: the incarnation
// inbox behind both implementations' Inbox handles. A push after Close
// or Drop silently discards — the message is lost with the
// incarnation's volatile state, and the recovery protocol regenerates it
// from sender logs.
type Queue struct {
	mu   sync.Mutex
	cond sync.Cond
	// queue[head:] is the FIFO; queue[:head] is the slack RecvBatch leaves
	// behind (nil slots). A drained queue restarts at the front, and a
	// push that finds the array full slides the FIFO down into the slack
	// when the slack is at least half of it, and grows it otherwise — so
	// each slide's copy is paid for by as many receives, and a receive
	// costs its batch, not the backlog behind it.
	queue  []*wire.Envelope
	head   int
	closed bool
}

var _ BatchInbox = (*Queue)(nil)

// NewQueue returns an empty, open queue.
func NewQueue() *Queue {
	b := &Queue{}
	b.cond.L = &b.mu
	return b
}

// Push appends env.
func (b *Queue) Push(env *wire.Envelope) {
	b.mu.Lock()
	if !b.closed {
		b.makeRoom(1)
		b.queue = append(b.queue, env) // amortised: grows to the deepest backlog, then is reused
		b.cond.Signal()
	}
	b.mu.Unlock()
}

// makeRoom slides the FIFO to the front of the array when n more would
// not fit and the slack is at least half of it. Caller holds mu.
func (b *Queue) makeRoom(n int) {
	if h := b.head; h > 0 && 2*h >= len(b.queue) && len(b.queue)+n > cap(b.queue) {
		k := copy(b.queue, b.queue[h:])
		clear(b.queue[k:])
		b.queue, b.head = b.queue[:k], 0
	}
}

// PushBatch appends envs in order under one lock round and one wakeup.
func (b *Queue) PushBatch(envs []*wire.Envelope) {
	b.mu.Lock()
	if !b.closed {
		b.makeRoom(len(envs))
		b.queue = append(b.queue, envs...)
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

// Recv implements Inbox.
func (b *Queue) Recv() (*wire.Envelope, bool) {
	var one [1]*wire.Envelope
	got, ok := b.RecvBatch(one[:0:1])
	if !ok {
		return nil, false
	}
	return got[0], true
}

// RecvBatch implements BatchInbox: one blocking wait for the first
// envelope, then a non-blocking drain of whatever else is queued, up to
// buf's capacity. A dropped queue reports ok=false immediately (its
// content died with the incarnation); a closed one still drains the
// remainder first.
func (b *Queue) RecvBatch(buf []*wire.Envelope) ([]*wire.Envelope, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.head == len(b.queue) && !b.closed {
		b.cond.Wait()
	}
	q := b.queue[b.head:]
	if len(q) == 0 {
		return buf, false
	}
	n := min(max(cap(buf)-len(buf), 1), len(q))
	buf = append(buf, q[:n]...)
	clear(q[:n]) // release handed-out refs for the GC
	if b.head += n; b.head == len(b.queue) {
		b.queue, b.head = b.queue[:0], 0
	}
	return buf, true
}

// Close marks the queue closed for transport shutdown: receivers drain
// whatever is already queued, then see ok=false.
func (b *Queue) Close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Drop closes the queue and discards everything in it. Kill uses this
// instead of Close: the dead incarnation's accepted-but-undelivered
// messages are volatile state and must die with it, so a receiver
// racing the kill can never hand stale envelopes to the next
// incarnation's delivery path.
func (b *Queue) Drop() {
	b.mu.Lock()
	clear(b.queue)
	b.queue, b.head = nil, 0
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
