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
	mu     sync.Mutex
	cond   sync.Cond
	queue  []*wire.Envelope
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
//
//windar:hotpath
func (b *Queue) Push(env *wire.Envelope) {
	b.mu.Lock()
	if !b.closed {
		b.queue = append(b.queue, env) //windar:allow hotpath — amortised: grows to the deepest backlog, then is reused
		b.cond.Signal()
	}
	b.mu.Unlock()
}

// PushBatch appends envs in order under one lock round and one wakeup.
func (b *Queue) PushBatch(envs []*wire.Envelope) {
	b.mu.Lock()
	if !b.closed {
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
	for len(b.queue) == 0 && !b.closed {
		b.cond.Wait()
	}
	if len(b.queue) == 0 {
		return buf, false
	}
	n := min(max(cap(buf)-len(buf), 1), len(b.queue))
	buf = append(buf, b.queue[:n]...)
	rest := copy(b.queue, b.queue[n:])
	clear(b.queue[rest:]) // release handed-out refs for the GC
	b.queue = b.queue[:rest]
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
	b.queue = nil
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
