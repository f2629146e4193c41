package transport

import (
	"testing"

	"windar/internal/wire"
)

// TestQueueDrainsBacklogInBatches drains a resend-burst-sized backlog in
// receiver-sized batches while the sender keeps pushing, and checks that
// every envelope comes out once, in push order, that no handed-out slot
// keeps its envelope, and that a Drop mid-drain ends the queue at once.
func TestQueueDrainsBacklogInBatches(t *testing.T) {
	const backlog, batch = 24_000, 64
	q := NewQueue()
	pushed := int64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			pushed++
			q.Push(&wire.Envelope{SendIndex: pushed})
		}
	}
	push(backlog)
	buf := make([]*wire.Envelope, 0, batch)
	next := int64(1)
	drain := func(upTo int64) {
		t.Helper()
		for next <= upTo {
			var ok bool
			if buf, ok = q.RecvBatch(buf[:0]); !ok {
				t.Fatalf("queue closed at %d", next)
			}
			if len(buf) == 0 || len(buf) > batch {
				t.Fatalf("batch of %d, want 1..%d", len(buf), batch)
			}
			for _, env := range buf {
				if env.SendIndex != next {
					t.Fatalf("received %d, want %d", env.SendIndex, next)
				}
				next++
			}
			q.mu.Lock()
			for i, env := range q.queue[:q.head] {
				if env != nil {
					t.Fatalf("slot %d still holds envelope %d after it was handed out", i, env.SendIndex)
				}
			}
			q.mu.Unlock()
		}
	}
	// Half the backlog out, then the sender refills it while the
	// receiver works: the FIFO slides into the slack or grows, in order.
	drain(backlog / 2)
	for round := 0; round < 100; round++ {
		push(3 * batch / 2)
		drain(next + batch - 1)
	}
	drain(pushed)

	push(backlog)
	drain(next + backlog/3)
	q.Drop()
	if got, ok := q.RecvBatch(buf[:0]); ok || len(got) != 0 {
		t.Fatalf("RecvBatch after Drop = %d envelopes, ok=%v; want none, ok=false", len(got), ok)
	}
}
