package tcp

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"windar/internal/transport"
	"windar/internal/wire"
)

func newT(t *testing.T, cfg Config) *Transport {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

// TestBoundedBufferBackpressure: once a link holds LinkBufferBytes of
// unacknowledged data toward a dead rank, further buffered sends block
// until the destination revives and drains — the limited
// communication-subsystem memory behaviour from the paper's Fig. 4(b).
func TestBoundedBufferBackpressure(t *testing.T) {
	tr := newT(t, Config{N: 2, LinkBufferBytes: 4096})
	tr.Kill(1)

	big := func(i int) *wire.Envelope {
		return &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1,
			SendIndex: int64(i), Payload: make([]byte, 3000)}
	}
	// First send is admitted regardless of size (an empty link never
	// rejects), second overflows the 4096-byte bound and must block.
	if err := tr.Send(big(0), transport.SendOpts{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tr.Send(big(1), transport.SendOpts{}) }()
	select {
	case err := <-done:
		t.Fatalf("overflowing send returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	tr.Revive(1)
	in := tr.Inbox(1)
	for i := 0; i < 2; i++ {
		env, ok := in.Recv()
		if !ok || env.SendIndex != int64(i) {
			t.Fatalf("delivery %d: ok=%v env=%+v", i, ok, env)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("blocked send failed after revive: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked send never unblocked after revive")
	}
}

// TestTrySendFullBuffer: at a link holding data toward a dead rank, the
// bound applies per frame — a send that would overflow LinkBufferBytes
// waits, while one that still fits is admitted at once — and the
// waiting send is ordered after the frames already accepted.
func TestTrySendFullBuffer(t *testing.T) {
	tr := newT(t, Config{N: 2, LinkBufferBytes: 4096})
	tr.Kill(1)

	send := func(env *wire.Envelope) <-chan error {
		done := make(chan error, 1)
		go func() { done <- tr.Send(env, transport.SendOpts{}) }()
		return done
	}
	admitted := func(what string, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s blocked", what)
		}
	}
	// An empty link admits a frame regardless of size, and 500 more
	// bytes still fit; a second 3000-byte frame overflows the bound.
	admitted("send on an empty link", send(sized(0, 3000)))
	admitted("a frame that fits", send(sized(1, 500)))
	done := send(sized(2, 3000))
	select {
	case err := <-done:
		t.Fatalf("overflowing send returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	tr.Revive(1)
	recvInOrder(t, tr.Inbox(1), 0, 2)
	admitted("blocked send after revive", done)
}

// TestAbortUnblocksBufferedSend: a send blocked on the bounded buffer
// observes its abort channel. As in the fabric, the abort channel is
// the sending rank's own kill: it is polled at wakeups, and Kill
// provides the wakeup broadcast.
func TestAbortUnblocksBufferedSend(t *testing.T) {
	tr := newT(t, Config{N: 2, LinkBufferBytes: 1024})
	tr.Kill(1)
	if err := tr.Send(&wire.Envelope{Kind: wire.KindApp, From: 0, To: 1,
		Payload: make([]byte, 900)}, transport.SendOpts{}); err != nil {
		t.Fatal(err)
	}
	abort := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- tr.Send(&wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: 1,
			Payload: make([]byte, 900)}, transport.SendOpts{Abort: abort})
	}()
	time.Sleep(20 * time.Millisecond)
	close(abort)
	tr.Kill(0) // the abort's source event; its broadcast wakes the waiter
	select {
	case err := <-done:
		if err != transport.ErrAborted {
			t.Fatalf("got %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not unblock the buffered send")
	}
}

// TestRepeatedKillReviveCycles hammers reconnects while a stream is in
// flight. Three invariants survive any interleaving: each incarnation
// sees strictly increasing indices, no index is inboxed twice across
// all incarnations (the in-process ack makes the loss window exact),
// and after the last revive the link converges — a final rendezvous
// marker is delivered.
func TestRepeatedKillReviveCycles(t *testing.T) {
	tr := newT(t, Config{N: 2})
	const total = 600
	const marker = int64(1 << 20)

	var rmu sync.Mutex
	received := map[int64]int{}
	markerSeen := make(chan struct{})
	readIncarnation := func(in transport.Inbox) {
		prev := int64(-1)
		for {
			env, ok := in.Recv()
			if !ok {
				return
			}
			if env.SendIndex <= prev {
				t.Errorf("incarnation saw %d after %d", env.SendIndex, prev)
				return
			}
			prev = env.SendIndex
			rmu.Lock()
			received[env.SendIndex]++
			rmu.Unlock()
			if env.SendIndex == marker {
				close(markerSeen)
				return
			}
		}
	}
	go readIncarnation(tr.Inbox(1))

	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		for i := 0; i < total; i++ {
			if err := tr.Send(&wire.Envelope{Kind: wire.KindApp, From: 0, To: 1,
				SendIndex: int64(i), Payload: []byte("x")}, transport.SendOpts{}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if i%50 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	for cycle := 0; cycle < 5; cycle++ {
		time.Sleep(3 * time.Millisecond)
		tr.Kill(1)
		time.Sleep(2 * time.Millisecond)
		tr.Revive(1)
		go readIncarnation(tr.Inbox(1))
	}
	<-sendDone

	if err := tr.Send(&wire.Envelope{Kind: wire.KindApp, From: 0, To: 1,
		SendIndex: marker}, transport.SendOpts{Rendezvous: true}); err != nil {
		t.Fatalf("marker send: %v", err)
	}
	select {
	case <-markerSeen:
	case <-time.After(20 * time.Second):
		t.Fatal("marker never delivered after reconnect cycles")
	}

	rmu.Lock()
	defer rmu.Unlock()
	delivered := 0
	for idx, n := range received {
		if n > 1 {
			t.Errorf("index %d inboxed %d times; loss window not exact", idx, n)
		}
		if idx != marker {
			delivered++
		}
	}
	t.Logf("delivered %d/%d across 6 incarnations (rest lost to kills)", delivered, total)
}

// TestSelfSend: a rank's loopback link to itself works like any other.
func TestSelfSend(t *testing.T) {
	tr := newT(t, Config{N: 1})
	if err := tr.Send(&wire.Envelope{Kind: wire.KindApp, From: 0, To: 0,
		Payload: []byte("self")}, transport.SendOpts{Rendezvous: true}); err != nil {
		t.Fatal(err)
	}
	env, ok := tr.Inbox(0).Recv()
	if !ok || string(env.Payload) != "self" {
		t.Fatalf("self send lost: ok=%v env=%+v", ok, env)
	}
}

// TestBadEndpointsRejected: out-of-range ranks error instead of
// corrupting link state.
func TestBadEndpointsRejected(t *testing.T) {
	tr := newT(t, Config{N: 2})
	for _, env := range []*wire.Envelope{
		{Kind: wire.KindApp, From: -1, To: 0},
		{Kind: wire.KindApp, From: 0, To: 2},
	} {
		if err := tr.Send(env, transport.SendOpts{}); err == nil {
			t.Fatalf("send %d->%d accepted", env.From, env.To)
		}
	}
}

// sized returns an app envelope 0→1 whose frame is a little over n bytes.
func sized(index, n int) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1,
		SendIndex: int64(index), Payload: make([]byte, n)}
}

// recvInOrder reads indices first..last from in, failing on any gap,
// duplicate or reordering.
func recvInOrder(t *testing.T, in transport.Inbox, first, last int) {
	t.Helper()
	for i := first; i <= last; i++ {
		env, ok := in.Recv()
		if !ok || env.SendIndex != int64(i) {
			t.Fatalf("delivery %d: ok=%v env=%+v", i, ok, env)
		}
	}
}

// TestFrameCountedAcks drives the ack accounting by hand on a link whose
// destination is dead (so its writer stays parked): ten frames share one
// chunk, a rendezvous send sits in the middle of it, and the test plays
// a writer that popped the chunk and a receiver that accepted its frames
// in two batches. The rendezvous returns at its own frame's ack — not
// the chunk's — and InFlight and the bounded buffer follow frame by
// frame. After Revive the chunk is retransmitted from its first
// unacknowledged frame boundary: the new connection delivers exactly the
// frames the first one never acknowledged, in order.
func TestFrameCountedAcks(t *testing.T) {
	tr := newT(t, Config{N: 2})
	tr.Kill(1)
	const frames, rendezvous = 10, 4
	rdv := make(chan error, 1)
	for i := 0; i < frames; i++ {
		if i == rendezvous {
			go func() { rdv <- tr.Send(sized(i, 100), transport.SendOpts{Rendezvous: true}) }()
			for tr.InFlight() != i+1 {
				time.Sleep(time.Millisecond)
			}
			continue
		}
		if err := tr.Send(sized(i, 100), transport.SendOpts{}); err != nil {
			t.Fatal(err)
		}
	}

	l := tr.links[0*2+1]
	l.mu.Lock()
	if len(l.queue) != 1 || len(l.queue[0].ends) != frames {
		t.Fatalf("want one chunk of %d frames, have %d chunks", frames, len(l.queue))
	}
	c := l.queue[0]
	l.queue = popFront(l.queue)
	l.unacked = append(l.unacked, c) // as the writer does before its Write
	l.gen++
	gen := l.gen
	l.base[gen] = l.acked
	total := l.pendingBytes
	l.mu.Unlock()

	l.ack(gen, rendezvous) // frames 0..3: everything before the rendezvous
	select {
	case err := <-rdv:
		t.Fatalf("rendezvous send returned (%v) before its frame was acknowledged", err)
	case <-time.After(20 * time.Millisecond):
	}
	l.ack(gen, rendezvous+1) // its own frame; five more of the chunk stay unacked
	select {
	case err := <-rdv:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rendezvous send did not return at its own frame's ack")
	}
	if got := tr.InFlight(); got != frames-rendezvous-1 {
		t.Fatalf("InFlight = %d after %d acks of %d frames", got, rendezvous+1, frames)
	}
	l.mu.Lock()
	if want := total / frames * (frames - rendezvous - 1); l.pendingBytes != want {
		t.Fatalf("pendingBytes = %d, want %d (equal-sized frames)", l.pendingBytes, want)
	}
	l.mu.Unlock()

	tr.Revive(1)
	recvInOrder(t, tr.Inbox(1), rendezvous+1, frames-1)
	for tr.InFlight() != 0 {
		time.Sleep(time.Millisecond)
	}
}

// TestConnectionDropsMidStream severs the receiving end of a busy link
// again and again without killing the rank, so nothing may be lost:
// whatever the dead connection had not acknowledged — usually a chunk
// acknowledged only in part — is retransmitted on the next one, and the
// inbox sees every frame exactly once, in order.
func TestConnectionDropsMidStream(t *testing.T) {
	tr := newT(t, Config{N: 2})
	const total = 4000
	go func() {
		for i := 0; i < total; i++ {
			if err := tr.Send(sized(i, 200), transport.SendOpts{}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	stop := make(chan struct{})
	partial := make(chan int, 1)
	go func() {
		r, l, n := tr.ranks[1], tr.links[0*2+1], 0
		for {
			select {
			case <-stop:
				partial <- n
				return
			case <-time.After(200 * time.Microsecond):
			}
			// Retire the connections as Kill does, but leave the rank and
			// its inbox alone. Under the rank lock no push+ack is in
			// progress, so the link's state is the state at the drop.
			r.mu.Lock()
			conns := r.retireConnsLocked()
			l.mu.Lock()
			if len(l.unacked) > 0 && l.unacked[0].acked > 0 {
				n++
			}
			l.mu.Unlock()
			r.mu.Unlock()
			for conn := range conns {
				conn.Close()
			}
		}
	}()
	recvInOrder(t, tr.Inbox(1), 0, total-1)
	close(stop)
	if n := <-partial; n == 0 {
		t.Log("no drop landed on a partially acknowledged chunk this run")
	} else {
		t.Logf("%d drops landed on a partially acknowledged chunk", n)
	}
}

// TestFrameLargerThanChunk: a frame far over the chunk cap and the read
// buffer travels in a chunk of its own, between small neighbours, and
// the receive buffer grows to hold it.
func TestFrameLargerThanChunk(t *testing.T) {
	tr := newT(t, Config{N: 2})
	big := sized(1, 1<<20)
	for i := range big.Payload {
		big.Payload[i] = byte(i * 7)
	}
	for _, env := range []*wire.Envelope{sized(0, 10), big, sized(2, 10)} {
		if err := tr.Send(env, transport.SendOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	in := tr.Inbox(1)
	recvInOrder(t, in, 0, 0)
	env, ok := in.Recv()
	if !ok || env.SendIndex != 1 || !bytes.Equal(env.Payload, big.Payload) {
		t.Fatalf("1 MiB frame did not round-trip: ok=%v index=%d len=%d", ok, env.SendIndex, len(env.Payload))
	}
	recvInOrder(t, in, 2, 2)
}

// TestDecodeFramesReportsCorruption: the batch decoder tells a corrupt
// stream (bad magic, bad version, a body that does not decode), which
// ends the connection, from a frame still arriving, which waits for
// more bytes — after returning every whole frame in front of either.
func TestDecodeFramesReportsCorruption(t *testing.T) {
	good := wire.AppendFrame(nil, &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: 1, Payload: []byte("x")})
	badBody := wire.AppendFrame(nil, &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: 2})
	badBody[len(badBody)-1] = 0xFF // the body's last varint now runs past its end
	for _, c := range []struct {
		name    string
		tail    []byte
		corrupt bool
	}{
		{"magic", []byte{wire.FrameMagic + 1}, true},
		{"version", []byte{wire.FrameMagic, wire.FrameVersion + 1}, true},
		{"body", badBody, true},
		{"prefix", good[:len(good)-1], false},
	} {
		b := append(append([]byte(nil), good...), c.tail...)
		batch, used, err := decodeFrames(nil, b)
		if len(batch) != 1 || used != len(good) {
			t.Errorf("%s: %d frames, %d bytes used; want the one whole frame, %d bytes", c.name, len(batch), used, len(good))
		}
		if (err != nil) != c.corrupt {
			t.Errorf("%s: err = %v, want corrupt = %v", c.name, err, c.corrupt)
		}
	}
}
