// Conformance suite: every test runs against both Transport
// implementations, pinning the shared failure contract documented on
// the package — per-pair FIFO, inbox-drop on Kill, parked delivery
// across a dead window, rendezvous and abort semantics.
package transport_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"windar/internal/fabric"
	"windar/internal/transport"
	"windar/internal/transport/mem"
	"windar/internal/transport/tcp"
	"windar/internal/wire"
)

// each runs fn once per implementation on a fresh n-rank transport.
func each(t *testing.T, n int, fn func(t *testing.T, tr transport.Transport)) {
	t.Run("mem", func(t *testing.T) {
		tr := mem.New(fabric.Config{N: n, BaseLatency: 50 * time.Microsecond, Seed: 7})
		defer tr.Close()
		fn(t, tr)
	})
	t.Run("tcp", func(t *testing.T) { fn(t, newTCP(t, n)) })
}

// newTCP builds an n-rank tcp transport closed when the test ends.
func newTCP(t *testing.T, n int) *tcp.Transport {
	tr, err := tcp.New(tcp.Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func appEnv(from, to, index int) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindApp, From: from, To: to, SendIndex: int64(index),
		Payload: []byte(fmt.Sprintf("m%d", index)),
	}
}

func mustSend(t *testing.T, tr transport.Transport, env *wire.Envelope, opts transport.SendOpts) {
	t.Helper()
	if err := tr.Send(env, opts); err != nil {
		t.Fatalf("send %d->%d index %d: %v", env.From, env.To, env.SendIndex, err)
	}
}

// waitDrained polls until no accepted message is outside an inbox.
func waitDrained(t *testing.T, tr transport.Transport) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tr.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never drained: %d", tr.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestKindAndN(t *testing.T) {
	each(t, 3, func(t *testing.T, tr transport.Transport) {
		if tr.N() != 3 {
			t.Fatalf("N=%d, want 3", tr.N())
		}
		if k := tr.Kind(); k != transport.Mem && k != transport.TCP {
			t.Fatalf("unexpected kind %q", k)
		}
		for r := 0; r < 3; r++ {
			if !tr.Alive(r) {
				t.Fatalf("rank %d not alive at start", r)
			}
		}
	})
}

// checkFIFOPerPair: messages on one ordered pair arrive in send order.
func checkFIFOPerPair(t *testing.T, tr transport.Transport) {
	const count = 500
	in := tr.Inbox(1)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < count; i++ {
			env, ok := in.Recv()
			if !ok {
				done <- fmt.Errorf("inbox closed at %d", i)
				return
			}
			if env.SendIndex != int64(i) {
				done <- fmt.Errorf("got index %d, want %d", env.SendIndex, i)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < count; i++ {
		mustSend(t, tr, appEnv(0, 1, i), transport.SendOpts{})
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerPair(t *testing.T) {
	each(t, 2, checkFIFOPerPair)
}

// TestFIFOPerPairAcrossSenderIncarnations: a (from, to) link outlives
// the sender's incarnations. Nothing incarnation I of rank 0 handed the
// transport reaches rank 1 after an envelope rank 0 sent after Revive —
// whether the old stream was mid-flight at the sender's kill, parked at
// a dead destination, or both. The harness's resync floors rest on it.
func TestFIFOPerPairAcrossSenderIncarnations(t *testing.T) {
	const newCount = 50
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		for round, destDead := range []bool{false, true, false, true} {
			oldInc, newInc := int32(2*round), int32(2*round+1)
			if destDead {
				tr.Kill(1)
			}
			abort := make(chan struct{})
			oldDone := make(chan struct{})
			go func() {
				// The old incarnation streams until its kill, so the kill
				// always lands mid-stream.
				defer close(oldDone)
				for i := 0; ; i++ {
					select {
					case <-abort:
						return
					default:
					}
					env := appEnv(0, 1, i)
					env.Incarnation = oldInc
					if tr.Send(env, transport.SendOpts{Abort: abort}) != nil {
						return
					}
					if i%10 == 0 {
						time.Sleep(20 * time.Microsecond)
					}
				}
			}()
			time.Sleep(time.Millisecond)
			close(abort) // the sender's kill, as the harness orders it
			tr.Kill(0)
			<-oldDone
			tr.Revive(0)
			for i := 0; i < newCount; i++ {
				env := appEnv(0, 1, i)
				env.Incarnation = newInc
				mustSend(t, tr, env, transport.SendOpts{})
			}
			if destDead {
				tr.Revive(1)
			}
			in := tr.Inbox(1)
			next, oldSeen := 0, 0
			for next < newCount {
				env, ok := in.Recv()
				if !ok {
					t.Fatalf("round %d: inbox closed", round)
				}
				switch env.Incarnation {
				case oldInc:
					if next > 0 {
						t.Fatalf("round %d: incarnation %d's message %d arrived after incarnation %d's %d",
							round, oldInc, env.SendIndex, newInc, next-1)
					}
					oldSeen++
				case newInc:
					if env.SendIndex != int64(next) {
						t.Fatalf("round %d: new incarnation's message %d arrived as #%d", round, env.SendIndex, next)
					}
					next++
				default:
					t.Fatalf("round %d: message from incarnation %d", round, env.Incarnation)
				}
			}
			t.Logf("round %d (destination dead: %v): %d old-incarnation messages, then %d new", round, destDead, oldSeen, newCount)
		}
	})
}

// TestKillUnblocksReceiver: a Recv blocked on the killed incarnation's
// inbox returns ok=false, and the stale handle stays dead after Revive.
func TestKillUnblocksReceiver(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		in := tr.Inbox(1)
		unblocked := make(chan bool, 1)
		go func() {
			_, ok := in.Recv()
			unblocked <- ok
		}()
		time.Sleep(10 * time.Millisecond)
		tr.Kill(1)
		select {
		case ok := <-unblocked:
			if ok {
				t.Fatal("Recv returned ok=true from a killed inbox")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Recv did not unblock on Kill")
		}
		tr.Revive(1)
		if _, ok := in.Recv(); ok {
			t.Fatal("stale inbox handle delivered after Revive")
		}
	})
}

// TestKillDropsInboxedMessages: messages already accepted by the inbox
// are lost with the incarnation; the revived rank sees only later
// traffic.
func TestKillDropsInboxedMessages(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		for i := 0; i < 5; i++ {
			mustSend(t, tr, appEnv(0, 1, i), transport.SendOpts{})
		}
		waitDrained(t, tr) // all five are in the inbox, none consumed
		tr.Kill(1)
		tr.Revive(1)
		mustSend(t, tr, appEnv(0, 1, 100), transport.SendOpts{})
		env, ok := tr.Inbox(1).Recv()
		if !ok {
			t.Fatal("revived inbox closed")
		}
		if env.SendIndex != 100 {
			t.Fatalf("revived rank received pre-kill message %d", env.SendIndex)
		}
	})
}

// TestParkedDeliveryAcrossDeadWindow: buffered sends accepted while the
// destination is dead park and reach the next incarnation, in order.
func TestParkedDeliveryAcrossDeadWindow(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		tr.Kill(1)
		for i := 0; i < 3; i++ {
			mustSend(t, tr, appEnv(0, 1, i), transport.SendOpts{})
		}
		time.Sleep(20 * time.Millisecond) // the dead window
		tr.Revive(1)
		in := tr.Inbox(1)
		for i := 0; i < 3; i++ {
			env, ok := in.Recv()
			if !ok {
				t.Fatalf("inbox closed at %d", i)
			}
			if env.SendIndex != int64(i) {
				t.Fatalf("parked delivery out of order: got %d, want %d", env.SendIndex, i)
			}
		}
	})
}

// TestRendezvousBlocksUntilAccepted: a rendezvous send to a dead rank
// completes only after Revive.
func TestRendezvousBlocksUntilAccepted(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		tr.Kill(1)
		done := make(chan error, 1)
		go func() {
			done <- tr.Send(appEnv(0, 1, 0), transport.SendOpts{Rendezvous: true})
		}()
		select {
		case err := <-done:
			t.Fatalf("rendezvous send to dead rank returned early: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		tr.Revive(1)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("rendezvous send after revive: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("rendezvous send never completed after Revive")
		}
		if env, ok := tr.Inbox(1).Recv(); !ok || env.SendIndex != 0 {
			t.Fatalf("revived rank did not receive the rendezvous message (ok=%v)", ok)
		}
	})
}

// TestAbortUnblocksRendezvous: the abort channel (the sender's own
// kill) releases a blocked rendezvous send with ErrAborted.
func TestAbortUnblocksRendezvous(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		tr.Kill(1)
		abort := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- tr.Send(appEnv(0, 1, 0), transport.SendOpts{Rendezvous: true, Abort: abort})
		}()
		time.Sleep(20 * time.Millisecond)
		close(abort)
		select {
		case err := <-done:
			if !errors.Is(err, transport.ErrAborted) {
				t.Fatalf("aborted rendezvous returned %v, want ErrAborted", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("abort did not unblock the rendezvous send")
		}
	})
}

// TestCrossPairConcurrency: concurrent senders to one destination each
// keep their own FIFO; nothing is lost without failures.
func TestCrossPairConcurrency(t *testing.T) {
	const senders, count = 3, 200
	each(t, senders+1, func(t *testing.T, tr transport.Transport) {
		dest := senders
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < count; i++ {
					if err := tr.Send(appEnv(s, dest, i), transport.SendOpts{}); err != nil {
						t.Errorf("send from %d: %v", s, err)
						return
					}
				}
			}(s)
		}
		in := tr.Inbox(dest)
		next := make([]int64, senders)
		for got := 0; got < senders*count; got++ {
			env, ok := in.Recv()
			if !ok {
				t.Fatalf("inbox closed after %d messages", got)
			}
			if env.SendIndex != next[env.From] {
				t.Fatalf("per-pair FIFO broken from %d: got %d, want %d",
					env.From, env.SendIndex, next[env.From])
			}
			next[env.From]++
		}
		wg.Wait()
	})
}

// TestLossWindowIsContiguous kills the destination mid-stream: the old
// incarnation reads a prefix, the kill loses a contiguous window, and
// the new incarnation receives a contiguous ordered suffix — the loss
// observable the recovery protocols are built against.
func TestLossWindowIsContiguous(t *testing.T) {
	const count = 1000
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		oldIn := tr.Inbox(1)
		oldMax := int64(-1)
		oldDone := make(chan struct{})
		go func() {
			defer close(oldDone)
			prev := int64(-1)
			for {
				env, ok := oldIn.Recv()
				if !ok {
					return
				}
				if env.SendIndex != prev+1 {
					t.Errorf("old incarnation gap: got %d after %d", env.SendIndex, prev)
					return
				}
				prev = env.SendIndex
				oldMax = prev
			}
		}()

		go func() {
			for i := 0; i < count; i++ {
				// Sends may legitimately block while the destination is
				// dead and the link buffer fills; no failure expected.
				if err := tr.Send(appEnv(0, 1, i), transport.SendOpts{}); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
				if i%20 == 0 {
					// Pace the stream so the kill lands mid-flight.
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()

		time.Sleep(2 * time.Millisecond)
		tr.Kill(1)
		<-oldDone
		if oldMax == count-1 {
			t.Log("kill landed after the full stream drained; loss window empty")
			return
		}
		time.Sleep(5 * time.Millisecond)
		tr.Revive(1)

		newIn := tr.Inbox(1)
		first, prev := int64(-1), int64(-1)
		for {
			env, ok := newIn.Recv()
			if !ok {
				t.Fatal("new incarnation inbox closed")
			}
			if first == -1 {
				first = env.SendIndex
				if first <= oldMax {
					t.Fatalf("new incarnation saw index %d already read by old (max %d)", first, oldMax)
				}
			} else if env.SendIndex != prev+1 {
				t.Fatalf("new incarnation gap: got %d after %d", env.SendIndex, prev)
			}
			prev = env.SendIndex
			if prev == count-1 {
				break
			}
		}
		t.Logf("old read [0..%d], lost (%d..%d), new received [%d..%d]",
			oldMax, oldMax, first, first, count-1)
	})
}

// TestCloseUnblocksEverything: Close releases blocked receivers and
// blocked rendezvous senders.
func TestCloseUnblocksEverything(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		recvDone := make(chan bool, 1)
		go func() {
			_, ok := tr.Inbox(1).Recv()
			recvDone <- ok
		}()
		tr.Kill(0) // only to make the send below park
		sendDone := make(chan error, 1)
		go func() {
			sendDone <- tr.Send(appEnv(1, 0, 0), transport.SendOpts{Rendezvous: true})
		}()
		time.Sleep(20 * time.Millisecond)
		tr.Close()
		select {
		case ok := <-recvDone:
			if ok {
				t.Fatal("Recv returned ok=true after Close")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not unblock Recv")
		}
		select {
		case err := <-sendDone:
			if err == nil {
				t.Fatal("blocked rendezvous send returned nil after Close")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not unblock the rendezvous send")
		}
	})
}

// TestStallParksDelivery: while a rank is stalled, accepted messages
// stay in flight and its inbox receives nothing; Unstall releases them
// in FIFO order with no loss.
func TestStallParksDelivery(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		tr.Stall(1)
		for i := 0; i < 3; i++ {
			mustSend(t, tr, appEnv(0, 1, i), transport.SendOpts{})
		}
		in := tr.Inbox(1)
		got := make(chan *wire.Envelope, 3)
		go func() {
			for {
				env, ok := in.Recv()
				if !ok {
					return
				}
				got <- env
			}
		}()
		select {
		case env := <-got:
			t.Fatalf("stalled rank delivered message %d", env.SendIndex)
		case <-time.After(50 * time.Millisecond):
		}
		if tr.InFlight() == 0 {
			t.Fatal("stalled messages not counted as in flight")
		}
		tr.Unstall(1)
		for i := 0; i < 3; i++ {
			select {
			case env := <-got:
				if env.SendIndex != int64(i) {
					t.Fatalf("post-stall delivery out of order: got %d, want %d", env.SendIndex, i)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("message %d never delivered after Unstall", i)
			}
		}
	})
}

// TestStallSurvivesKill: a kill during a stall loses only inboxed
// state; stalled-parked messages — on tcp a batch already decoded but
// not yet pushed — stay in flight across the kill, reach the next
// incarnation after Unstall, and the stall itself is independent of
// Revive.
func TestStallSurvivesKill(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		tr.Stall(1)
		for i := 0; i < 3; i++ {
			mustSend(t, tr, appEnv(0, 1, i), transport.SendOpts{})
		}
		time.Sleep(20 * time.Millisecond) // let the messages park at the stall
		tr.Kill(1)
		if n := tr.InFlight(); n != 3 {
			t.Fatalf("%d messages in flight after the kill, want the 3 parked at the stall", n)
		}
		tr.Revive(1)
		in := tr.Inbox(1)
		got := make(chan *wire.Envelope, 3)
		go func() {
			for {
				env, ok := in.Recv()
				if !ok {
					return
				}
				got <- env
			}
		}()
		select {
		case env := <-got:
			t.Fatalf("still-stalled revived rank delivered message %d", env.SendIndex)
		case <-time.After(50 * time.Millisecond):
		}
		tr.Unstall(1)
		for i := 0; i < 3; i++ {
			select {
			case env := <-got:
				if env.SendIndex != int64(i) {
					t.Fatalf("post-kill stalled delivery out of order: got %d, want %d", env.SendIndex, i)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("parked message %d never reached the new incarnation", i)
			}
		}
	})
}

// --- recv-batch drain ---

// batchInbox asserts the optional capability both implementations
// promise (see transport.BatchInbox).
func batchInbox(t *testing.T, in transport.Inbox) transport.BatchInbox {
	t.Helper()
	bi, ok := in.(transport.BatchInbox)
	if !ok {
		t.Fatalf("%T does not implement BatchInbox", in)
	}
	return bi
}

// TestRecvBatchFIFOAcrossBoundaries: chunked draining is invisible to
// ordering — concatenating batches of capacity 8 over a 200-message
// stream yields exactly the per-pair send order, no matter where the
// chunk boundaries land relative to the sender side's link writes.
func TestRecvBatchFIFOAcrossBoundaries(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		in := batchInbox(t, tr.Inbox(1))
		const count = 200
		done := make(chan error, 1)
		go func() {
			buf := make([]*wire.Envelope, 0, 8)
			next := int64(0)
			for next < count {
				batch, ok := in.RecvBatch(buf[:0])
				if !ok {
					done <- fmt.Errorf("inbox closed at %d", next)
					return
				}
				if len(batch) == 0 {
					done <- fmt.Errorf("empty batch with ok=true at %d", next)
					return
				}
				for _, env := range batch {
					if env.SendIndex != next {
						done <- fmt.Errorf("batch broke FIFO: got %d, want %d", env.SendIndex, next)
						return
					}
					next++
				}
			}
			done <- nil
		}()
		for i := 0; i < count; i++ {
			mustSend(t, tr, appEnv(0, 1, i), transport.SendOpts{})
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecvBatchFullBufYieldsOne: a buf with no spare capacity must
// still make progress — exactly one envelope, the queue head.
func TestRecvBatchFullBufYieldsOne(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		in := batchInbox(t, tr.Inbox(1))
		for i := 0; i < 3; i++ {
			mustSend(t, tr, appEnv(0, 1, i), transport.SendOpts{})
		}
		waitDrained(t, tr)
		batch, ok := in.RecvBatch(nil)
		if !ok || len(batch) != 1 || batch[0].SendIndex != 0 {
			t.Fatalf("RecvBatch(nil) = %v, %v; want exactly the head", batch, ok)
		}
	})
}

// TestRecvBatchPartialAtKill: a drain that consumed only a prefix when
// the rank dies. The consumed prefix stays consumed, the old handle
// reports closure without resurrecting the remainder (matching Recv's
// kill semantics), and the revived inbox sees only post-revival
// traffic.
func TestRecvBatchPartialAtKill(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		in := batchInbox(t, tr.Inbox(1))
		for i := 0; i < 6; i++ {
			mustSend(t, tr, appEnv(0, 1, i), transport.SendOpts{})
		}
		waitDrained(t, tr) // all six inboxed, none consumed
		buf := make([]*wire.Envelope, 0, 2)
		batch, ok := in.RecvBatch(buf)
		if !ok || len(batch) == 0 {
			t.Fatalf("first drain = %v, %v", batch, ok)
		}
		for i, env := range batch {
			if env.SendIndex != int64(i) {
				t.Fatalf("batch is not a queue prefix: %v", batch)
			}
		}
		tr.Kill(1)
		if rest, ok := in.RecvBatch(buf[:0]); ok {
			t.Fatalf("killed inbox handed out %d envelopes", len(rest))
		}
		tr.Revive(1)
		if rest, ok := in.RecvBatch(buf[:0]); ok {
			t.Fatalf("stale handle revived with %d envelopes", len(rest))
		}
		mustSend(t, tr, appEnv(0, 1, 100), transport.SendOpts{})
		nb := batchInbox(t, tr.Inbox(1))
		batch2, ok := nb.RecvBatch(nil)
		if !ok || len(batch2) != 1 || batch2[0].SendIndex != 100 {
			t.Fatalf("revived drain = %v, %v; want only the post-revival message", batch2, ok)
		}
	})
}

// TestRecvBatchKillUnblocks: a RecvBatch blocked on an empty inbox when
// the rank is killed unblocks with ok=false, like Recv.
func TestRecvBatchKillUnblocks(t *testing.T) {
	each(t, 2, func(t *testing.T, tr transport.Transport) {
		in := batchInbox(t, tr.Inbox(1))
		unblocked := make(chan bool, 1)
		go func() {
			_, ok := in.RecvBatch(nil)
			unblocked <- ok
		}()
		time.Sleep(10 * time.Millisecond)
		tr.Kill(1)
		select {
		case ok := <-unblocked:
			if ok {
				t.Fatal("RecvBatch returned ok=true from a killed inbox")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("RecvBatch did not unblock on Kill")
		}
	})
}

// --- buffered send on an instant fabric ---

// eachInstant runs fn on the mem fabric configured instant — zero latency
// and infinite bandwidth, the only model on which its Send delivers
// inline while the link is idle — and on tcp.
func eachInstant(t *testing.T, n int, fn func(t *testing.T, tr transport.Transport)) {
	t.Run("mem", func(t *testing.T) {
		tr := mem.New(fabric.Config{N: n, Seed: 7})
		defer tr.Close()
		fn(t, tr)
	})
	t.Run("tcp", func(t *testing.T) { fn(t, newTCP(t, n)) })
}

// TestInlineSendKeepsFIFO: a stream of buffered Sends whose destination
// is stalled for 30 of every 100 messages arrives in per-pair order with
// nothing lost. On the instant mem fabric the stream alternates the
// inline path (an idle link) with the queued path (a link parked behind
// the stall, then draining behind the unstall).
func TestInlineSendKeepsFIFO(t *testing.T) {
	eachInstant(t, 2, func(t *testing.T, tr transport.Transport) {
		const count = 600
		for i := 0; i < count; i++ {
			switch i % 100 {
			case 50:
				tr.Stall(1)
			case 80:
				tr.Unstall(1)
			}
			mustSend(t, tr, appEnv(0, 1, i), transport.SendOpts{})
		}
		box := tr.Inbox(1)
		for i := 0; i < count; i++ {
			env, ok := box.Recv()
			if !ok || env.SendIndex != int64(i) {
				t.Fatalf("delivery %d: ok=%v env=%+v", i, ok, env)
			}
		}
	})
}

// TestBufferedSendOwnsTheFrame: once a buffered Send returns, the link
// owns the message. The sender's kill right after does not take it back,
// and toward a dead or stalled destination the message parks and reaches
// the destination once it is revived or unstalled, ahead of the next
// Send. On the instant mem fabric this races the inline path's lock-free
// admission against each Kill, Revive, Stall and Unstall.
func TestBufferedSendOwnsTheFrame(t *testing.T) {
	eachInstant(t, 2, func(t *testing.T, tr transport.Transport) {
		mustSend(t, tr, appEnv(0, 1, 0), transport.SendOpts{})
		tr.Kill(0)
		if env, ok := tr.Inbox(1).Recv(); !ok || env.SendIndex != 0 {
			t.Fatalf("message accepted before the sender's kill not delivered: ok=%v env=%+v", ok, env)
		}
		tr.Revive(0)

		for i, c := range []struct {
			down        string
			stop, start func(rank int)
		}{{"dead", tr.Kill, tr.Revive}, {"stalled", tr.Stall, tr.Unstall}} {
			idx := 1 + 2*i
			c.stop(1)
			mustSend(t, tr, appEnv(0, 1, idx), transport.SendOpts{})
			if n := tr.InFlight(); n != 1 {
				t.Fatalf("%d messages in flight toward the %s rank, want 1", n, c.down)
			}
			c.start(1)
			waitDrained(t, tr)
			mustSend(t, tr, appEnv(0, 1, idx+1), transport.SendOpts{})
			box := tr.Inbox(1)
			for want := idx; want <= idx+1; want++ {
				if env, ok := box.Recv(); !ok || env.SendIndex != int64(want) {
					t.Fatalf("after the %s window: delivery %d: ok=%v env=%+v", c.down, want, ok, env)
				}
			}
		}
	})
}
