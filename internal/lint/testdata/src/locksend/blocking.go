// Package locksend is the locks analyzer's blocking fixture: blocking
// operations under a held lock must be flagged; sends after Unlock,
// sends in select-with-default, and closure bodies starting lock-free
// must not.
package locksend

import (
	"sync"

	"windar/internal/transport"
	"windar/internal/wire"
)

type sendState struct {
	mu sync.Mutex
	ch chan int
}

func badSend(s *sendState) {
	s.mu.Lock()
	s.ch <- 1 // want "channel send while locksend.sendState.mu is held"
	s.mu.Unlock()
}

func badDeferred(s *sendState, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch <- 2 // want "channel send while locksend.sendState.mu is held"
}

func badWait(mu *sync.Mutex, wg *sync.WaitGroup) {
	mu.Lock()
	wg.Wait() // want "sync.WaitGroup.Wait while locksend.badWait:mu is held"
	mu.Unlock()
}

func badRLock(mu *sync.RWMutex, ch chan int) {
	mu.RLock()
	ch <- 3 // want "channel send while locksend.badRLock:mu is held"
	mu.RUnlock()
}

func badTransportSend(mu *sync.Mutex, tr transport.Transport, env *wire.Envelope) {
	mu.Lock()
	_ = tr.Send(env, transport.SendOpts{}) // want "transport.Transport.Send while locksend.badTransportSend:mu is held"
	mu.Unlock()
}

func badInboxRecv(mu *sync.Mutex, in transport.Inbox) {
	mu.Lock()
	_, _ = in.Recv() // want "transport.Inbox.Recv while locksend.badInboxRecv:mu is held"
	mu.Unlock()
}

func goodTransportAfterUnlock(mu *sync.Mutex, tr transport.Transport, env *wire.Envelope) {
	mu.Lock()
	mu.Unlock()
	_ = tr.Send(env, transport.SendOpts{})
}

func goodAfterUnlock(s *sendState) {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1
}

func goodSelectDefault(s *sendState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1: // non-blocking: the default clause bounds it
	default:
	}
}

func goodClosure(s *sendState) {
	s.mu.Lock()
	go func() {
		// Runs on its own goroutine without inheriting the lock.
		s.ch <- 4
	}()
	s.mu.Unlock()
}

func allowed(s *sendState) {
	s.mu.Lock()
	s.ch <- 5 //windar:allow locks (buffered beyond all senders)
	s.mu.Unlock()
}
