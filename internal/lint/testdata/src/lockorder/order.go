// Package lockorder is the locks analyzer's order fixture: two code
// paths acquiring the same pair of locks in opposite orders must be
// flagged (directly and through a statically resolvable call),
// consistent orders and goroutine-local acquisitions must not, and named
// types with a Lock/Unlock method pair (a channel-backed lock here)
// count as locks.
package lockorder

import "sync"

type state struct {
	a, b sync.Mutex
}

func lockAB(s *state) {
	s.a.Lock()
	s.b.Lock() // want "lockorder.state.b acquired while lockorder.state.a is held"
	s.b.Unlock()
	s.a.Unlock()
}

func lockBA(s *state) {
	s.b.Lock()
	s.a.Lock() // want "lockorder.state.a acquired while lockorder.state.b is held"
	s.a.Unlock()
	s.b.Unlock()
}

func lockViaHelper(s *state) {
	s.a.Lock()
	takeB(s) // want "lockorder.state.b acquired while lockorder.state.a is held \\(via call to takeB\\)"
	s.a.Unlock()
}

func takeB(s *state) {
	s.b.Lock()
	s.b.Unlock()
}

// chanLock is a lock built on a channel: a named type whose Lock/Unlock
// method pair makes it a lock for ordering purposes.
type chanLock struct{ ch chan struct{} }

func (c *chanLock) Lock()   { c.ch <- struct{}{} }
func (c *chanLock) Unlock() { <-c.ch }

type pair struct {
	cm chanLock
	mu sync.Mutex
}

func badChanFirst(p *pair) {
	p.cm.Lock()
	p.mu.Lock() // want "lockorder.pair.mu acquired while lockorder.pair.cm is held"
	p.mu.Unlock()
	p.cm.Unlock()
}

func badMuFirst(p *pair) {
	p.mu.Lock()
	p.cm.Lock() // want "lockorder.pair.cm acquired while lockorder.pair.mu is held"
	p.cm.Unlock()
	p.mu.Unlock()
}

type cd struct {
	c, d sync.Mutex
}

func goodConsistent1(p *cd) {
	p.c.Lock()
	p.d.Lock()
	p.d.Unlock()
	p.c.Unlock()
}

func goodConsistent2(p *cd) {
	p.c.Lock()
	defer p.c.Unlock()
	p.d.Lock()
	p.d.Unlock()
}

func goodGoroutine(p *cd) {
	// The spawned goroutine does not inherit the held set: d -> c is
	// not an ordering edge here.
	p.d.Lock()
	go func() {
		p.c.Lock()
		p.c.Unlock()
	}()
	p.d.Unlock()
}

type gh struct {
	g, h sync.Mutex
}

func allowedGH(p *gh) {
	p.g.Lock()
	p.h.Lock() //windar:allow locks (init-only path: no peer goroutine is running yet)
	p.h.Unlock()
	p.g.Unlock()
}

func allowedHG(p *gh) {
	p.h.Lock()
	p.g.Lock() //windar:allow locks (shutdown path: peer goroutines already joined)
	p.g.Unlock()
	p.h.Unlock()
}
