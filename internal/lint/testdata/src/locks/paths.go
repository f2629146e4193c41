// Package locks is the locks analyzer's path fixture: the shapes a
// linear scan misses, a lock a callee returns holding and a lock released
// only on an arm that returns. The negatives pin the join: nothing
// released on every path that reaches the code is held.
package locks

import (
	"sync"

	"windar/internal/transport"
	"windar/internal/wire"
)

type shard struct{ mu sync.Mutex }

type sendState struct {
	mu sync.Mutex
	ch chan int
}

type rank struct {
	mu        sync.Mutex
	sh        shard
	contended int
}

// lockShard returns holding the shard lock on both paths: TryLock is
// an acquisition.
func (r *rank) lockShard() {
	if r.sh.mu.TryLock() {
		return
	}
	r.contended++
	r.sh.mu.Lock()
}

func (r *rank) insert() {
	r.lockShard()
	r.mu.Lock() // want "locks.rank.mu acquired while locks.shard.mu is held"
	r.mu.Unlock()
	r.sh.mu.Unlock()
}

func (r *rank) scan() {
	r.mu.Lock()
	r.lockShard() // want "locks.shard.mu acquired while locks.rank.mu is held \\(via call to lockShard\\)"
	r.sh.mu.Unlock()
	r.mu.Unlock()
}

type ckpt struct {
	mu, ckptMu sync.Mutex
	killed     bool
	next       int
}

func (c *ckpt) checkpoint() {
	c.mu.Lock()
	if c.killed {
		c.mu.Unlock()
		return
	}
	c.ckptMu.Lock() // want "locks.ckpt.ckptMu acquired while locks.ckpt.mu is held"
	c.next++
	c.ckptMu.Unlock()
	c.mu.Unlock()
}

func (c *ckpt) writer() {
	c.ckptMu.Lock()
	c.mu.Lock() // want "locks.ckpt.mu acquired while locks.ckpt.ckptMu is held"
	c.next = 0
	c.mu.Unlock()
	c.ckptMu.Unlock()
}

func (s *sendState) broadcast(tr transport.Transport, envs []*wire.Envelope, killed bool) {
	s.mu.Lock()
	if killed {
		s.mu.Unlock()
		return
	}
	defer s.mu.Unlock()
	for _, env := range envs {
		_ = tr.Send(env, transport.SendOpts{}) // want "transport.Transport.Send while locks.sendState.mu is held"
	}
}

func (s *sendState) goodArmUnlocksAndReturns(done bool) {
	s.mu.Lock()
	if done {
		s.mu.Unlock()
		s.ch <- 1
		return
	}
	s.mu.Unlock()
	s.ch <- 2
}

func (s *sendState) goodBothArmsUnlock(v int) {
	s.mu.Lock()
	if v > 0 {
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
	s.ch <- v
	s.mu.Lock()
	switch v {
	case 0:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
	}
	s.ch <- v
}

func (s *sendState) goodClosureLater() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() { s.ch <- 6 }
}

// goodHelperReleases takes and drops its lock: a caller holds nothing
// after it.
func (s *sendState) goodHelperReleases() {
	s.mu.Lock()
	defer s.mu.Unlock()
}

func (s *sendState) goodAfterHelper() {
	s.goodHelperReleases()
	s.ch <- 7
}
