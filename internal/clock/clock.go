// Package clock abstracts time for the simulated cluster.
//
// Production code paths run against the real wall clock; tests that need
// deterministic latency behaviour run against a manually advanced fake.
// The interface is intentionally tiny: the fabric and the harness only
// ever need "what time is it", "sleep for d", and "wake me after d".
package clock

import (
	"sort"
	"sync"
	"time"
)

// Clock is the time source used by the fabric and the harness.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
	// After returns a channel that receives the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
}

// Real is a Clock backed by the wall clock. The zero value is ready to use.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Fake is a manually advanced Clock for deterministic tests.
//
// Goroutines blocked in Sleep or on After channels make progress only when
// Advance moves the fake time past their deadline. The zero value starts at
// the zero time and is ready to use.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewFake returns a Fake clock whose current time is start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleep implements Clock. It blocks until Advance has moved the clock at
// least d past the current fake time.
func (f *Fake) Sleep(d time.Duration) {
	<-f.After(d)
}

// After implements Clock.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &fakeWaiter{deadline: f.now.Add(d), ch: make(chan time.Time, 1)}
	if !w.deadline.After(f.now) {
		w.ch <- f.now //windar:allow locks (fresh 1-buffered channel, cannot block)
		return w.ch
	}
	f.waiters = append(f.waiters, w)
	return w.ch
}

// Advance moves the fake time forward by d, releasing every sleeper whose
// deadline has been reached. Waiters fire in deadline order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	now := f.now
	var due, rest []*fakeWaiter
	for _, w := range f.waiters {
		if !w.deadline.After(now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	f.waiters = rest
	f.mu.Unlock()

	sort.Slice(due, func(i, j int) bool { return due[i].deadline.Before(due[j].deadline) })
	for _, w := range due {
		w.ch <- now
	}
}

// Pending reports how many sleepers are currently blocked on this clock.
// It exists so tests can synchronise with goroutines entering Sleep.
func (f *Fake) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}
