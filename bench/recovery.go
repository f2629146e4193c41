package main

import (
	"sync"
	"sync/atomic"
	"time"

	"windar/internal/harness"
)

// cycleDeadline is how long one recovery may take before the cycle
// counts as failed.
const cycleDeadline = 5 * time.Second

// cycle is one kill/recover cycle as the bench's own clock saw it.
type cycle struct {
	// Restore is the Recover call itself: checkpoint load and restore,
	// ROLLBACK broadcast, goroutine launch.
	Restore time.Duration
	// Recovery runs from just before the Recover call to a timestamp
	// taken inside Observer.OnRecoveryComplete, so no goroutine wake-up
	// is in the window. Kill is outside it: a real crash is instantaneous.
	Recovery time.Duration
	// RollForward is how many deliveries past its checkpoint the victim
	// had made when it was killed.
	RollForward int64
	Completed   bool
}

// recoveryDriver is the bench's harness.Observer. It counts checkpoints
// and recovery-phase spans on every run it is attached to, and on a
// workload with Cycles > 0 it runs the fault schedule: each checkpoint of
// the victim arms a cycle, and once the victim has delivered RollForward
// messages past that checkpoint a controller goroutine kills and
// recovers it.
type recoveryDriver struct {
	cluster *harness.Cluster
	// base anchors the driver's monotonic clock.
	base        time.Time
	victim      int
	rollForward int64
	cycles      int

	// killAt is the victim delivery index that triggers the armed cycle;
	// 0 while disarmed. armed counts cycles armed so far.
	killAt       atomic.Int64
	armed        atomic.Int64
	ckptAt       atomic.Int64 // victim's delivered count at the arming checkpoint
	lastDeliver  atomic.Int64 // victim's latest delivery index
	killedAfter  atomic.Int64 // roll-forward length of the cycle in flight
	completeAt   atomic.Int64 // d.now() stamped inside OnRecoveryComplete
	trigger      chan struct{}
	recoveryDone chan struct{}

	mu          sync.Mutex
	checkpoints int64
	phases      map[string][]time.Duration
	// recSpans are the recovery spans, stamped with d.now().
	recSpans []span
}

func newRecoveryDriver(s spec, victim int) *recoveryDriver {
	return &recoveryDriver{
		base:        time.Now(), //windar:allow directclock — anchor of the bench's own monotonic clock
		victim:      victim,
		rollForward: s.RollForward,
		cycles:      s.Cycles,
		// One slot each: a cycle is armed only after the previous one
		// completed, so neither signal can ever queue behind another.
		trigger:      make(chan struct{}, 1),
		recoveryDone: make(chan struct{}, 1),
		phases:       make(map[string][]time.Duration),
	}
}

// drive starts the fault-schedule controller and returns the function
// that stops it and reports the cycles it ran. A nil driver, or one with
// no cycles to run, drives nothing.
func (d *recoveryDriver) drive() (stop func() []cycle) {
	if d == nil || d.cycles == 0 {
		return func() []cycle { return nil }
	}
	var (
		out  []cycle
		quit = make(chan struct{})
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-d.trigger:
			}
			c := d.killAndRecover()
			out = append(out, c)
			if !c.Completed {
				return // the run is wedged; the stall timeout reports it
			}
		}
	}()
	return func() []cycle {
		close(quit)
		<-done
		// Cycles the schedule never reached count as attempted and failed.
		for len(out) < d.cycles {
			out = append(out, cycle{})
		}
		return out
	}
}

// now is nanoseconds since the driver was built: recovery latency is a
// true wall-clock measurement on the bench's own clock.
func (d *recoveryDriver) now() int64 {
	return int64(time.Since(d.base)) //windar:allow directclock — see above
}

func (d *recoveryDriver) killAndRecover() cycle {
	var c cycle
	if err := d.cluster.Kill(d.victim); err != nil {
		return c
	}
	c.RollForward = d.killedAfter.Load()
	start := d.now()
	if err := d.cluster.Recover(d.victim); err != nil {
		return c
	}
	returned := d.now()
	c.Restore = time.Duration(returned - start)
	select {
	case <-d.recoveryDone:
		end := d.completeAt.Load()
		c.Recovery = time.Duration(end - start)
		c.Completed = true
		d.mu.Lock()
		d.recSpans = append(d.recSpans,
			span{Name: "harness.recovery", StartNS: start, EndNS: end, From: d.victim, To: d.victim},
			span{Name: "harness.recover_call", StartNS: start, EndNS: returned,
				Parent: "harness.recovery", From: d.victim, To: d.victim})
		d.mu.Unlock()
	case <-time.After(cycleDeadline): //windar:allow directclock — the deadline is real time by definition
	}
	return c
}

// spans returns the recovery spans relative to epoch.
func (d *recoveryDriver) spans(epoch time.Time) []span {
	shift := int64(d.base.Sub(epoch))
	d.mu.Lock()
	defer d.mu.Unlock()
	out := append([]span(nil), d.recSpans...)
	for i := range out {
		out[i].StartNS += shift
		out[i].EndNS += shift
	}
	return out
}

func (d *recoveryDriver) OnCheckpoint(rank, step int, deliveredCount int64) {
	d.mu.Lock()
	d.checkpoints++
	d.mu.Unlock()
	if rank == d.victim && d.armed.Load() < int64(d.cycles) && d.killAt.Load() == 0 {
		d.armed.Add(1)
		d.ckptAt.Store(deliveredCount)
		d.killAt.Store(deliveredCount + d.rollForward)
	}
}

// OnDeliver runs under the rank lock once per delivered message, so it
// does two atomic operations on the victim and one comparison elsewhere.
func (d *recoveryDriver) OnDeliver(rank, from int, sendIndex, deliverIndex, demand int64) {
	if rank != d.victim {
		return
	}
	d.lastDeliver.Store(deliverIndex)
	if at := d.killAt.Load(); at != 0 && deliverIndex >= at && d.killAt.CompareAndSwap(at, 0) {
		select {
		case d.trigger <- struct{}{}:
		default: // never blocks under the rank lock; a lost trigger is a failed cycle
		}
	}
}

func (d *recoveryDriver) OnKill(rank int) {
	d.killedAfter.Store(d.lastDeliver.Load() - d.ckptAt.Load())
}

func (d *recoveryDriver) OnRecoveryComplete(rank int, _ time.Duration) {
	d.completeAt.Store(d.now())
	select {
	case d.recoveryDone <- struct{}{}:
	default: // a recovery the schedule did not start (none today)
	}
}

func (d *recoveryDriver) OnRecoveryPhase(rank int, phase string, dur time.Duration) {
	end := d.now()
	d.mu.Lock()
	d.phases[phase] = append(d.phases[phase], dur)
	d.recSpans = append(d.recSpans, span{Name: "harness.recovery." + phase, StartNS: end - int64(dur), EndNS: end,
		Parent: "harness.recovery", From: rank, To: rank})
	d.mu.Unlock()
}

func (d *recoveryDriver) OnSend(rank, dest int, sendIndex int64, resent bool) {}
func (d *recoveryDriver) OnRecover(rank, fromStep int)                        {}
func (d *recoveryDriver) OnRollback(rank, expect int)                         {}
func (d *recoveryDriver) OnResponse(rank, from int)                           {}
func (d *recoveryDriver) OnIngestRejected(rank int, kind string)              {}
