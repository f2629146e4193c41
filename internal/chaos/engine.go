package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"windar/internal/harness"
	"windar/layer"
)

// Engine executes a Schedule against a running cluster. It implements
// harness.Observer by wrapping an inner observer (typically the trace
// recorder): every event is forwarded unchanged, and the recovery
// events additionally feed the schedule's phase triggers.
//
// Execution model:
//
//   - timed actions fire in At order from a single goroutine, so their
//     execution order is fully deterministic;
//   - event-triggered actions each get their own goroutine that waits
//     for the matching recovery event (or the trigger timeout) and then
//     fires — never from inside an observer callback, which may run
//     under a rank's lock;
//   - all firing serializes on one mutex, and the engine tracks its own
//     alive/stalled view updated only by its own actions, so an action
//     whose precondition fails is recorded as a skip with a
//     deterministic reason instead of failing the run.
//
// The action log (Log) is timestamp-free and ordered by schedule index:
// two runs of the same schedule produce byte-for-byte identical logs.
type Engine struct {
	sched Schedule
	inner harness.Observer
	// spanInner caches inner's optional SpanObserver view so the
	// span-carrying callbacks forward without repeating the assertion;
	// nil when inner doesn't implement it (spans then degrade to the
	// plain callbacks).
	spanInner harness.SpanObserver

	mu       sync.Mutex // serializes action execution and engine state
	cl       *harness.Cluster
	alive    []bool
	stalled  []bool
	outcomes []string

	trigMu sync.Mutex
	armed  map[int]chan struct{} // event-triggered action index -> fire signal

	wg      sync.WaitGroup
	started bool
}

// NewEngine wraps inner (which may be nil) with the schedule's
// executor. Call Start after the cluster is running.
func NewEngine(sched Schedule, inner harness.Observer) *Engine {
	e := &Engine{
		sched:    sched,
		inner:    inner,
		outcomes: make([]string, len(sched.Actions)),
		armed:    map[int]chan struct{}{},
	}
	e.spanInner, _ = inner.(harness.SpanObserver)
	for i := range e.outcomes {
		e.outcomes[i] = "pending"
	}
	return e
}

// SetTransport forwards the harness's transport stamp to the inner
// observer (the trace recorder persists it in the export header).
func (e *Engine) SetTransport(kind string) {
	if s, ok := e.inner.(interface{ SetTransport(kind string) }); ok {
		s.SetTransport(kind)
	}
}

// Start launches the schedule against c. The cluster must be started;
// the engine assumes full membership (everything alive, nothing
// stalled) at this instant.
func (e *Engine) Start(c *harness.Cluster) {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		panic("chaos: Engine.Start called twice")
	}
	e.started = true
	e.cl = c
	e.alive = make([]bool, c.N())
	e.stalled = make([]bool, c.N())
	for i := range e.alive {
		e.alive[i] = true
	}
	e.mu.Unlock()

	clk := c.Clock()
	timeout := e.sched.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}

	var timed []int
	for i, a := range e.sched.Actions {
		if a.Phase == "" {
			timed = append(timed, i)
			continue
		}
		ch := make(chan struct{}, 1)
		e.trigMu.Lock()
		e.armed[i] = ch
		e.trigMu.Unlock()
		e.wg.Add(1)
		go func(i int, ch chan struct{}) {
			defer e.wg.Done()
			select {
			case <-ch:
			case <-clk.After(timeout):
				// Fallback: the awaited event never happened (or the
				// run finished first); fire anyway so the schedule
				// always drains. The outcome records which path ran.
				e.disarm(i)
				e.exec(i, "timeout")
				return
			}
			e.exec(i, "")
		}(i, ch)
	}
	sort.SliceStable(timed, func(a, b int) bool {
		return e.sched.Actions[timed[a]].At < e.sched.Actions[timed[b]].At
	})
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		begin := clk.Now()
		for _, i := range timed {
			if d := e.sched.Actions[i].At - clk.Now().Sub(begin); d > 0 {
				<-clk.After(d)
			}
			e.exec(i, "")
		}
	}()
}

// Wait blocks until every scheduled action has fired or been skipped.
func (e *Engine) Wait() { e.wg.Wait() }

// Log returns the timestamp-free action log: one line per scheduled
// action in schedule order, rendering the action (in the DSL) and its
// outcome. Byte-for-byte identical across runs of the same schedule.
func (e *Engine) Log() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.sched.Actions))
	for i, a := range e.sched.Actions {
		out[i] = fmt.Sprintf("#%d %s -> %s", i, a, e.outcomes[i])
	}
	return out
}

// disarm removes action i's trigger registration (one-shot semantics).
func (e *Engine) disarm(i int) {
	e.trigMu.Lock()
	delete(e.armed, i)
	e.trigMu.Unlock()
}

// notify fires every armed trigger matching the observed recovery
// event. Called from observer callbacks, which may run under rank
// locks: it only signals the action's goroutine, never executes.
func (e *Engine) notify(rank int, event string) {
	var fire []chan struct{}
	e.trigMu.Lock()
	for i, ch := range e.armed {
		a := e.sched.Actions[i]
		if a.PhaseRank == rank && a.Phase == event {
			delete(e.armed, i)
			fire = append(fire, ch)
		}
	}
	e.trigMu.Unlock()
	for _, ch := range fire {
		ch <- struct{}{} // buffered; the goroutine is the only reader
	}
}

// exec fires action i if its precondition holds in the engine's own
// liveness view, recording the outcome. via annotates a fallback path
// ("timeout"); empty means the normal trigger.
func (e *Engine) exec(i int, via string) {
	a := e.sched.Actions[i]
	e.mu.Lock()
	defer e.mu.Unlock()
	outcome := "ok"
	switch a.Op {
	case OpKill:
		live := 0
		for _, al := range e.alive {
			if al {
				live++
			}
		}
		switch {
		case !e.alive[a.Rank]:
			outcome = "skip(dead)"
		case live < 2:
			outcome = "skip(last-live)"
		default:
			if err := e.cl.Kill(a.Rank); err != nil {
				outcome = "skip(" + err.Error() + ")"
			} else {
				e.alive[a.Rank] = false
			}
		}
	case OpRecover:
		if e.alive[a.Rank] {
			outcome = "skip(alive)"
		} else if err := e.cl.Recover(a.Rank); err != nil {
			outcome = "skip(" + err.Error() + ")"
		} else {
			e.alive[a.Rank] = true
		}
	case OpRestart:
		live := 0
		for _, al := range e.alive {
			if al {
				live++
			}
		}
		switch {
		case !e.alive[a.Rank]:
			outcome = "skip(dead)"
		case live < 2:
			outcome = "skip(last-live)"
		default:
			if err := e.cl.Kill(a.Rank); err != nil {
				outcome = "skip(" + err.Error() + ")"
				break
			}
			e.alive[a.Rank] = false
			if err := e.cl.Recover(a.Rank); err != nil {
				outcome = "kill-ok/recover-skip(" + err.Error() + ")"
				break
			}
			e.alive[a.Rank] = true
		}
	case OpStall:
		if e.stalled[a.Rank] {
			outcome = "skip(stalled)"
		} else {
			e.cl.Transport().Stall(a.Rank)
			e.stalled[a.Rank] = true
		}
	case OpUnstall:
		if !e.stalled[a.Rank] {
			outcome = "skip(not-stalled)"
		} else {
			e.cl.Transport().Unstall(a.Rank)
			e.stalled[a.Rank] = false
		}
	default:
		outcome = "skip(unknown-op)"
	}
	if via != "" {
		outcome += "(" + via + ")"
	}
	e.outcomes[i] = outcome
}

// ---- harness.Observer: forward everything, feed the triggers. ----

// OnSend implements harness.Observer.
func (e *Engine) OnSend(rank, dest int, sendIndex int64, resent bool) {
	if e.inner != nil {
		e.inner.OnSend(rank, dest, sendIndex, resent)
	}
}

// OnDeliver implements harness.Observer.
func (e *Engine) OnDeliver(rank, from int, sendIndex, deliverIndex, demand int64) {
	if e.inner != nil {
		e.inner.OnDeliver(rank, from, sendIndex, deliverIndex, demand)
	}
}

// OnCheckpoint implements harness.Observer.
func (e *Engine) OnCheckpoint(rank, step int, deliveredCount int64) {
	if e.inner != nil {
		e.inner.OnCheckpoint(rank, step, deliveredCount)
	}
}

// OnKill implements harness.Observer.
func (e *Engine) OnKill(rank int) {
	if e.inner != nil {
		e.inner.OnKill(rank)
	}
}

// OnRecover implements harness.Observer.
func (e *Engine) OnRecover(rank, fromStep int) {
	if e.inner != nil {
		e.inner.OnRecover(rank, fromStep)
	}
}

// OnRecoveryPhase implements harness.Observer; completing a phase span
// fires phase(<rank> <span>) triggers.
func (e *Engine) OnRecoveryPhase(rank int, phase string, d time.Duration) {
	if e.inner != nil {
		e.inner.OnRecoveryPhase(rank, phase, d)
	}
	e.notify(rank, phase)
}

// OnRecoveryComplete implements harness.Observer; fires TrigComplete.
func (e *Engine) OnRecoveryComplete(rank int, d time.Duration) {
	if e.inner != nil {
		e.inner.OnRecoveryComplete(rank, d)
	}
	e.notify(rank, TrigComplete)
}

// OnRollback implements harness.Observer; fires TrigRollback — the
// hook for killing a peer (or the recoverer) while demand collection is
// in flight.
func (e *Engine) OnRollback(rank, expect int) {
	if e.inner != nil {
		e.inner.OnRollback(rank, expect)
	}
	e.notify(rank, TrigRollback)
}

// OnResponse implements harness.Observer.
func (e *Engine) OnResponse(rank, from int) {
	if e.inner != nil {
		e.inner.OnResponse(rank, from)
	}
}

// OnIngestRejected implements harness.Observer.
func (e *Engine) OnIngestRejected(rank int, kind string) {
	if e.inner != nil {
		e.inner.OnIngestRejected(rank, kind)
	}
}

// OnSendSpan implements harness.SpanObserver: the span context forwards
// to a span-aware inner observer and degrades to OnSend otherwise.
func (e *Engine) OnSendSpan(rank, dest int, sendIndex int64, resent bool, span layer.SpanContext) {
	if e.spanInner != nil {
		e.spanInner.OnSendSpan(rank, dest, sendIndex, resent, span)
	} else if e.inner != nil {
		e.inner.OnSend(rank, dest, sendIndex, resent)
	}
}

// OnDeliverSpan implements harness.SpanObserver.
func (e *Engine) OnDeliverSpan(rank, from int, sendIndex, deliverIndex, demand int64, span layer.SpanContext) {
	if e.spanInner != nil {
		e.spanInner.OnDeliverSpan(rank, from, sendIndex, deliverIndex, demand, span)
	} else if e.inner != nil {
		e.inner.OnDeliver(rank, from, sendIndex, deliverIndex, demand)
	}
}
