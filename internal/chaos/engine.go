package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"windar/internal/harness"
	"windar/internal/trace"
)

// Engine executes a Schedule against a running cluster. It is the
// run's trace recorder: the embedded *trace.Recorder takes every harness
// event, and the three recovery callbacks the engine overrides record
// the event and then feed the schedule's phase triggers.
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
	*trace.Recorder
	sched Schedule

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

// NewEngine builds the schedule's executor around rec, which records
// the run. Install the engine as the cluster observer and call Start
// after the cluster is running.
func NewEngine(sched Schedule, rec *trace.Recorder) *Engine {
	e := &Engine{
		Recorder: rec,
		sched:    sched,
		outcomes: make([]string, len(sched.Actions)),
		armed:    map[int]chan struct{}{},
	}
	for i := range e.outcomes {
		e.outcomes[i] = "pending"
	}
	return e
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

// ---- The recovery callbacks: record, then feed the triggers. ----

// OnRecoveryPhase implements harness.Observer; completing a phase span
// fires phase(<rank> <span>) triggers.
func (e *Engine) OnRecoveryPhase(rank int, phase string, d time.Duration) {
	e.Recorder.OnRecoveryPhase(rank, phase, d)
	e.notify(rank, phase)
}

// OnRecoveryComplete implements harness.Observer; fires TrigComplete.
func (e *Engine) OnRecoveryComplete(rank int, d time.Duration) {
	e.Recorder.OnRecoveryComplete(rank, d)
	e.notify(rank, TrigComplete)
}

// OnRollback implements harness.Observer; fires TrigRollback — the
// hook for killing a peer (or the recoverer) while demand collection is
// in flight.
func (e *Engine) OnRollback(rank, expect int) {
	e.Recorder.OnRollback(rank, expect)
	e.notify(rank, TrigRollback)
}
