// Package trace records harness events and validates global execution
// properties a correct rollback-recovery protocol must preserve: FIFO
// delivery per channel, no duplicate delivery surviving recovery, and no
// lost messages (every effective send is eventually delivered). Orphan
// messages — a survivor state depending on a delivery the recovered
// sender never re-produced — surface here as a no-loss/no-duplicate
// violation on the affected channel (the delivered set then disagrees
// with the sender's effective send range), and at the application level
// as a determinism failure in the integration tests.
//
// Recorder implements harness.Observer structurally; plug it into
// harness.Config.Observer, run the cluster (with any number of injected
// failures), then call Validate.
package trace

import (
	"sync"
	"time"

	"windar/layer"
)

// EventKind labels a recorded event.
type EventKind int

const (
	// EvSend is an application message leaving a rank.
	EvSend EventKind = iota
	// EvDeliver is an application message delivered to the app.
	EvDeliver
	// EvCheckpoint is a completed checkpoint.
	EvCheckpoint
	// EvKill is an injected failure.
	EvKill
	// EvRecover is an incarnation starting.
	EvRecover
	// EvRecoveryComplete marks the end of rolling forward.
	EvRecoveryComplete
	// EvRecoveryPhase is one completed recovery phase span: Phase names
	// it (harness.Phase* constants) and Dur is its length in
	// nanoseconds. Introduced with trace header version 2.
	EvRecoveryPhase
	// EvRollback is a recovering rank broadcasting its ROLLBACK; Count
	// carries the number of RESPONSEs it expects (n-1: every peer).
	// Introduced with trace header version 3.
	EvRollback
	// EvResponse is a recovering rank absorbing a RESPONSE from Peer
	// (counted or late). Introduced with trace header version 3.
	EvResponse
	// EvIngestRejected is a rank dropping a corrupt control payload;
	// Phase carries the control kind ("rollback", "response",
	// "ckpt-advance"). Introduced with trace header version 3.
	EvIngestRejected
)

// Event is one recorded harness event. Fields are used as relevant for
// the kind.
type Event struct {
	Kind         EventKind
	Rank         int
	Peer         int    // dest (send) or source (deliver)
	SendIndex    int64  // send / deliver
	DeliverIndex int64  // deliver
	Step         int    // checkpoint / recover
	Count        int64  // checkpoint deliveredCount; rollback expected RESPONSEs
	Demand       int64  // deliver: protocol delivery demand, -1 if none
	Resent       bool   // send
	Phase        string // recovery-phase span name; rejected control kind (ingest-rejected)
	Dur          int64  // recovery-phase span length, nanoseconds
	Seq          int    // global arrival order in the recorder

	// Causal span context (send / deliver, header version 4): the
	// trace/span/parent identifiers stamped by the harness's tracing
	// layer when span tracing is on. All zero on untraced runs. A
	// deliver event carries the identifiers the *sender* stamped, which
	// is what lets the lineage reconstructor pair the two sides.
	Trace  uint64
	Span   uint64
	Parent uint64
}

// Recorder collects events from a running cluster. Safe for concurrent
// use. The zero value is ready and retains every event; NewBounded
// builds one that caps retained raw events while keeping validation
// exact.
type Recorder struct {
	mu        sync.Mutex
	events    []Event
	head      int // ring start, nonzero only once a bounded recorder wraps
	seq       int // next Seq to assign; grows past len(events) when bounded
	dropped   int // events evicted into the digest
	bound     int // max retained events, 0 = unbounded
	digest    *digest
	transport string
}

// SetTransport records which transport kind carried the run the trace
// describes ("mem", "tcp"). The harness stamps it when the recorder is
// installed as the cluster observer; Export persists it as a header
// line and Import restores it.
func (r *Recorder) SetTransport(kind string) {
	r.mu.Lock()
	r.transport = kind
	r.mu.Unlock()
}

// Transport returns the transport kind stamped by SetTransport, or ""
// for traces that predate transport metadata.
func (r *Recorder) Transport() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.transport
}

func (r *Recorder) add(e Event) {
	r.mu.Lock()
	e.Seq = r.seq
	r.seq++
	if r.bound > 0 && len(r.events) == r.bound {
		// Ring is full: fold the oldest event into the digest so
		// validation stays exact, then reuse its slot.
		r.digest.feed(r.events[r.head])
		r.events[r.head] = e
		r.head++
		if r.head == r.bound {
			r.head = 0
		}
		r.dropped++
	} else {
		r.events = append(r.events, e)
	}
	r.mu.Unlock()
}

// OnSend implements harness.Observer.
func (r *Recorder) OnSend(rank, dest int, sendIndex int64, resent bool) {
	r.add(Event{Kind: EvSend, Rank: rank, Peer: dest, SendIndex: sendIndex, Resent: resent})
}

// OnDeliver implements harness.Observer. demand is the protocol's
// delivery requirement for the message (TDI's piggybacked
// depend_interval element for the receiving rank), or -1 when the
// protocol exposes none; CheckInvariants re-verifies it offline.
func (r *Recorder) OnDeliver(rank, from int, sendIndex, deliverIndex, demand int64) {
	r.add(Event{Kind: EvDeliver, Rank: rank, Peer: from, SendIndex: sendIndex, DeliverIndex: deliverIndex, Demand: demand})
}

// OnCheckpoint implements harness.Observer.
func (r *Recorder) OnCheckpoint(rank, step int, deliveredCount int64) {
	r.add(Event{Kind: EvCheckpoint, Rank: rank, Step: step, Count: deliveredCount})
}

// OnKill implements harness.Observer.
func (r *Recorder) OnKill(rank int) {
	r.add(Event{Kind: EvKill, Rank: rank})
}

// OnRecover implements harness.Observer.
func (r *Recorder) OnRecover(rank, fromStep int) {
	r.add(Event{Kind: EvRecover, Rank: rank, Step: fromStep})
}

// OnRecoveryPhase implements harness.Observer.
func (r *Recorder) OnRecoveryPhase(rank int, phase string, d time.Duration) {
	r.add(Event{Kind: EvRecoveryPhase, Rank: rank, Phase: phase, Dur: int64(d)})
}

// OnRecoveryComplete implements harness.Observer.
func (r *Recorder) OnRecoveryComplete(rank int, d time.Duration) {
	r.add(Event{Kind: EvRecoveryComplete, Rank: rank})
}

// OnRollback implements harness.Observer. expect is the number of
// RESPONSEs the recoverer will wait for — every peer, n-1; the
// rollback-response pairing rule audits it offline.
func (r *Recorder) OnRollback(rank, expect int) {
	r.add(Event{Kind: EvRollback, Rank: rank, Count: int64(expect)})
}

// OnResponse implements harness.Observer.
func (r *Recorder) OnResponse(rank, from int) {
	r.add(Event{Kind: EvResponse, Rank: rank, Peer: from})
}

// OnIngestRejected implements harness.Observer. kind names the control
// payload that failed to decode.
func (r *Recorder) OnIngestRejected(rank int, kind string) {
	r.add(Event{Kind: EvIngestRejected, Rank: rank, Phase: kind})
}

// OnSendSpan implements harness.SpanObserver: OnSend carrying the
// message's causal span context. The harness calls it instead of OnSend
// whenever the recorder is the observer; on untraced runs the context is
// zero and the recorded event matches what OnSend would have produced.
func (r *Recorder) OnSendSpan(rank, dest int, sendIndex int64, resent bool, span layer.SpanContext) {
	r.add(Event{Kind: EvSend, Rank: rank, Peer: dest, SendIndex: sendIndex, Resent: resent,
		Trace: span.Trace, Span: span.Span, Parent: span.Parent})
}

// OnDeliverSpan implements harness.SpanObserver: OnDeliver carrying the
// span context the sender stamped on the delivered message.
func (r *Recorder) OnDeliverSpan(rank, from int, sendIndex, deliverIndex, demand int64, span layer.SpanContext) {
	r.add(Event{Kind: EvDeliver, Rank: rank, Peer: from, SendIndex: sendIndex, DeliverIndex: deliverIndex,
		Demand: demand, Trace: span.Trace, Span: span.Span, Parent: span.Parent})
}

// Events returns a copy of the retained events in arrival order. On a
// bounded recorder this is the most recent window; Dropped reports how
// many older events were evicted.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked()
}

func (r *Recorder) eventsLocked() []Event {
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.head:]...)
	out = append(out, r.events[:r.head]...)
	return out
}

// snapshot atomically captures the retained events together with a
// private copy of the digest state covering the evicted prefix, so
// validation never observes a half-advanced ring.
func (r *Recorder) snapshot() ([]Event, *digest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d *digest
	if r.digest != nil {
		d = r.digest.clone()
	}
	return r.eventsLocked(), d
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped returns how many events a bounded recorder has evicted (0 on
// an unbounded recorder, and on imported traces whatever the header
// recorded). Validation on the live recorder stays exact across drops;
// a re-imported dropped trace carries only the retained suffix, so
// offline validators should warn when this is nonzero.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Problem is one detected violation.
type Problem struct {
	Rule   string
	Detail string
}

func (p Problem) String() string { return p.Rule + ": " + p.Detail }

// Validate checks the recorded execution. It reconstructs each rank's
// *effective* history: on every recovery, the rank's post-checkpoint
// deliveries and sends are rolled back (they re-occur during rolling
// forward), exactly as the recovery protocols promise. On the surviving
// history it enforces:
//
//   - fifo-delivery: per channel, delivered send indexes are strictly
//     increasing within each epoch;
//   - no-duplicate: no (channel, send index) is delivered twice in the
//     effective history;
//   - no-loss: the effective delivered set per channel is exactly the
//     contiguous range 1..max of the effective sent set (every sent
//     message that the run consumed arrived exactly once).
//
// finished reports whether the run completed (all application steps
// done); the no-loss rule only holds then. On a bounded recorder the
// result is identical to an unbounded one: evicted events were already
// folded into the streaming validator state.
func (r *Recorder) Validate(finished bool) []Problem {
	events, d := r.snapshot()
	v := newValidator()
	if d != nil {
		v = d.val
	}
	for _, e := range events {
		v.feed(e)
	}
	return v.finish(finished)
}
