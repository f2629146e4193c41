// Package proto defines the service-provider interface the rollback
// recovery layer (internal/harness) uses to drive a causal message
// logging protocol, plus the sender-based message log every protocol
// shares.
//
// The harness owns mechanics common to all protocols — per-channel send
// and delivery counters, FIFO and duplicate handling, the receiving
// queue, checkpointing, and the ROLLBACK/RESPONSE recovery exchange,
// including the count of RESPONSEs a recovering rank still awaits. A
// Protocol owns what differs between TDI, TAG and TEL: what metadata is
// piggybacked on each message and what delivery-order constraint holds
// during rolling forward. The optional views add what only some
// protocols need: a Replayer collects survivors' recovery records (the
// PWD protocols), a Demander exposes a count predicate to the trace
// checker and a Resyncer re-establishes delta bases (TDI).
package proto

import (
	"windar/internal/wire"
)

// Verdict is a Protocol's judgement on a candidate message delivery.
type Verdict int

const (
	// Deliver: the message's constraints are satisfied; it may be handed
	// to the application now.
	Deliver Verdict = iota
	// Hold: constraints are not yet satisfied; keep the message queued.
	Hold
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Deliver:
		return "Deliver"
	case Hold:
		return "Hold"
	default:
		return "Verdict(?)"
	}
}

// Protocol is one rank's logging-protocol instance. The harness serializes
// all calls under the rank's mutex; implementations need no internal
// locking (the TEL event-logger client is the one exception and documents
// its own synchronization).
type Protocol interface {
	// Name returns the protocol's short name ("tdi", "tag", "tel").
	Name() string

	// PiggybackForSend returns the metadata to attach to an outgoing
	// application message addressed to dest with the given send index,
	// and the metadata's size in identifiers for Fig. 6 accounting.
	// Called at the moment the application emits the send, before the
	// envelope is logged or transmitted.
	PiggybackForSend(dest int, sendIndex int64) (pig []byte, identifiers int)

	// Deliverable reports whether env may be delivered now. The harness
	// has already established that env is not a duplicate and is next in
	// its channel's FIFO order; the protocol adds its causal/replay
	// constraint. deliveredCount is the number of messages this rank has
	// delivered so far (the local state interval index).
	//
	// A non-nil error reports a malformed piggyback (corrupt bytes off a
	// real transport, a short vector, an undecodable determinant set).
	// Implementations must never panic on hostile piggyback input; the
	// harness treats an error as Hold and counts the rejection instead of
	// crashing the rank.
	Deliverable(env *wire.Envelope, deliveredCount int64) (Verdict, error)

	// OnDeliver folds env's piggyback into protocol state after the
	// application accepted it as the deliverIndex-th local delivery.
	OnDeliver(env *wire.Envelope, deliverIndex int64) error

	// AppendSnapshot appends protocol state, serialized for inclusion in
	// a checkpoint, to dst and returns the extended buffer. The harness
	// passes the previous checkpoint's buffer back, so it must not be
	// retained.
	AppendSnapshot(dst []byte) []byte

	// Restore replaces protocol state from a checkpoint's AppendSnapshot.
	Restore(data []byte) error

	// BeginRecovery tells the protocol its rank is an incarnation about
	// to roll forward from the state just restored. The harness alone
	// decides when the collection phase that opens here ends: it counts
	// every peer and, on a Replayer, calls OnCollected once each has
	// answered this incarnation's ROLLBACK (a peer that is down answers
	// after it revives).
	BeginRecovery()

	// OnPeerRollback tells the protocol that peer began a recovery whose
	// checkpoint recorded ckptDelivered deliveries. Any per-peer state
	// derived from the peer's previous incarnation — delta piggyback
	// bases, estimates of what the peer already knows — is stale and must
	// be reset, otherwise two overlapping recoveries corrupt each other's
	// suppression bounds.
	OnPeerRollback(peer int, ckptDelivered int64)
}

// Replayer is implemented by the PWD protocols (TAG, TEL), whose
// recovering rank must collect the survivors' records of its
// post-checkpoint deliveries and replay them in that order. TDI is no
// Replayer: the harness sends it empty RESPONSE data and skips the calls.
type Replayer interface {
	// RecoveryData returns this (surviving) rank's contribution to the
	// recovery of rank failed, whose checkpoint recorded
	// ckptDeliveredCount deliveries: the failed rank's recorded delivery
	// determinants. It rides on the RESPONSE control message.
	RecoveryData(failed int, ckptDeliveredCount int64) []byte

	// OnRecoveryData merges one RESPONSE's payload. It accepts any
	// RESPONSE — an answer to this incarnation's ROLLBACK, or a stale one
	// toward a previous incarnation — and never ends the collection phase.
	OnRecoveryData(from int, data []byte) error

	// OnCollected ends the collection phase BeginRecovery opened: every
	// peer has answered this incarnation's ROLLBACK. The harness is
	// the only counter; this call is the protocol's only signal.
	OnCollected()

	// OnPeerCheckpoint notifies the protocol that peer took a checkpoint
	// covering its first deliveredCount deliveries, so history at or
	// before that point can never be replayed again and may be pruned.
	OnPeerCheckpoint(peer int, deliveredCount int64)
}

// Demander is optionally implemented by protocols whose delivery
// predicate is a simple count comparison (TDI's Algorithm 1 line 17).
// Asked right after OnDeliver(env), DeliveryDemand returns the number of
// local deliveries that had to precede env's delivery, as that delivery
// read it from the piggyback; ok is false when there was no such
// requirement. The harness records the demand with each trace deliver
// event so the offline invariant checker (internal/trace) can re-verify
// the comparison after the run.
type Demander interface {
	DeliveryDemand(env *wire.Envelope) (demand int64, ok bool)
}

// Resyncer is optionally implemented by protocols whose per-destination
// send state must be re-established after their own rank rolled back
// (TDI's delta bases). OnPeerResync passes on peer's RESPONSE to this
// incarnation's ROLLBACK: highWater is the highest send index of this
// rank's that peer had ingested — delivered or still queued — when it
// answered. The harness calls it only for answers to this incarnation;
// an answer to a dead predecessor may predate its later sends.
type Resyncer interface {
	OnPeerResync(peer int, highWater int64)
}
