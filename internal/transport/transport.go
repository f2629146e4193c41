// Package transport defines the communication substrate interface the
// rollback-recovery harness runs over. The substitution record's claim —
// that the logging protocols observe the network only through
// send/receive/latency/failure events — is made literal here: everything
// above this interface (harness, protocols, applications) is
// transport-agnostic, and the repository ships two implementations with
// identical observables:
//
//   - transport/mem: the in-process simulated fabric (internal/fabric)
//     with its latency/bandwidth/jitter model — deterministic-ish,
//     fast, and the substrate for the paper-figure experiments;
//   - transport/tcp: real TCP loopback connections, one stream per
//     ordered rank pair, with the framed wire format — the substrate
//     that proves the stack survives an actual byte stream.
//
// The failure contract every implementation must honour (it is what the
// recovery protocols are built against):
//
//   - per ordered pair (from, to), accepted messages are delivered in
//     FIFO order; across pairs, arrival order is unconstrained;
//   - that FIFO spans the sender's incarnations: Kill(from) and
//     Revive(from) neither reset nor reorder the link, so nothing
//     accepted from an earlier incarnation reaches to after a message
//     accepted from a later one;
//   - Kill(rank) drops the rank's volatile receive state: messages
//     already handed to its inbox are lost, and receivers blocked on
//     the old incarnation's inbox unblock with ok=false;
//   - a message accepted by Send before or during a destination's dead
//     window, and not yet lost to the kill, is parked and delivered to
//     the incarnation after Revive — senders never observe the failure
//     except as latency;
//   - a rendezvous Send returns only once the destination's inbox has
//     accepted the message (blocking across the destination's dead
//     window); a buffered Send returns as soon as the link's bounded
//     buffer has space.
package transport

import (
	"errors"

	"windar/internal/wire"
)

// Kind names a transport implementation in configs, flags and traces.
type Kind = string

const (
	// Mem is the in-process simulated fabric.
	Mem Kind = "mem"
	// TCP is the real loopback TCP transport.
	TCP Kind = "tcp"
)

// ErrAborted is returned by Send when the caller's abort channel fires
// while the send is blocked (its own rank was killed), or when the
// transport shuts down under a blocked send.
var ErrAborted = errors.New("transport: send aborted")

// SendOpts controls one Send call.
type SendOpts struct {
	// Rendezvous makes Send return only once the destination inbox has
	// accepted the envelope (the synchronous MPI mode of Fig. 4(a)).
	Rendezvous bool
	// Abort unblocks a blocked Send with ErrAborted when it fires —
	// used when the sending rank itself is killed.
	Abort <-chan struct{}
}

// Inbox is a receiver handle pinned to one incarnation's message queue.
// Once the rank is killed, Recv on the old handle returns ok=false
// forever; the incarnation must obtain a fresh handle.
type Inbox interface {
	// Recv blocks for the next envelope on this handle's queue;
	// ok=false means the queue was closed (rank killed or transport
	// shut down).
	Recv() (*wire.Envelope, bool)
}

// BatchInbox is an optional Inbox capability: draining the queue in
// chunks, so a busy receiver pays one lock round and one wakeup per
// chunk instead of per message. RecvBatch blocks exactly like Recv until
// at least one envelope is available, then appends without further
// blocking whatever is already queued — up to buf's capacity (a buf with
// no spare capacity still yields one envelope) — and returns the
// extended slice with ok=true. The FIFO contract is unchanged: a batch
// is a prefix of the queue, so per-source order is exactly what repeated
// Recv calls would have seen. Close semantics mirror Recv: once the
// rank is killed the handle returns ok=false with an empty batch
// forever — envelopes the dead incarnation had accepted but not yet
// handed out are dropped with it (see Kill). Both implementations in
// this repository hand out a Queue, which satisfies it; the harness
// receiver loop drains nothing else, and NewCluster refuses a transport
// whose inbox lacks it.
type BatchInbox interface {
	Inbox
	// RecvBatch appends the next chunk of envelopes to buf.
	RecvBatch(buf []*wire.Envelope) ([]*wire.Envelope, bool)
}

// InlineSender is a buffered send that never blocks: TrySend accepts env
// now, with a buffered Send's guarantees, or not at all. No transport in
// this repository implements it — a buffered Send already is that append,
// and waits only at a full link buffer — and nothing in the module calls
// it; the declaration remains because the repository benchmark's hop
// probe feature-tests it before falling back to Send.
type InlineSender interface {
	// TrySend accepts env now or not at all.
	TrySend(env *wire.Envelope) bool
}

// Transport is the cluster interconnect: N ranks, per-ordered-pair FIFO
// links, and the crash/recovery semantics documented on the package.
// Implementations are safe for concurrent use by all ranks.
type Transport interface {
	// N returns the number of ranks.
	N() int
	// Kind identifies the implementation ("mem", "tcp") for configs
	// and trace headers.
	Kind() Kind
	// Send transmits env from env.From to env.To. It returns
	// ErrAborted when opts.Abort fires or the transport closes while
	// the send is blocked; a live transport never fails an accepted
	// send for network reasons.
	Send(env *wire.Envelope, opts SendOpts) error
	// Inbox returns a handle pinned to rank's current incarnation
	// queue. Long-lived receiver loops must hold a handle rather than
	// re-resolving the rank, so a lingering receiver can never steal a
	// successor incarnation's messages.
	Inbox(rank int) Inbox
	// Kill marks rank dead, dropping its inbox contents and unblocking
	// its receivers. Messages subsequently accepted for it are parked
	// until Revive.
	Kill(rank int)
	// Revive brings rank back (as a new incarnation) and releases
	// parked deliveries destined to it.
	Revive(rank int)
	// Alive reports whether rank is currently alive.
	Alive(rank int) bool
	// Stall suspends delivery into rank without killing it — the
	// transport-level model of a transient partition in front of the
	// rank. While stalled, accepted messages park exactly as during a
	// dead window (InFlight counts them), but the rank's inbox and
	// incarnation stay attached, so no state is lost and no recovery
	// is triggered. A stall is independent of Kill/Revive and survives
	// both; callers must pair every Stall with an Unstall.
	Stall(rank int)
	// Unstall resumes delivery into rank, releasing the parked
	// messages in per-link FIFO order.
	Unstall(rank int)
	// InFlight reports the number of messages accepted but not yet
	// handed to a destination inbox (diagnostics and tests).
	InFlight() int
	// Close releases all resources; pending messages are dropped and
	// blocked calls unblock.
	Close()
}
