// Package layer defines the composable handler/interceptor chain that
// makes windar embeddable as a middleware library.
//
// A Handler is the app-facing surface of one rank: the four verbs the
// rollback-recovery harness drives — Send (an application message going
// out), Deliver (a message accepted for delivery to the application),
// Checkpoint (a step-boundary checkpoint was taken) and Restore (an
// incarnation resumed from a checkpoint). An Interceptor wraps a Handler
// with a new Handler, the http-middleware shape: concerns like protocol
// piggybacking, metrics, trace recording — or anything an embedding
// service wants to add — stack as layers around the application instead
// of being hard-wired into the delivery path.
//
// The harness composes, per rank, a fixed stack around the user-supplied
// interceptors:
//
//	protocol piggyback (attach/ingest)   <- outermost
//	obs histograms + overhead counters
//	observer fan-out (trace, chaos)
//	user interceptors (Config.Interceptors, in order)
//	rank core: sender log + application  <- innermost
//
// Events enter at the outermost layer and flow inward; each layer calls
// its wrapped Handler to continue (or, for a filtering layer on
// Checkpoint/Restore, may decline to). By the time a user interceptor
// sees a Msg, the protocol layer has attached (send) or folded (deliver)
// the piggyback, so Msg.Piggyback and Msg.Demand are populated.
//
// # Contract
//
// Wrap is called once per rank incarnation when the chain is built — at
// cluster start and again on every recovery. One Interceptor instance
// therefore produces one wrapped Handler per rank; state shared across
// ranks must be synchronized (rank goroutines run concurrently), while
// state inside a returned Handler is rank-incarnation-local and needs no
// locking.
//
// Send and Deliver run on the hot path, under the rank's internal lock:
// they must not block, must not call back into the cluster, and must not
// heap-allocate in steady state (the repository's alloc gate measures a
// delivery through a user interceptor and requires 0 allocs/op). A
// handler may replace Msg.Payload with a transformed slice — the
// replacement is what gets logged and transmitted (send) or handed to
// the application (deliver) — but must never mutate the slice in place
// or retain it. On the send side it is the application's own buffer
// until the rank core copies it into the sender log's record, which
// resends replay verbatim. (The deliver-side slice is the receiver's own
// deep copy and never aliases the sender's log; there the rule only
// keeps layers independent of each other.)
//
// Checkpoint and Restore are cold-path notifications. Restore is
// delivered outside the rank lock. Checkpoint is delivered under it, in
// the critical section that stages the snapshot for recovery, so a
// failure injected concurrently lands before both or after both; like
// Send and Deliver it must not block or call back into the cluster.
package layer

// SpanContext is the compact causal-tracing identity stamped on a
// message when span tracing is enabled (Config.Tracing on the public
// surface). It travels with the message on the wire, so the receiving
// side observes the same span the sender created — that identity is what
// lets an offline reconstructor stitch per-rank traces into one
// cross-rank causal DAG.
//
// Span identifiers are deterministic, not random: the harness packs
// (rank, incarnation, per-incarnation send counter) into Span, so two
// runs of the same deterministic application produce identical span IDs,
// and a message regenerated by a recovered incarnation is visibly a
// *different* span from the original (the incarnation bits differ) while
// a log resend carries the original span verbatim.
type SpanContext struct {
	// Trace groups causally-related messages: a root send (no delivery
	// preceded it on the sending rank) starts a new trace with
	// Trace == Span; every message sent after a delivery inherits the
	// delivered message's trace.
	Trace uint64
	// Span uniquely identifies this message send:
	// rank<<48 | incarnation<<32 | per-incarnation send counter.
	Span uint64
	// Parent is the Span of the message most recently delivered by the
	// sending rank before this send — the causal parent edge. Zero for
	// root spans.
	Parent uint64
}

// IsZero reports whether the context is unset (tracing disabled, or a
// message from a peer running without tracing).
func (s SpanContext) IsZero() bool { return s.Trace == 0 && s.Span == 0 && s.Parent == 0 }

// Msg carries one application message through the chain. The same Msg
// value is reused for every message of a rank (one for sends, one for
// deliveries), so handlers must not retain a *Msg — or any slice it
// carries — past the call.
type Msg struct {
	// Rank is the local rank the chain belongs to.
	Rank int
	// Peer is the destination rank on the send path, the source rank on
	// the deliver path.
	Peer int
	// Tag is the application message tag.
	Tag int32
	// SendIndex is the per-channel send sequence number.
	SendIndex int64
	// DeliverIndex is the local delivery sequence number (deliver path
	// only; zero on sends).
	DeliverIndex int64
	// Demand is the protocol's dependency requirement extracted from the
	// piggyback — the number of local deliveries that had to precede this
	// one (deliver path, TDI only); -1 when the protocol exposes none.
	Demand int64
	// Piggyback is the protocol metadata riding on the message. The
	// protocol layer attaches it on the send path before inner layers
	// run; on the deliver path it is the received metadata, already
	// folded into protocol state. Inner layers treat it as read-only.
	Piggyback []byte
	// PiggybackIDs is the piggyback's size in identifiers (send path;
	// the unit of the paper's Fig. 6 overhead accounting).
	PiggybackIDs int
	// Payload is the application payload. A handler may replace the
	// slice (see the package contract) but must not mutate it in place.
	Payload []byte
	// Resent marks a deliver-path message that arrived as a recovery
	// resend from a peer's sender log rather than a live transmission.
	Resent bool
	// Span is the message's causal span context. On the send path the
	// harness's tracing layer stamps it before user interceptors run; on
	// the deliver path it is the context the sender stamped, read from
	// the envelope. Zero when span tracing is off.
	Span SpanContext
}

// CheckpointInfo describes one completed checkpoint.
type CheckpointInfo struct {
	// Rank took the checkpoint before executing Step.
	Rank, Step int
	// DeliveredCount is the rank's total deliveries covered by it.
	DeliveredCount int64
}

// RestoreInfo describes one incarnation resuming from stable storage
// after a failure.
type RestoreInfo struct {
	// Rank resumed execution at FromStep (0 when no checkpoint existed).
	Rank, FromStep int
	// Incarnation numbers the revival (the initial launch is 0).
	Incarnation int
}

// Handler is the app-facing surface of one rank — the generalization of
// the application's Send/Recv plus the checkpoint/restore lifecycle that
// interceptors can wrap. See the package documentation for the calling
// contract of each verb.
type Handler interface {
	// Send processes an outgoing application message.
	Send(m *Msg)
	// Deliver processes a message accepted for delivery.
	Deliver(m *Msg)
	// Checkpoint reports a completed step-boundary checkpoint.
	Checkpoint(info *CheckpointInfo)
	// Restore reports an incarnation resuming from a checkpoint.
	Restore(info *RestoreInfo)
}

// Interceptor wraps a Handler with a new layer. Wrap is called once per
// rank incarnation at chain-build time and must return a fresh Handler
// (wrapping next) on every call; the same Interceptor instance wraps
// every rank of a cluster.
type Interceptor interface {
	Wrap(next Handler) Handler
}

// InterceptorFunc adapts a plain function to the Interceptor interface.
type InterceptorFunc func(next Handler) Handler

// Wrap implements Interceptor.
func (f InterceptorFunc) Wrap(next Handler) Handler { return f(next) }

// Forward is a Handler base that forwards every verb to Next. Embed it
// and override the verbs a layer cares about:
//
//	type counter struct {
//		layer.Forward
//		n *atomic.Int64
//	}
//
//	func (c counter) Deliver(m *layer.Msg) { c.n.Add(1); c.Forward.Deliver(m) }
type Forward struct {
	Next Handler
}

// Send implements Handler by forwarding to Next.
func (f Forward) Send(m *Msg) { f.Next.Send(m) }

// Deliver implements Handler by forwarding to Next.
func (f Forward) Deliver(m *Msg) { f.Next.Deliver(m) }

// Checkpoint implements Handler by forwarding to Next.
func (f Forward) Checkpoint(info *CheckpointInfo) { f.Next.Checkpoint(info) }

// Restore implements Handler by forwarding to Next.
func (f Forward) Restore(info *RestoreInfo) { f.Next.Restore(info) }

// Nop is a terminal Handler that ignores every event — the base of a
// chain whose innermost concern lives outside the chain (tests, probes).
type Nop struct{}

// Send implements Handler.
func (Nop) Send(*Msg) {}

// Deliver implements Handler.
func (Nop) Deliver(*Msg) {}

// Checkpoint implements Handler.
func (Nop) Checkpoint(*CheckpointInfo) {}

// Restore implements Handler.
func (Nop) Restore(*RestoreInfo) {}

// Chain wraps base with the interceptors, first interceptor outermost —
// Chain(app, a, b) yields a(b(app)), so events visit a, then b, then
// app. Nil interceptors are skipped; a Wrap returning nil panics at
// build time rather than at the first message.
func Chain(base Handler, interceptors ...Interceptor) Handler {
	h := base
	for i := len(interceptors) - 1; i >= 0; i-- {
		it := interceptors[i]
		if it == nil {
			continue
		}
		h = it.Wrap(h)
		if h == nil {
			panic("layer: Interceptor.Wrap returned nil Handler")
		}
	}
	return h
}

// CheckpointPolicy decides at which step boundaries a rank checkpoints.
// The harness consults it only between application steps (the paper's
// protocols checkpoint "before delivering a message", which step
// boundaries satisfy), never for step 0 and never for the step a
// recovery resumed at. Implementations may be called from different rank
// goroutines concurrently.
type CheckpointPolicy interface {
	// ShouldCheckpoint reports whether rank should take a checkpoint
	// before executing step.
	ShouldCheckpoint(rank, step int) bool
}

// EveryKSteps is the step-interval checkpoint policy: a checkpoint
// before every k-th step. The zero/negative value never checkpoints.
type EveryKSteps int

// ShouldCheckpoint implements CheckpointPolicy.
func (k EveryKSteps) ShouldCheckpoint(rank, step int) bool {
	return k > 0 && step%int(k) == 0
}
