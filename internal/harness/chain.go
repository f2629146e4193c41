package harness

import (
	"windar/internal/proto"
	"windar/layer"
)

// This file builds the per-rank handler/interceptor chain: the formerly
// hard-wired cross-cutting concerns of the delivery path — protocol
// piggyback attach/ingest, obs histograms and overhead counters, and the
// observer fan-out feeding the trace recorder and the chaos engine — each
// expressed as a layer.Handler wrapping the next, with the user-supplied
// Config.Interceptors slotted between them and the rank core. The chain
// is built once per rank incarnation in newRuntime; per-message calls
// reuse the runtime's Msg scratch and allocate nothing.
//
// Stack, outermost first:
//
//	protoHandler    – piggyback attach (send) / fold into protocol (deliver)
//	spanHandler     – causal span stamping (only when Config.SpanTracing)
//	obsHandler      – metrics counters + deliver-latency histogram
//	observerHandler – Observer fan-out (trace recorder, chaos engine)
//	user layers     – Config.Interceptors, in order
//	coreHandler     – sender-log append + suppression; the application sink

// buildChain assembles r's handler chain around the user interceptors.
func (r *rankRuntime) buildChain(user []layer.Interceptor) layer.Handler {
	var h layer.Handler = coreHandler{r: r}
	h = layer.Chain(h, user...)
	h = observerHandler{r: r, obs: r.c.observer(), spanObs: r.c.spanObs, next: h}
	h = obsHandler{r: r, next: h}
	if r.c.cfg.SpanTracing {
		// Inside the protocol layer so the span rides on the message the
		// protocol finished preparing, outside the obs/observer layers so
		// both see the stamped context.
		h = spanHandler{r: r, next: h}
	}
	h = protoHandler{r: r, next: h}
	return h
}

// protoHandler is the protocol layer, always outermost: on the send path
// it attaches the logging protocol's piggyback before any inner layer
// runs; on the deliver path it folds the received piggyback into
// protocol state and extracts the delivery demand. (The delivery
// *predicate* — Deliverable — is not a chain stage: it is the condition
// the delivery scan re-probes on every wakeup, before a message is
// committed to the chain at all.)
type protoHandler struct {
	r    *rankRuntime
	next layer.Handler
}

// Send attaches the piggyback. The core layer copies it into the sender
// log's record, which the envelope then carries in its place.
func (h protoHandler) Send(m *layer.Msg) {
	m.Piggyback, m.PiggybackIDs = h.r.prot.PiggybackForSend(m.Peer, m.SendIndex)
	h.next.Send(m)
}

// Deliver folds the piggyback into protocol state (Algorithm 1 lines
// 20-26) and stamps the trace demand. Runs under the rank lock once per
// delivered message; must not heap-allocate.
//
//windar:hotpath
func (h protoHandler) Deliver(m *layer.Msg) {
	r := h.r
	if err := r.prot.OnDeliver(r.delivEnv, m.DeliverIndex); err != nil {
		r.panicDeliveryRejected(err)
	}
	if r.demander != nil {
		if v, ok := r.demander.DeliveryDemand(r.delivEnv); ok {
			m.Demand = v
		}
	}
	h.next.Deliver(m)
}

// Checkpoint implements layer.Handler.
func (h protoHandler) Checkpoint(info *layer.CheckpointInfo) { h.next.Checkpoint(info) }

// Restore implements layer.Handler.
func (h protoHandler) Restore(info *layer.RestoreInfo) { h.next.Restore(info) }

// obsHandler is the observability layer: overhead counters on both paths
// and the deliver-latency histogram. The counters go into the runtime's
// tally, which the app goroutine — the only one that runs either path —
// publishes where it stops running (see rankRuntime.tally).
type obsHandler struct {
	r    *rankRuntime
	next layer.Handler
}

// Send counts the outgoing message (and so its log append).
func (h obsHandler) Send(m *layer.Msg) {
	h.r.tally.MsgSent(m.PiggybackIDs, len(m.Piggyback), len(m.Payload))
	h.next.Send(m)
}

// Deliver counts the delivery and records the deliver latency (time
// since the application entered Recv). Hot path: the clock is read only
// when a histogram is attached.
//
//windar:hotpath
func (h obsHandler) Deliver(m *layer.Msg) {
	r := h.r
	r.tally.MsgDelivered()
	if r.deliverLat != nil {
		if r.recvStart.IsZero() {
			// The receiver never blocked; its wait was zero and the
			// clock was never read.
			r.deliverLat.Record(0)
		} else {
			r.deliverLat.RecordDuration(r.c.clk.Now().Sub(r.recvStart))
		}
	}
	h.next.Deliver(m)
}

// Checkpoint implements layer.Handler.
func (h obsHandler) Checkpoint(info *layer.CheckpointInfo) { h.next.Checkpoint(info) }

// Restore implements layer.Handler.
func (h obsHandler) Restore(info *layer.RestoreInfo) { h.next.Restore(info) }

// observerHandler fans events out to the configured harness.Observer —
// the trace recorder and, wrapping it, the chaos engine ride here. The
// observer is resolved once at chain build (nopObs when none is
// configured), so the per-message call never constructs an interface;
// likewise spanObs caches the observer's optional SpanObserver view
// (nil when unimplemented), so the hot path never repeats the type
// assertion. When spanObs is set the span-carrying callbacks replace —
// not duplicate — the plain ones.
type observerHandler struct {
	r       *rankRuntime
	obs     Observer
	spanObs SpanObserver
	next    layer.Handler
}

// Send implements layer.Handler.
func (h observerHandler) Send(m *layer.Msg) {
	if h.spanObs != nil {
		h.spanObs.OnSendSpan(h.r.id, m.Peer, m.SendIndex, false, m.Span)
	} else {
		h.obs.OnSend(h.r.id, m.Peer, m.SendIndex, false)
	}
	h.next.Send(m)
}

// Deliver implements layer.Handler.
//
//windar:hotpath
func (h observerHandler) Deliver(m *layer.Msg) {
	if h.spanObs != nil {
		h.spanObs.OnDeliverSpan(h.r.id, m.Peer, m.SendIndex, m.DeliverIndex, m.Demand, m.Span)
	} else {
		h.obs.OnDeliver(h.r.id, m.Peer, m.SendIndex, m.DeliverIndex, m.Demand)
	}
	h.next.Deliver(m)
}

// Checkpoint implements layer.Handler.
func (h observerHandler) Checkpoint(info *layer.CheckpointInfo) {
	h.obs.OnCheckpoint(info.Rank, info.Step, info.DeliveredCount)
	h.next.Checkpoint(info)
}

// Restore implements layer.Handler.
func (h observerHandler) Restore(info *layer.RestoreInfo) {
	h.obs.OnRecover(info.Rank, info.FromStep)
	h.next.Restore(info)
}

// coreHandler is the innermost layer: the rank core standing in for the
// application. On the send path it appends the (possibly user-layer
// transformed) message to the sender log — innermost so the log records
// exactly what recovery must replay — and computes repetitive-send
// suppression (Algorithm 1 line 10). The log record is the send's only
// copy of the message: Msg.Piggyback and Msg.Payload leave the chain as
// views of it, and the durable mirror stores the same bytes. On the
// deliver path the message has reached the application; the payload the
// chain leaves in Msg.Payload is what Recv returns.
type coreHandler struct {
	r *rankRuntime
}

// Send implements layer.Handler.
func (h coreHandler) Send(m *layer.Msg) {
	r := h.r
	rec := r.log.Append(proto.LogItem{
		Dest: m.Peer, SendIndex: m.SendIndex, Tag: m.Tag,
		Piggyback: m.Piggyback, Payload: m.Payload, Span: m.Span,
	})
	m.Piggyback, m.Payload = proto.RecordBytes(rec, len(m.Piggyback), len(m.Payload))
	// A killed incarnation must not append behind its successor's rewind:
	// Kill takes the rank lock after marking the rank dead, so a send that
	// still holds it finishes first and any later one sees the mark.
	if r.c.durableLogs && !r.isKilled() {
		r.slogAppend(m.Peer, rec)
	}
	r.sendSuppressed = m.SendIndex <= r.rollbackLastSendIndex[m.Peer]
}

// Deliver implements layer.Handler: the message has arrived at the
// application.
//
//windar:hotpath
func (h coreHandler) Deliver(m *layer.Msg) {}

// Checkpoint implements layer.Handler.
func (h coreHandler) Checkpoint(*layer.CheckpointInfo) {}

// Restore implements layer.Handler.
func (h coreHandler) Restore(*layer.RestoreInfo) {}
