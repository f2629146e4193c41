package harness

import (
	"windar/internal/proto"
	"windar/layer"
)

// This file builds the per-rank handler/interceptor chain: the formerly
// hard-wired cross-cutting concerns of the delivery path — protocol
// piggyback attach/ingest, and the report of each message to the span
// tracer, the overhead counters, the obs histograms and the observer
// (the trace recorder, or the chaos engine that embeds it) — each
// expressed as a layer.Handler wrapping the next, with the user-supplied
// Config.Interceptors slotted between them and the rank core. The chain
// is built once per rank incarnation in newRuntime; per-message calls
// reuse the runtime's Msg scratch and allocate nothing.
//
// Stack, outermost first:
//
//	protoHandler  – piggyback attach (send) / fold into protocol (deliver)
//	reportHandler – span stamp (Config.SpanTracing), counters, deliver
//	                latency, observer
//	user layers   – Config.Interceptors, in order
//	coreHandler   – sender-log append + suppression; the application sink
//
// A None rank's chain has no protoHandler and ends in layer.Nop in place
// of coreHandler: nothing is piggybacked or logged, and the transport
// copies the application's payload before Send returns.

// buildChain assembles r's handler chain around the user interceptors.
func (r *rankRuntime) buildChain(user []layer.Interceptor) layer.Handler {
	none := r.c.cfg.Protocol == None
	var h layer.Handler = coreHandler{r: r}
	if none {
		h = layer.Nop{}
	}
	h = layer.Chain(h, user...)
	h = reportHandler{r: r, tracing: r.c.cfg.SpanTracing, next: h}
	if !none {
		h = protoHandler{r: r, next: h}
	}
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

// reportHandler is the report layer: it stamps the causal span (only
// under Config.SpanTracing), tallies the message into the overhead
// counters, records the deliver latency and hands the event to the
// observer. It sits inside the protocol layer, so the span rides on the
// message the protocol finished preparing, and outside the user layers,
// so they see the stamped context. The counters go into the runtime's
// tally, which the app goroutine — the only one that runs either path —
// publishes where it stops running (see rankRuntime.tally).
type reportHandler struct {
	r       *rankRuntime
	tracing bool
	next    layer.Handler
}

// Send stamps the span, counts the outgoing message (and so its log
// append) and reports it. It runs under the rank lock (Send holds r.mu
// while the chain runs), so the span counter and cursor are plain
// fields. The parent is the span of the rank's most recently delivered
// message (the paper's causality notion — everything delivered before a
// send may have caused it; the *last* delivery is the tightest such edge
// under FIFO delivery, and earlier deliveries remain reachable through
// its own ancestry).
func (h reportHandler) Send(m *layer.Msg) {
	r := h.r
	if h.tracing {
		r.spanSeq++
		id := spanID(r.id, r.incarnation, r.spanSeq)
		if parent := r.lastDelivSpan; parent.Span != 0 {
			m.Span = layer.SpanContext{Trace: parent.Trace, Span: id, Parent: parent.Span}
		} else {
			// Root span: nothing was delivered on this incarnation yet, so
			// the send starts a new trace. (The causal cursor is volatile
			// state — an incarnation restarts with an empty one, exactly as
			// its in-memory dependency state restarts.)
			m.Span = layer.SpanContext{Trace: id, Span: id}
		}
	}
	r.tally.MsgSent(m.PiggybackIDs, len(m.Piggyback), len(m.Payload))
	r.c.reportSend(r.id, m.Peer, m.SendIndex, false, m.Span)
	h.next.Send(m)
}

// reportSend hands one send to the observer: the span-carrying callback
// replaces — not duplicates — the plain one when the observer has it.
// The report layer calls it for first sends, handleRollback for resends.
func (c *Cluster) reportSend(rank, dest int, sendIndex int64, resent bool, span layer.SpanContext) {
	if c.spanObs != nil {
		c.spanObs.OnSendSpan(rank, dest, sendIndex, resent, span)
	} else {
		c.observer().OnSend(rank, dest, sendIndex, resent)
	}
}

// Deliver advances the causal cursor to the delivered message's span
// (the sender stamped it; it is zero on untraced runs), counts the
// delivery, records the deliver latency (time since the application
// entered Recv) and reports it. Hot path, under the rank lock: the clock
// is read only when a histogram is attached.
func (h reportHandler) Deliver(m *layer.Msg) {
	r := h.r
	if m.Span.Span != 0 {
		r.lastDelivSpan = m.Span
	}
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
	if so := r.c.spanObs; so != nil {
		so.OnDeliverSpan(r.id, m.Peer, m.SendIndex, m.DeliverIndex, m.Demand, m.Span)
	} else {
		r.c.observer().OnDeliver(r.id, m.Peer, m.SendIndex, m.DeliverIndex, m.Demand)
	}
	h.next.Deliver(m)
}

// Checkpoint implements layer.Handler.
func (h reportHandler) Checkpoint(info *layer.CheckpointInfo) {
	h.r.c.observer().OnCheckpoint(info.Rank, info.Step, info.DeliveredCount)
	h.next.Checkpoint(info)
}

// Restore implements layer.Handler.
func (h reportHandler) Restore(info *layer.RestoreInfo) {
	h.r.c.observer().OnRecover(info.Rank, info.FromStep)
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
func (h coreHandler) Deliver(m *layer.Msg) {}

// Checkpoint implements layer.Handler.
func (h coreHandler) Checkpoint(*layer.CheckpointInfo) {}

// Restore implements layer.Handler.
func (h coreHandler) Restore(*layer.RestoreInfo) {}
