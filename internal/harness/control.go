package harness

import (
	"encoding/binary"
	"fmt"

	"windar/internal/proto"
	"windar/internal/transport"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// encodeRollback packs a ROLLBACK payload: the failed rank's checkpointed
// delivered count and last_deliver_index vector (Algorithm 1 line 46),
// and its restored last_send_index vector, the send frontier above which
// it regenerates its messages.
func encodeRollback(ckptDelivered int64, lastDeliver, lastSend vclock.Vec) []byte {
	buf := binary.AppendVarint(nil, ckptDelivered)
	buf = wire.AppendVec(buf, lastDeliver)
	return wire.AppendVec(buf, lastSend)
}

// decodeRollback unpacks encodeRollback.
func decodeRollback(b []byte) (int64, vclock.Vec, vclock.Vec, error) {
	count, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, nil, fmt.Errorf("harness: bad ROLLBACK payload")
	}
	lastDeliver, m, err := wire.ReadVec(b[n:])
	if err != nil {
		return 0, nil, nil, fmt.Errorf("harness: bad ROLLBACK vector: %w", err)
	}
	lastSend, _, err := wire.ReadVec(b[n+m:])
	if err != nil {
		return 0, nil, nil, fmt.Errorf("harness: bad ROLLBACK send frontier: %w", err)
	}
	return count, lastDeliver, lastSend, nil
}

// response is a RESPONSE payload: which incarnation's ROLLBACK it
// answers (so the recoverer can tell a fresh answer from a stale one
// addressed to a predecessor that died mid-collection), how many of the
// failed rank's messages the responder has delivered (the repetitive-send
// suppression bound, line 48), the highest send index of the failed
// rank's it has ingested, delivered or still queued (the resync floor,
// proto.Resyncer), and the protocol's recovery contribution.
type response struct {
	ackInc              int32
	delivered, ingested int64
	data                []byte
}

// encodeResponse packs a RESPONSE payload.
func encodeResponse(r response) []byte {
	buf := binary.AppendVarint(nil, int64(r.ackInc))
	buf = binary.AppendVarint(buf, r.delivered)
	buf = binary.AppendVarint(buf, r.ingested)
	buf = binary.AppendUvarint(buf, uint64(len(r.data)))
	return append(buf, r.data...)
}

// decodeResponse unpacks encodeResponse.
func decodeResponse(b []byte) (response, error) {
	var r response
	var fields [3]int64
	for i := range fields {
		v, k := binary.Varint(b)
		if k <= 0 {
			return r, fmt.Errorf("harness: bad RESPONSE field %d", i)
		}
		fields[i], b = v, b[k:]
	}
	l, m := binary.Uvarint(b)
	if m <= 0 || uint64(len(b)-m) < l {
		return r, fmt.Errorf("harness: bad RESPONSE recovery data")
	}
	r.ackInc, r.delivered, r.ingested = int32(fields[0]), fields[1], fields[2]
	r.data = b[m : m+int(l)]
	return r, nil
}

// appendCkptAdvance appends a CHECKPOINT_ADVANCE payload to dst: the
// number of the destination's messages covered by this checkpoint (log
// release bound, line 36) and the checkpointing rank's total delivered
// count (history pruning bound).
func appendCkptAdvance(dst []byte, deliveredFromDest, totalDelivered int64) []byte {
	dst = binary.AppendVarint(dst, deliveredFromDest)
	return binary.AppendVarint(dst, totalDelivered)
}

// decodeCkptAdvance unpacks appendCkptAdvance.
func decodeCkptAdvance(b []byte) (int64, int64, error) {
	count, n := binary.Varint(b)
	if n <= 0 {
		return 0, 0, fmt.Errorf("harness: bad CHECKPOINT_ADVANCE payload")
	}
	total, m := binary.Varint(b[n:])
	if m <= 0 {
		return 0, 0, fmt.Errorf("harness: bad CHECKPOINT_ADVANCE total")
	}
	return count, total, nil
}

// recvBatch is the receiver loop's inbox drain window: large enough to
// amortize the wakeup and lock round under load, small enough that a
// drained chunk is dispatched before the queue grows unfairly long.
const recvBatch = 64

// receiverLoop drains the rank's transport inbox until the rank dies or the
// transport closes, in chunks: one blocking wait per chunk, per-shard
// inserts without the rank lock, and a single delivery wakeup per chunk
// instead of per message. Control messages are dispatched in arrival
// position, so their ordering relative to the application messages
// around them is what the inbox held. The inbox handle is pinned to this
// incarnation: after a kill the handle closes, so a lingering receiver
// can never steal the successor incarnation's messages.
//
// Envelopes straight off a real transport are hostile input: every
// handler below indexes per-rank vectors by From, so an out-of-range
// rank id — or an unknown kind — is dropped and counted here rather
// than crashing the rank.
func (r *rankRuntime) receiverLoop(in transport.BatchInbox) {
	defer r.senders.Done()
	buf := make([]*wire.Envelope, 0, recvBatch)
	hist := r.c.recvBatchFam.Rank(r.id)
	for {
		var ok bool
		buf, ok = in.RecvBatch(buf[:0])
		if !ok {
			return
		}
		hist.Record(int64(len(buf)))
		woke := false
		for i, env := range buf {
			buf[i] = nil // the envelope is owned downstream from here
			if env.From < 0 || env.From >= r.n || env.To != r.id {
				r.rejectEnvelope(env)
				continue
			}
			switch env.Kind {
			case wire.KindApp:
				if r.insertShard(env) {
					woke = true
				}
				continue
			case wire.KindRollback:
				r.handleRollback(env)
			case wire.KindResponse:
				r.handleResponse(env)
			case wire.KindCkptAdvance:
				r.handleCkptAdvance(env)
			default:
				r.rejectEnvelope(env)
				continue
			}
			// A control handler keeps at most slices of ROLLBACK and
			// RESPONSE payloads, which are never envelope scratch (see
			// wire.DecodeInto); an advance's payload is read and dropped.
			wire.Recycle(env)
		}
		if woke {
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		}
	}
}

// rejectEnvelope counts hostile input dropped by the receiver loop.
func (r *rankRuntime) rejectEnvelope(env *wire.Envelope) {
	r.c.coll.Rank(r.id).IngestRejected()
	r.c.observer().OnIngestRejected(r.id, "envelope")
	wire.Recycle(env)
}

// handleRollback serves a peer's recovery (Algorithm 1 lines 47-51):
// answer with a RESPONSE carrying the suppression bound and the
// protocol's recovery data, then resend every logged message the failed
// rank lost.
func (r *rankRuntime) handleRollback(env *wire.Envelope) {
	failed := env.From
	ckptDelivered, lastDeliver, lastSend, err := decodeRollback(env.Payload)
	if err != nil || r.id >= len(lastDeliver) || r.id >= len(lastSend) {
		// A corrupt ROLLBACK cannot be served; the recovering rank's
		// stall report will name the missing RESPONSE.
		r.c.coll.Rank(r.id).IngestRejected()
		r.c.observer().OnIngestRejected(r.id, "rollback")
		return
	}

	r.mu.Lock()
	// The rollback invalidates any suppression bound learned from the
	// failed rank's previous incarnation: its delivered-from-us count has
	// rolled back to lastDeliver[r.id], and a higher bound from a stale
	// RESPONSE would suppress regenerated sends the restored log may not
	// cover — with two overlapping recoveries, a permanent stall.
	if r.rollbackLastSendIndex[failed] > lastDeliver[r.id] {
		r.rollbackLastSendIndex[failed] = lastDeliver[r.id]
	}
	r.prot.OnPeerRollback(failed, ckptDelivered)
	if r.replayer != nil {
		// Every message the failed rank's dead incarnations sent here
		// precedes this incarnation's first ROLLBACK (see below). The
		// queued ones above its restored send frontier are orphans: the incarnation regenerates them after the deliveries
		// they depend on, while a PWD protocol delivers freely past its
		// recorded history and could take one ahead of those. TDI's
		// delivery predicate holds such a message until its dependencies
		// are met, so only a Replayer drops them.
		sh := &r.shards[failed]
		r.lockShard(sh)
		sh.dropOrphans(lastSend[r.id], env.Incarnation)
		sh.mu.Unlock()
	}
	// Every envelope that arrived ahead of this ROLLBACK is in the shard
	// by now (the receiver ingests in arrival order), and none of a dead
	// incarnation's can follow it (restore waits out its senders before
	// the successor broadcasts): no original above the ingest high-water
	// will ever be delivered here.
	ans := response{ackInc: env.Incarnation, delivered: r.lastDeliverIndex[failed],
		ingested: r.shards[failed].highWater()}
	if r.replayer != nil {
		ans.data = r.replayer.RecoveryData(failed, ckptDelivered)
	}
	// The resend walks the log's records unlocked and after the RESPONSE
	// is out: they never change, and the view holds what it needs.
	resend := r.log.View()
	r.mu.Unlock()

	m := r.c.coll.Rank(r.id)
	resp := &wire.Envelope{
		Kind: wire.KindResponse, From: r.id, To: failed,
		Incarnation: r.incarnation,
		Payload:     encodeResponse(ans),
	}
	if err := r.c.tr.Send(resp, transport.SendOpts{Abort: r.killed}); err != nil {
		return
	}
	m.ControlMsg()

	// One envelope serves the whole resend: neither transport retains it
	// past Send (both encode or deep-copy synchronously).
	renv := new(wire.Envelope)
	resend.Each(failed, lastDeliver[r.id], func(it *proto.LogItem) bool {
		*renv = wire.Envelope{
			Kind: wire.KindApp, From: r.id, To: failed,
			Incarnation: r.incarnation, Tag: it.Tag,
			SendIndex: it.SendIndex, Resent: true,
			// The logged span travels verbatim: a resend is the original
			// send replayed, not a new causal event.
			Piggyback: it.Piggyback, Payload: it.Payload, Span: it.Span,
		}
		if err := r.c.tr.Send(renv, transport.SendOpts{Abort: r.killed}); err != nil {
			return false
		}
		m.Resent()
		r.c.reportSend(r.id, failed, it.SendIndex, true, it.Span)
		return true
	})
}

// handleResponse absorbs a RESPONSE during this rank's own rolling
// forward (lines 52-53). Any response is absorbed — an answer to this
// incarnation's ROLLBACK, or a stale one to a dead predecessor — but only
// the first answer to this incarnation from each peer closes its debt.
func (r *rankRuntime) handleResponse(env *wire.Envelope) {
	ans, err := decodeResponse(env.Payload)
	if err != nil {
		r.c.coll.Rank(r.id).IngestRejected()
		r.c.observer().OnIngestRejected(r.id, "response")
		return
	}
	r.mu.Lock()
	if ans.delivered > r.rollbackLastSendIndex[env.From] {
		r.rollbackLastSendIndex[env.From] = ans.delivered
	}
	if r.replayer != nil {
		if err := r.replayer.OnRecoveryData(env.From, ans.data); err != nil {
			r.c.coll.Rank(r.id).IngestRejected()
			r.c.observer().OnIngestRejected(r.id, "response")
			r.mu.Unlock()
			return
		}
	}
	if ans.ackInc == r.incarnation {
		// Only an answer to this incarnation's own ROLLBACK settles the
		// peer's debt or sets a resync floor: one to a dead predecessor
		// was read before the predecessor's later sends, so its floor can
		// be too low and its recovery data can miss determinants.
		if r.resyncer != nil {
			r.resyncer.OnPeerResync(env.From, ans.ingested)
		}
		r.responderDoneLocked(env.From)
	}
	r.cond.Broadcast() // replay constraints may have been relaxed
	r.mu.Unlock()
	r.c.observer().OnResponse(r.id, env.From)
}

// handleCkptAdvance releases log items the peer's new checkpoint made
// unreplayable (line 39) and lets the protocol prune history.
func (r *rankRuntime) handleCkptAdvance(env *wire.Envelope) {
	count, total, err := decodeCkptAdvance(env.Payload)
	if err != nil {
		r.c.coll.Rank(r.id).IngestRejected()
		r.c.observer().OnIngestRejected(r.id, "ckpt-advance")
		return
	}
	r.mu.Lock()
	released := r.log.Release(env.From, count)
	r.c.coll.Rank(r.id).LogReleased(released)
	if r.replayer != nil {
		r.replayer.OnPeerCheckpoint(env.From, total)
	}
	r.mu.Unlock()
	if released > 0 && r.c.durableLogs {
		// Outside the rank lock: the release pays the store's write
		// latency. Truncating the stream is what keeps the durable log
		// bounded by the same CHECKPOINT_ADVANCE rule that bounds the
		// in-memory log.
		r.c.slogRelease(r.id, env.From, count)
	}
}

// broadcastRollback sends the ROLLBACK notification to every other rank.
func (r *rankRuntime) broadcastRollback() {
	m := r.c.coll.Rank(r.id)
	for dest := 0; dest < r.n; dest++ {
		if dest == r.id {
			continue
		}
		env := &wire.Envelope{
			Kind: wire.KindRollback, From: r.id, To: dest,
			Incarnation: r.incarnation, Payload: r.rollback,
		}
		if err := r.c.tr.Send(env, transport.SendOpts{Abort: r.killed}); err != nil {
			return
		}
		m.ControlMsg()
	}
}
