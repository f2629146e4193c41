// Package metrics collects the overhead counters the paper's evaluation
// reports: piggyback amount per message (in identifiers, Fig. 6), tracking
// time (Fig. 7), and the timing inputs of the blocking/non-blocking
// comparison (Fig. 8), plus supporting counters used by tests (log
// retention, repetitive-message suppression, recovery accounting).
package metrics

import (
	"sync/atomic"
	"time"

	"windar/internal/obs"
)

// Rank accumulates counters for one process. All methods are safe for
// concurrent use; the zero value is ready to use.
//
// The per-message counters of the application path (messages sent and
// delivered, piggyback and payload sizes) reach a Rank through a Tally:
// the rank's application goroutine counts them plainly and publishes the
// batch whenever it stops running — before a receive parks, at each step
// boundary, in a checkpoint, and when the goroutine exits, killed or
// finished. Those counters are therefore exact whenever the application
// goroutine is parked, between steps, or gone, and may lag by the
// current step's unpublished traffic in between. Every other counter is
// a single atomic add at its call site and is always current.
type Rank struct {
	// hists, when set, mirrors size/duration counters into histogram
	// sinks so distributions come for free from the measurements the
	// counters already take (no extra clock reads on the hot path).
	hists atomic.Pointer[Hists]

	msgsSent            atomic.Int64
	msgsDelivered       atomic.Int64
	piggybackIDs        atomic.Int64
	piggybackBytes      atomic.Int64
	payloadBytes        atomic.Int64
	sendTrackNanos      atomic.Int64
	deliverTrackNanos   atomic.Int64
	controlMsgs         atomic.Int64
	repetitiveDiscarded atomic.Int64
	resentMsgs          atomic.Int64
	logItemsReleased    atomic.Int64
	recoveries          atomic.Int64
	recoveryNanos       atomic.Int64
	blockedSendNanos    atomic.Int64
	pigDeltaMsgs        atomic.Int64
	pigFullMsgs         atomic.Int64
	pigFloorFullMsgs    atomic.Int64
	ingestRejected      atomic.Int64
	liveHolds           atomic.Int64
	shardContended      atomic.Int64
}

// Hists bundles the optional per-rank histogram sinks a Rank mirrors its
// hot-path measurements into. Any field may be nil (obs histograms
// ignore records through nil handles).
type Hists struct {
	PiggybackIDs        *obs.Hist
	PiggybackBytes      *obs.Hist
	PiggybackDeltaBytes *obs.Hist
	SendTracking        *obs.Hist
	DeliverTracking     *obs.Hist
}

// SetHists installs histogram sinks. Safe to call while the rank is
// recording (the pointer swap is atomic); pass nil to detach.
func (r *Rank) SetHists(h *Hists) { r.hists.Store(h) }

// Tally is one writer's unpublished batch of a Rank's per-message
// counters: plain integers, so counting a message costs no atomic
// read-modify-write. It is not safe for concurrent use — it belongs to
// the one goroutine that sends and delivers the rank's application
// messages — and its counts reach the Rank only through Publish.
type Tally struct {
	rank                                  *Rank
	sent, delivered, ids, pigBytes, bytes int64
}

// Tally returns an empty tally publishing into r.
func (r *Rank) Tally() Tally { return Tally{rank: r} }

// MsgSent counts one application message leaving the rank with the given
// piggyback size (in identifiers and encoded bytes) and payload size.
// The histogram sinks still record it now: distributions need no
// publication point.
func (t *Tally) MsgSent(piggybackIDs int, piggybackBytes, payloadBytes int) {
	t.sent++
	t.ids += int64(piggybackIDs)
	t.pigBytes += int64(piggybackBytes)
	t.bytes += int64(payloadBytes)
	if h := t.rank.hists.Load(); h != nil {
		h.PiggybackIDs.Record(int64(piggybackIDs))
		h.PiggybackBytes.Record(int64(piggybackBytes))
	}
}

// MsgDelivered counts one application message delivered to the app.
func (t *Tally) MsgDelivered() { t.delivered++ }

// Publish adds the tally into its Rank and empties it.
func (t *Tally) Publish() {
	r := t.rank
	if t.sent != 0 {
		r.msgsSent.Add(t.sent)
		r.piggybackIDs.Add(t.ids)
		r.piggybackBytes.Add(t.pigBytes)
		r.payloadBytes.Add(t.bytes)
	}
	if t.delivered != 0 {
		r.msgsDelivered.Add(t.delivered)
	}
	*t = Tally{rank: r}
}

// PigDelta records one outgoing piggyback emitted in the delta encoding
// (wire format v2) at the given encoded size.
func (r *Rank) PigDelta(bytes int) {
	r.pigDeltaMsgs.Add(1)
	if h := r.hists.Load(); h != nil {
		h.PiggybackDeltaBytes.Record(int64(bytes))
	}
}

// PigFull records one outgoing piggyback emitted as a full vector.
func (r *Rank) PigFull() { r.pigFullMsgs.Add(1) }

// PigFloorFull records one full-vector piggyback that was full only
// because TDI's resync floor blocked the smaller delta.
func (r *Rank) PigFloorFull() { r.pigFloorFullMsgs.Add(1) }

// IngestRejected records one incoming envelope dropped or held because
// its piggyback or framing failed validation.
func (r *Rank) IngestRejected() { r.ingestRejected.Add(1) }

// LiveHold records one Hold verdict on a channel's in-order head at an
// incarnation that is not rolling forward. TDI never holds there
// (DESIGN.md "Hold tripwire"), so at a TDI rank each is a protocol
// fault; TAG and TEL may.
func (r *Rank) LiveHold() { r.liveHolds.Add(1) }

// ControlMsg records one protocol control message (ROLLBACK, RESPONSE,
// CHECKPOINT_ADVANCE, determinant traffic).
func (r *Rank) ControlMsg() { r.controlMsgs.Add(1) }

// RepetitiveDiscarded records a duplicate suppressed at the receiver.
func (r *Rank) RepetitiveDiscarded() { r.repetitiveDiscarded.Add(1) }

// ShardContended records a delivery-shard lock acquisition that found
// the lock held (ingest racing the scan, or the scan racing ingest).
func (r *Rank) ShardContended() { r.shardContended.Add(1) }

// Resent records a logged message retransmitted for a peer's recovery.
func (r *Rank) Resent() { r.resentMsgs.Add(1) }

// LogReleased counts n sender-log items released, by any incarnation.
func (r *Rank) LogReleased(n int) { r.logItemsReleased.Add(int64(n)) }

// RecoveryDone records one completed recovery taking d.
func (r *Rank) RecoveryDone(d time.Duration) {
	r.recoveries.Add(1)
	r.recoveryNanos.Add(int64(d))
}

// BlockedSend charges d to time the application thread spent blocked
// inside a synchronous send (Fig. 8's blocking mode cost).
func (r *Rank) BlockedSend(d time.Duration) { r.blockedSendNanos.Add(int64(d)) }

// Snapshot returns a consistent-enough copy of the counters. Individual
// loads are atomic; cross-counter skew is acceptable for reporting.
func (r *Rank) Snapshot() Snapshot {
	sent := r.msgsSent.Load()
	return Snapshot{
		MsgsSent:            sent,
		MsgsDelivered:       r.msgsDelivered.Load(),
		PiggybackIDs:        r.piggybackIDs.Load(),
		PiggybackBytes:      r.piggybackBytes.Load(),
		PayloadBytes:        r.payloadBytes.Load(),
		SendTrackNanos:      r.sendTrackNanos.Load(),
		DeliverTrackNanos:   r.deliverTrackNanos.Load(),
		ControlMsgs:         r.controlMsgs.Load(),
		RepetitiveDiscarded: r.repetitiveDiscarded.Load(),
		ShardContended:      r.shardContended.Load(),
		ResentMsgs:          r.resentMsgs.Load(),
		LogItemsReleased:    r.logItemsReleased.Load(),
		Recoveries:          r.recoveries.Load(),
		RecoveryNanos:       r.recoveryNanos.Load(),
		BlockedSendNanos:    r.blockedSendNanos.Load(),
		PigDeltaMsgs:        r.pigDeltaMsgs.Load(),
		PigFullMsgs:         r.pigFullMsgs.Load(),
		PigFloorFullMsgs:    r.pigFloorFullMsgs.Load(),
		IngestRejected:      r.ingestRejected.Load(),
		LiveHolds:           r.liveHolds.Load(),
	}
}

// Snapshot is a point-in-time copy of one rank's counters, or (via Add)
// the sum over several ranks.
type Snapshot struct {
	MsgsSent            int64
	MsgsDelivered       int64
	PiggybackIDs        int64
	PiggybackBytes      int64
	PayloadBytes        int64
	SendTrackNanos      int64
	DeliverTrackNanos   int64
	ControlMsgs         int64
	RepetitiveDiscarded int64
	ShardContended      int64
	ResentMsgs          int64
	LogItemsReleased    int64
	// LogItemsLive is a gauge, not a count: the current incarnation's
	// sender-log length, read from the log under the rank lock
	// (harness.Cluster.RankSnapshots); Rank.Snapshot leaves it zero.
	LogItemsLive     int64
	Recoveries       int64
	RecoveryNanos    int64
	BlockedSendNanos int64
	PigDeltaMsgs     int64
	PigFullMsgs      int64
	PigFloorFullMsgs int64
	IngestRejected   int64
	LiveHolds        int64
}

// Add returns the elementwise sum of s and o.
func (s Snapshot) Add(o Snapshot) Snapshot {
	s.MsgsSent += o.MsgsSent
	s.MsgsDelivered += o.MsgsDelivered
	s.PiggybackIDs += o.PiggybackIDs
	s.PiggybackBytes += o.PiggybackBytes
	s.PayloadBytes += o.PayloadBytes
	s.SendTrackNanos += o.SendTrackNanos
	s.DeliverTrackNanos += o.DeliverTrackNanos
	s.ControlMsgs += o.ControlMsgs
	s.RepetitiveDiscarded += o.RepetitiveDiscarded
	s.ShardContended += o.ShardContended
	s.ResentMsgs += o.ResentMsgs
	s.LogItemsReleased += o.LogItemsReleased
	s.LogItemsLive += o.LogItemsLive
	s.Recoveries += o.Recoveries
	s.RecoveryNanos += o.RecoveryNanos
	s.BlockedSendNanos += o.BlockedSendNanos
	s.PigDeltaMsgs += o.PigDeltaMsgs
	s.PigFullMsgs += o.PigFullMsgs
	s.PigFloorFullMsgs += o.PigFloorFullMsgs
	s.IngestRejected += o.IngestRejected
	s.LiveHolds += o.LiveHolds
	return s
}

// AvgPiggybackIDs is Fig. 6's metric: the average number of identifiers
// piggybacked per application message.
func (s Snapshot) AvgPiggybackIDs() float64 {
	if s.MsgsSent == 0 {
		return 0
	}
	return float64(s.PiggybackIDs) / float64(s.MsgsSent)
}

// AvgPiggybackBytes is the byte-denominated companion of Fig. 6.
func (s Snapshot) AvgPiggybackBytes() float64 {
	if s.MsgsSent == 0 {
		return 0
	}
	return float64(s.PiggybackBytes) / float64(s.MsgsSent)
}

// TrackingTime is Fig. 7's metric: total time spent constructing and
// merging dependency metadata.
func (s Snapshot) TrackingTime() time.Duration {
	return time.Duration(s.SendTrackNanos + s.DeliverTrackNanos)
}

// Collector owns one Rank accumulator per process.
type Collector struct {
	ranks []*Rank
}

// NewCollector returns a collector for an n-process system.
func NewCollector(n int) *Collector {
	c := &Collector{ranks: make([]*Rank, n)}
	for i := range c.ranks {
		c.ranks[i] = &Rank{}
	}
	return c
}

// Rank returns the accumulator for process i.
func (c *Collector) Rank(i int) *Rank { return c.ranks[i] }

// N returns the number of ranks.
func (c *Collector) N() int { return len(c.ranks) }

// Total returns the sum of all ranks' snapshots.
func (c *Collector) Total() Snapshot {
	var t Snapshot
	for _, r := range c.ranks {
		t = t.Add(r.Snapshot())
	}
	return t
}

// PerRank returns each rank's snapshot.
func (c *Collector) PerRank() []Snapshot {
	out := make([]Snapshot, len(c.ranks))
	for i, r := range c.ranks {
		out[i] = r.Snapshot()
	}
	return out
}

// AttachObs registers the counter-mirroring histogram families on reg
// and installs per-rank sinks. A nil registry detaches nothing and does
// nothing: the counters keep working alone.
func (c *Collector) AttachObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ids := reg.Family("piggyback_ids", "Identifiers piggybacked per application message.", "ids")
	bytes := reg.Family("piggyback_bytes", "Encoded piggyback bytes per application message.", "bytes")
	db := reg.Family("piggyback_delta_bytes", "Encoded size of delta-encoded piggybacks (wire format v2).", "bytes")
	st := reg.Family("send_tracking_ns", "Send-side dependency-tracking time per message.", "ns")
	dt := reg.Family("deliver_tracking_ns", "Deliver-side dependency-tracking time per message.", "ns")
	for i, r := range c.ranks {
		r.SetHists(&Hists{
			PiggybackIDs:        ids.Rank(i),
			PiggybackBytes:      bytes.Rank(i),
			PiggybackDeltaBytes: db.Rank(i),
			SendTracking:        st.Rank(i),
			DeliverTracking:     dt.Rank(i),
		})
	}
}

// Vars flattens the snapshot into an ordered name/value list — the
// counter schema the debug endpoints and Prometheus exposition share.
func (s Snapshot) Vars() []obs.Counter {
	return []obs.Counter{
		{Name: "msgs_sent", Value: s.MsgsSent},
		{Name: "msgs_delivered", Value: s.MsgsDelivered},
		{Name: "piggyback_ids", Value: s.PiggybackIDs},
		{Name: "piggyback_bytes", Value: s.PiggybackBytes},
		{Name: "payload_bytes", Value: s.PayloadBytes},
		{Name: "send_tracking_ns", Value: s.SendTrackNanos},
		{Name: "deliver_tracking_ns", Value: s.DeliverTrackNanos},
		{Name: "control_msgs", Value: s.ControlMsgs},
		{Name: "repetitive_discarded", Value: s.RepetitiveDiscarded},
		{Name: "shard_contended", Value: s.ShardContended},
		{Name: "resent_msgs", Value: s.ResentMsgs},
		{Name: "log_items_released", Value: s.LogItemsReleased},
		{Name: "log_items_live", Value: s.LogItemsLive},
		{Name: "recoveries", Value: s.Recoveries},
		{Name: "recovery_ns", Value: s.RecoveryNanos},
		{Name: "blocked_send_ns", Value: s.BlockedSendNanos},
		{Name: "pig_delta_msgs", Value: s.PigDeltaMsgs},
		{Name: "pig_full_msgs", Value: s.PigFullMsgs},
		{Name: "pig_floor_full_msgs", Value: s.PigFloorFullMsgs},
		{Name: "ingest_rejected", Value: s.IngestRejected},
		{Name: "live_holds", Value: s.LiveHolds},
	}
}
