package tel

import (
	"encoding/binary"
	"fmt"
	"sync"

	"windar/internal/clock"
	"windar/internal/determinant"
	"windar/internal/metrics"
	"windar/internal/proto"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// TEL is one rank's protocol instance. It implements proto.Protocol and
// proto.Replayer; the embedded Replay supplies Deliverable and
// OnCollected.
//
// Locking: the harness serializes all proto.Protocol calls under the
// rank's mutex, which it also passes here as locker; the logger ack
// callback (which arrives on the logger's goroutine) takes locker before
// touching protocol state, so every mutation is serialized on the same
// lock.
type TEL struct {
	determinant.Replay

	rank   int
	n      int
	logger *Logger
	locker sync.Locker

	// own holds this rank's determinants not yet acked as stable.
	own []determinant.D
	// received holds piggybacked determinants of other ranks not yet
	// known stable.
	received *determinant.Set
	// stableKnown is the latest logger stable vector this rank has seen.
	stableKnown vclock.Vec

	ownDelivered int64

	// Event-logger flush pipeline: at most one batch in flight.
	inFlight     bool
	pendingFlush []determinant.D

	m *metrics.Rank
	// track samples the send- and deliver-side tracking time (Fig. 7).
	track metrics.Tracker
}

var _ proto.Protocol = (*TEL)(nil)
var _ proto.Replayer = (*TEL)(nil)

// New returns a TEL instance for rank in an n-process system. locker must
// be the same lock under which the harness invokes the protocol; logger
// acks are applied under it. The metrics rank may be nil; clk times the
// tracking overhead charged to it and defaults to the wall clock.
func New(rank, n int, logger *Logger, locker sync.Locker, m *metrics.Rank, clk clock.Clock) *TEL {
	if m == nil {
		m = &metrics.Rank{}
	}
	if locker == nil {
		locker = &sync.Mutex{}
	}
	return &TEL{
		Replay:      determinant.NewReplay("tel", rank, n, checkPig),
		rank:        rank,
		n:           n,
		logger:      logger,
		locker:      locker,
		received:    determinant.NewSet(),
		stableKnown: vclock.New(n),
		m:           m,
		track:       metrics.NewTracker(m, clk),
	}
}

// Name implements proto.Protocol.
func (t *TEL) Name() string { return "tel" }

// UnstableCount reports how many determinants are currently piggybacked
// (tests, diagnostics).
func (t *TEL) UnstableCount() int { return len(t.own) + t.received.Len() }

// unstable collects the determinants that must ride on the next send.
func (t *TEL) unstable() []determinant.D {
	out := make([]determinant.D, 0, len(t.own)+t.received.Len())
	for _, d := range t.own {
		if d.DeliverIndex > t.stableKnown[t.rank] {
			out = append(out, d)
		}
	}
	for _, d := range t.received.All() {
		if d.Receiver < 0 || d.Receiver >= t.n || d.DeliverIndex > t.stableKnown[d.Receiver] {
			out = append(out, d)
		}
	}
	return out
}

// PiggybackForSend implements proto.Protocol: every determinant not yet
// known stable rides along, 4 identifiers each.
func (t *TEL) PiggybackForSend(dest int, sendIndex int64) ([]byte, int) {
	start, w := t.track.BeginSend()
	ds := t.unstable()
	pig := determinant.AppendSlice(make([]byte, 0, 8+16*len(ds)), ds)
	t.track.EndSend(start, w)
	return pig, determinant.IdentifierCount * len(ds)
}

// checkPig is Replay's piggyback validation: the piggyback must decode as
// a determinant slice.
func checkPig(pig []byte) error {
	_, _, err := determinant.ReadSlice(pig)
	return err
}

// OnDeliver implements proto.Protocol: absorb the piggybacked
// determinants, create this delivery's determinant, and ship it to the
// event logger asynchronously.
func (t *TEL) OnDeliver(env *wire.Envelope, deliverIndex int64) error {
	start, w := t.track.BeginDeliver()
	ds, _, err := determinant.ReadSlice(env.Piggyback)
	if err != nil {
		return fmt.Errorf("tel: rank %d: bad piggyback from %d: %w", t.rank, env.From, err)
	}
	for _, d := range ds {
		if d.Receiver == t.rank {
			continue // our own events are tracked in t.own / the logger
		}
		if d.Receiver >= 0 && d.Receiver < t.n && d.DeliverIndex <= t.stableKnown[d.Receiver] {
			continue // already stable
		}
		t.received.Add(d)
	}
	own := determinant.D{
		Sender: env.From, SendIndex: env.SendIndex,
		Receiver: t.rank, DeliverIndex: deliverIndex,
	}
	t.own = append(t.own, own)
	t.ownDelivered = deliverIndex
	t.Replay.Delivered(deliverIndex)
	t.flushLocked([]determinant.D{own})
	t.track.EndDeliver(start, w)
	return nil
}

// flushLocked ships determinants to the logger, keeping at most one batch
// in flight. Callers hold the rank lock.
func (t *TEL) flushLocked(ds []determinant.D) {
	if t.logger == nil {
		return
	}
	if t.inFlight {
		t.pendingFlush = append(t.pendingFlush, ds...)
		return
	}
	t.inFlight = true
	t.m.ControlMsg()
	t.logger.LogAsync(ds, t.onAck)
}

// onAck runs on the logger goroutine; it applies the stable vector under
// the rank lock and releases the next pending batch.
func (t *TEL) onAck(stable vclock.Vec) {
	t.locker.Lock()
	defer t.locker.Unlock()
	t.stableKnown.Merge(stable)
	// Drop stable determinants.
	kept := t.own[:0]
	for _, d := range t.own {
		if d.DeliverIndex > t.stableKnown[t.rank] {
			kept = append(kept, d)
		}
	}
	t.own = kept
	for _, d := range t.received.All() {
		if d.Receiver >= 0 && d.Receiver < t.n && d.DeliverIndex <= t.stableKnown[d.Receiver] {
			t.received.Remove(d.Key())
		}
	}
	t.inFlight = false
	if len(t.pendingFlush) > 0 {
		next := t.pendingFlush
		t.pendingFlush = nil
		t.flushLocked(next)
	}
}

// AppendSnapshot implements proto.Protocol.
func (t *TEL) AppendSnapshot(dst []byte) []byte {
	buf := binary.AppendVarint(dst, t.ownDelivered)
	buf = wire.AppendVec(buf, t.stableKnown)
	buf = determinant.AppendSlice(buf, t.own)
	buf = determinant.AppendSlice(buf, t.received.All())
	return buf
}

// Restore implements proto.Protocol.
func (t *TEL) Restore(data []byte) error {
	own, off := binary.Varint(data)
	if off <= 0 {
		return fmt.Errorf("tel: restore: bad header")
	}
	i := off
	stable, n, err := wire.ReadVec(data[i:])
	if err != nil {
		return fmt.Errorf("tel: restore: %w", err)
	}
	i += n
	ownDs, n, err := determinant.ReadSlice(data[i:])
	if err != nil {
		return fmt.Errorf("tel: restore: %w", err)
	}
	i += n
	recvDs, _, err := determinant.ReadSlice(data[i:])
	if err != nil {
		return fmt.Errorf("tel: restore: %w", err)
	}
	if len(stable) != t.n {
		return fmt.Errorf("tel: restore: stable vector length %d, want %d", len(stable), t.n)
	}
	t.ownDelivered = own
	t.stableKnown = stable
	t.own = ownDs
	t.received = determinant.NewSet()
	for _, d := range recvDs {
		t.received.Add(d)
	}
	t.inFlight = false
	t.pendingFlush = nil
	return nil
}

// RecoveryData implements proto.Replayer: the determinants this survivor
// still holds for the failed rank's post-checkpoint deliveries. (Stable
// determinants were pruned locally; the incarnation reads those straight
// from the event logger.)
func (t *TEL) RecoveryData(failed int, ckptDeliveredCount int64) []byte {
	var out []determinant.D
	for _, d := range t.received.All() {
		if d.Receiver == failed && d.DeliverIndex > ckptDeliveredCount {
			out = append(out, d)
		}
	}
	return determinant.AppendSlice(nil, out)
}

// BeginRecovery implements proto.Protocol: every delivery holds until
// OnCollected. The survivors' unstable determinants arrive through
// OnRecoveryData; whatever unstable ones a responder that died held for
// this rank are lost with it — the loss a PWD protocol accepts for
// simultaneous failures.
func (t *TEL) BeginRecovery() { t.Replay.Begin(t.ownDelivered) }

// OnCollected implements proto.Replayer: fetch own stable determinants
// from the event logger (a synchronous stable-storage read), then end
// the hold. The fetch waits until every peer has answered: a survivor
// drops a determinant from what it holds only once the logger has acked
// it as stable, so one missing from every answer was logged before the
// last answer was sent. Fetched at BeginRecovery, it could miss a dead
// incarnation's last flush, which the logger commits later.
func (t *TEL) OnCollected() {
	if t.logger != nil {
		t.Replay.Record(t.logger.FetchFor(t.rank, t.ownDelivered)...)
	}
	t.Replay.OnCollected()
}

// OnRecoveryData implements proto.Replayer.
func (t *TEL) OnRecoveryData(from int, data []byte) error {
	ds, _, err := determinant.ReadSlice(data)
	if err != nil {
		return fmt.Errorf("tel: recovery data from %d: %w", from, err)
	}
	t.Replay.Record(ds...)
	return nil
}

// OnPeerRollback implements proto.Protocol. TEL keeps no per-peer
// send-side estimate (every unstable determinant rides on every send), so
// nothing needs resetting when a peer rolls back.
func (t *TEL) OnPeerRollback(peer int, ckptDelivered int64) {}

// OnPeerCheckpoint implements proto.Replayer: determinants covered by the
// peer's checkpoint can never be replayed; drop them locally and at the
// logger.
func (t *TEL) OnPeerCheckpoint(peer int, deliveredCount int64) {
	for _, d := range t.received.All() {
		if d.Receiver == peer && d.DeliverIndex <= deliveredCount {
			t.received.Remove(d.Key())
		}
	}
	if peer == t.rank {
		kept := t.own[:0]
		for _, d := range t.own {
			if d.DeliverIndex > deliveredCount {
				kept = append(kept, d)
			}
		}
		t.own = kept
	}
	if t.logger != nil {
		t.logger.Prune(peer, deliveredCount)
	}
}
