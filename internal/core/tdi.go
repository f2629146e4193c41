// Package core implements TDI — "Tracking based on Dependent Interval" —
// the lightweight causal message logging protocol that is the paper's
// contribution (Section III, Algorithm 1).
//
// Instead of piggybacking the determinants of every delivery event in the
// sender's causal past (a two-dimensional graph of message metadata, as
// the PWD-model protocols TAG and TEL must), TDI piggybacks a single
// integer vector depend_interval of length n:
//
//   - depend_interval[i] at process i counts the messages i has delivered
//     (its current state-interval index); it is incremented on every
//     delivery (Algorithm 1 line 20).
//   - every other element depend_interval[k] is the highest state
//     interval of process k in this process's causal past; it is updated
//     by merging the piggybacked vector on every delivered message
//     (lines 22-24).
//
// Delivery control needs only one comparison (line 17): a message m may
// be delivered by process i once i has delivered at least
// m.depend_interval[i] messages. During rolling forward this permits any
// arrival order that respects the dependency counts — the relaxation of
// the PWD model that removes both the piggyback volume and the
// wait-for-exact-message stalls of the baselines. Because the vector is
// logged with the raw data at the sender, a resent message's delivery
// slot is known the moment it arrives ("proactive perception of delivery
// order"), so recovery needs no determinant collection phase at all.
//
// # Delta piggyback (wire format v2)
//
// Between consecutive sends to the same destination the vector changes
// in only a few elements, so the piggyback is delta-encoded: the sender
// caches the last vector it sent per destination and emits only the
// changed (index, value) pairs (wire.AppendVecDelta), falling back to
// the full v1 vector every refreshEvery-th message so a fresh receiver
// incarnation can always resynchronize. The receiver reconstructs the
// full vector from a per-source cache committed on each delivery; the
// per-channel FIFO the harness enforces makes the chain exact.
//
// Regenerated sends after a rollback may diverge from the dead
// incarnation's originals at the same send index, so a restored or
// recovering incarnation keeps a per-destination delta floor: the highest
// send index of its that the destination had ingested when it answered
// the ROLLBACK (OnPeerResync; unknown until then). sent[dest] serves as a
// delta base only when cached above floor[dest], so the first send above
// the floor is full and every later delta chains onto it.
//
// The division of labour with the harness: the harness owns per-channel
// FIFO/duplicate control (lines 19, 21, 28), the sender log and its
// release (lines 12, 38-39), checkpointing (lines 32-37) and the
// ROLLBACK/RESPONSE exchange (lines 40-53); this package owns the
// dependency vector itself — what is piggybacked (line 11), when a
// message is deliverable (line 17) and the merge on delivery (lines
// 20-24).
package core

import (
	"fmt"
	"math"

	"windar/internal/clock"
	"windar/internal/metrics"
	"windar/internal/proto"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// DefaultRefreshEvery is the full-vector refresh cadence when none is
// configured: every 32nd message per destination carries the whole
// vector even if a delta would be smaller.
const DefaultRefreshEvery = 32

// snapshotV2Marker is the first byte of the Snapshot layout. The older
// bare-vector layout starts with uvarint(n) >= 1 and is rejected, as
// nothing writes it any more.
const snapshotV2Marker = 0x00

// floorUnknown is a delta floor no RESPONSE has reported yet: no cached
// vector can serve as a base.
const floorUnknown = math.MaxInt64

// TDI is one rank's protocol instance. It implements proto.Protocol.
type TDI struct {
	rank int
	n    int
	// dependInterval is the vector of Algorithm 1 line 3.
	dependInterval vclock.Vec
	m              *metrics.Rank
	// track samples the time of piggyback encodes and delivery merges
	// (the Fig. 7 tracking-time metric).
	track metrics.Tracker

	// refreshEvery is the per-destination full-vector cadence: at most
	// refreshEvery-1 consecutive deltas before a full resend. 1 disables
	// deltas entirely (the Fig. 6 full-vector baseline).
	refreshEvery int
	// floor and sentIdx, nil until a Restore or BeginRecovery, are the
	// per-destination delta floors and the send index each sent[dest] was
	// cached at (see the package doc).
	floor   []int64
	sentIdx []int64

	// pigArena backs every non-constant piggyback PiggybackForSend
	// returns: the sender log retains them, read-only, until the
	// destination's CHECKPOINT_ADVANCE releases them.
	pigArena wire.Arena

	// Send side: last vector sent per destination and deltas since the
	// last full vector.
	sent      []vclock.Vec
	sinceFull []int
	// depVersion counts mutations of dependInterval; sentVersion records
	// the version each destination's sent-cache was taken at. When they
	// match, the delta against sent[dest] is provably empty, so the
	// encoder emits the two constant bytes without scanning either
	// vector — the common case for a burst of sends with no delivery in
	// between.
	depVersion  uint64
	sentVersion []uint64

	// Receive side: last reconstructed vector per source (the delta
	// base), committed on delivery so it tracks lastDeliverIndex exactly.
	recv []vclock.Vec

	// Per-source decode memo: Deliverable, OnDeliver and DeliveryDemand
	// all see the same FIFO-head message, often repeatedly; decode it
	// once per (source, send index).
	memoIdx []int64
	memoVec []vclock.Vec
	memoErr []error
}

var _ proto.Protocol = (*TDI)(nil)
var _ proto.Demander = (*TDI)(nil)
var _ proto.Resyncer = (*TDI)(nil)

// New returns a TDI instance for rank in an n-process system. The metrics
// rank may be nil (e.g. in unit tests); clk times the tracking overhead
// charged to it and defaults to the wall clock.
func New(rank, n int, m *metrics.Rank, clk clock.Clock) *TDI {
	if m == nil {
		m = &metrics.Rank{}
	}
	t := &TDI{
		rank:           rank,
		n:              n,
		dependInterval: vclock.New(n),
		m:              m,
		track:          metrics.NewTracker(m, clk),
		refreshEvery:   DefaultRefreshEvery,
		sent:           make([]vclock.Vec, n),
		sinceFull:      make([]int, n),
		sentVersion:    make([]uint64, n),
		recv:           make([]vclock.Vec, n),
		memoIdx:        make([]int64, n),
		memoVec:        make([]vclock.Vec, n),
		memoErr:        make([]error, n),
	}
	for i := range t.memoIdx {
		t.memoIdx[i] = -1
	}
	return t
}

// SetRefreshEvery overrides the full-vector refresh cadence: every k-th
// message per destination carries the full vector. k == 1 disables
// delta encoding entirely; k <= 0 restores the default.
func (t *TDI) SetRefreshEvery(k int) {
	if k <= 0 {
		k = DefaultRefreshEvery
	}
	t.refreshEvery = k
}

// Name implements proto.Protocol.
func (t *TDI) Name() string { return "tdi" }

// DependInterval returns a copy of the current dependency vector
// (diagnostics and tests).
func (t *TDI) DependInterval() vclock.Vec { return t.dependInterval.Clone() }

// PiggybackForSend implements proto.Protocol: the piggyback is the
// current depend_interval vector (Algorithm 1 line 11) — delta-encoded
// against the last vector sent to dest when that is smaller and the
// refresh cadence permits, the full n-element vector otherwise. The
// result is retained by the sender log, so it is the caller's to keep:
// an immutable slice appended at the tail of the instance's arena (see
// wire.Arena). Callers that own a reusable buffer (the allocation
// probes) use AppendPiggybackForSend directly.
//
//windar:hotpath
func (t *TDI) PiggybackForSend(dest int, sendIndex int64) ([]byte, int) {
	if t.emptyDeltaEligible(dest) {
		// The empty delta is two constant bytes that every holder —
		// sender log, wire encoder, inline copy — only ever reads, so a
		// single shared slice serves all of them with no allocation.
		// The slice is full (len == cap), so an append by any caller
		// copies out rather than scribbling on the shared backing.
		t.recordEmptyDelta(dest)
		return emptyDeltaPig, 1
	}
	// The full vector bounds the encoding: a delta is chosen only when
	// it is smaller.
	pig, ids := t.AppendPiggybackForSend(t.pigArena.Tail(wire.VecSize(t.dependInterval)), dest, sendIndex)
	return t.pigArena.Commit(pig), ids
}

// emptyDeltaPig is the shared empty-delta encoding (see
// PiggybackForSend). Never mutate it.
var emptyDeltaPig = []byte{wire.VecDeltaMarker, 0}

// recordEmptyDelta performs the per-send bookkeeping for an
// empty-delta piggyback: cadence, tracking time, pig-size metrics.
// The sent-cache needs no update — the version match proves it is
// already exactly the current vector.
//
//windar:hotpath
func (t *TDI) recordEmptyDelta(dest int) {
	start, w := t.track.BeginSend()
	t.sinceFull[dest]++
	t.track.EndSend(start, w)
	t.m.PigDelta(2)
}

// emptyDeltaEligible reports whether the next piggyback to dest is
// provably the constant empty delta: delta encoding is permitted by the
// cadence and the floor, the sent-cache is exactly the current vector
// (version match), and the two-byte delta beats the full vector (any
// n >= 2 full vector is at least three bytes; n == 1 takes the scanning
// path so the size comparison stays exact).
func (t *TDI) emptyDeltaEligible(dest int) bool {
	return t.n >= 2 && t.deltaBase(dest) && t.sentVersion[dest] == t.depVersion
}

// deltaBase reports whether sent[dest] may serve as the base of the next
// send's delta: the cadence permits one and, after a rollback, the base
// was cached above the destination's floor.
func (t *TDI) deltaBase(dest int) bool {
	return t.refreshEvery > 1 && t.sent[dest] != nil && t.sinceFull[dest] < t.refreshEvery-1 &&
		(t.floor == nil || t.sentIdx[dest] > t.floor[dest])
}

// AppendPiggybackForSend appends the piggyback for message sendIndex to
// dest onto buf and returns the extended slice plus the piggybacked
// integer count (the Fig. 5 unit). It is the allocation-free core of
// PiggybackForSend: with a buffer of steady-state capacity the whole
// encode — size probing, delta selection, per-destination cache update —
// performs zero heap allocations.
//
//windar:hotpath
func (t *TDI) AppendPiggybackForSend(buf []byte, dest int, sendIndex int64) ([]byte, int) {
	start, w := t.track.BeginSend()
	if t.emptyDeltaEligible(dest) {
		// Nothing delivered since the last piggyback to dest: the delta
		// is the constant empty encoding. Skips the O(n) size probes and
		// the sent-cache copy-back (which would be a self-copy).
		t.track.EndSend(start, w)
		buf = append(buf, wire.VecDeltaMarker, 0)
		t.m.PigDelta(2)
		t.sinceFull[dest]++
		return buf, 1
	}
	mark := len(buf)
	ids := t.n
	delta := false
	if t.deltaBase(dest) {
		if ds := wire.VecDeltaSize(t.sent[dest], t.dependInterval); ds < wire.VecSize(t.dependInterval) {
			buf = wire.AppendVecDelta(buf, t.sent[dest], t.dependInterval)
			ids = 2*wire.VecChanged(t.sent[dest], t.dependInterval) + 1
			delta = true
		}
	}
	if !delta {
		buf = wire.AppendVec(buf, t.dependInterval)
	}
	if delta {
		t.sinceFull[dest]++
	} else {
		t.sinceFull[dest] = 0
	}
	if t.sent[dest] == nil {
		t.sent[dest] = t.dependInterval.Clone()
	} else {
		t.sent[dest].CopyFrom(t.dependInterval)
	}
	t.sentVersion[dest] = t.depVersion
	if t.floor != nil {
		t.sentIdx[dest] = sendIndex
	}
	t.track.EndSend(start, w)
	if delta {
		t.m.PigDelta(len(buf) - mark)
	} else {
		t.m.PigFull()
	}
	return buf, ids
}

// decodePig reconstructs env's full depend_interval vector: a v1 full
// vector directly, a v2 delta applied to the per-source base committed
// at the previous delivery on that channel. The result is memoized per
// (source, send index) so the repeated Deliverable probes on a held
// FIFO head decode once; the memo vector doubles as the decode scratch,
// so the steady-state decode reuses its storage and allocates nothing.
// Callers never retain the returned vector past their own call (the
// merge copies it), which is what makes the reuse safe.
//
//windar:hotpath
func (t *TDI) decodePig(env *wire.Envelope) (vclock.Vec, error) {
	src := env.From
	if src < 0 || src >= t.n {
		return nil, t.errPigSource(src)
	}
	if t.memoIdx[src] == env.SendIndex && (t.memoVec[src] != nil || t.memoErr[src] != nil) {
		return t.memoVec[src], t.memoErr[src]
	}
	v, _, _, err := wire.ReadVecAnyInto(t.memoVec[src], env.Piggyback, t.recv[src])
	if err != nil {
		v = nil
		err = t.errPigDecode(src, err)
	} else if len(v) != t.n {
		err = t.errPigLength(src, len(v))
		v = nil
	}
	t.memoIdx[src] = env.SendIndex
	t.memoVec[src] = v
	t.memoErr[src] = err
	return v, err
}

// The cold-path error constructors live outside the annotated spans:
// fmt's boxing allocates, and these only run on hostile or broken input.
// noinline keeps that boxing attributed here rather than inline-expanded
// into the hot callers' escape-analysis spans.

//go:noinline
func (t *TDI) errPigSource(src int) error {
	return fmt.Errorf("core: rank %d: piggyback from out-of-range rank %d", t.rank, src)
}

//go:noinline
func (t *TDI) errPigDecode(src int, err error) error {
	return fmt.Errorf("core: rank %d: bad TDI piggyback from %d: %w", t.rank, src, err)
}

//go:noinline
func (t *TDI) errPigLength(src, got int) error {
	return fmt.Errorf("core: rank %d: piggyback length %d from %d, want %d", t.rank, got, src, t.n)
}

// Deliverable implements proto.Protocol: line 17 of Algorithm 1. The
// message may be delivered once this rank's own interval index has reached
// the piggybacked requirement. A malformed piggyback is reported as an
// error (treated as Hold by the harness), never a panic.
//
//windar:hotpath
func (t *TDI) Deliverable(env *wire.Envelope, deliveredCount int64) (proto.Verdict, error) {
	pig, err := t.decodePig(env)
	if err != nil {
		return proto.Hold, err
	}
	if deliveredCount >= pig[t.rank] {
		return proto.Deliver, nil
	}
	return proto.Hold, nil
}

// OnDeliver implements proto.Protocol: lines 20 and 22-24. The own element
// is advanced by exactly one (this delivery); the rest is merged from the
// piggyback. The reconstructed vector also becomes the delta base for the
// next message on this channel.
//
//windar:hotpath
func (t *TDI) OnDeliver(env *wire.Envelope, deliverIndex int64) error {
	start, w := t.track.BeginDeliver()
	pig, err := t.decodePig(env)
	if err != nil {
		return err
	}
	t.depVersion++
	t.dependInterval[t.rank]++
	if t.dependInterval[t.rank] != deliverIndex {
		return t.errIndexDiverged(deliverIndex)
	}
	t.dependInterval.MergeExcept(pig, t.rank)
	src := env.From
	if t.recv[src] == nil {
		t.recv[src] = pig.Clone()
	} else {
		t.recv[src].CopyFrom(pig)
	}
	t.track.EndDeliver(start, w)
	return nil
}

// errIndexDiverged is OnDeliver's cold-path error constructor, kept out
// of the annotated span (fmt boxing allocates).
//
//go:noinline
func (t *TDI) errIndexDiverged(deliverIndex int64) error {
	return fmt.Errorf("core: rank %d: interval index %d diverged from deliver index %d",
		t.rank, t.dependInterval[t.rank], deliverIndex)
}

// DeliveryDemand implements proto.Demander: the piggybacked
// depend_interval element for this rank is exactly the delivery count
// Algorithm 1 line 17 requires before env may be delivered. It feeds the
// trace recorder so the offline invariant checker can re-verify the
// comparison on every recorded delivery. Deltas carry absolute values,
// so re-decoding against the post-delivery base is exact.
//
//windar:hotpath
func (t *TDI) DeliveryDemand(env *wire.Envelope) (int64, bool) {
	pig, err := t.decodePig(env)
	if err != nil || t.rank >= len(pig) {
		return 0, false
	}
	return pig[t.rank], true
}

// Snapshot implements proto.Protocol: the depend_interval vector
// (line 33 saves it with the checkpoint) plus the per-source delta
// bases, which must survive a restore so the incarnation can keep
// decoding deltas from live senders mid-chain.
func (t *TDI) Snapshot() []byte {
	buf := append([]byte(nil), snapshotV2Marker)
	buf = wire.AppendVec(buf, t.dependInterval)
	for src := 0; src < t.n; src++ {
		if t.recv[src] == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = wire.AppendVec(buf, t.recv[src])
	}
	return buf
}

// Restore implements proto.Protocol (line 42): it accepts the layout of
// Snapshot only. Restoring resets every delta floor to unknown: the
// regenerated sends may diverge from the dead incarnation's originals,
// so no per-destination delta base is trustworthy until the
// destination reports what it ingested (OnPeerResync).
func (t *TDI) Restore(data []byte) error {
	if len(data) == 0 || data[0] != snapshotV2Marker {
		return fmt.Errorf("core: restore: no snapshot marker")
	}
	recv := make([]vclock.Vec, t.n)
	i := 1
	di, n, err := wire.ReadVec(data[i:])
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	i += n
	for src := 0; src < t.n; src++ {
		if i >= len(data) {
			return fmt.Errorf("core: restore: truncated delta bases")
		}
		present := data[i]
		i++
		if present == 0 {
			continue
		}
		base, n, err := wire.ReadVec(data[i:])
		if err != nil {
			return fmt.Errorf("core: restore: base for %d: %w", src, err)
		}
		if len(base) != t.n {
			return fmt.Errorf("core: restore: base length %d for %d, want %d", len(base), src, t.n)
		}
		i += n
		recv[src] = base
	}
	if len(di) != t.n {
		return fmt.Errorf("core: restore: vector length %d, want %d", len(di), t.n)
	}
	t.dependInterval = di
	t.recv = recv
	for i := range t.memoIdx {
		t.memoIdx[i] = -1
		t.memoVec[i] = nil
		t.memoErr[i] = nil
	}
	t.sent = make([]vclock.Vec, t.n)
	t.sinceFull = make([]int, t.n)
	t.sentVersion = make([]uint64, t.n)
	t.depVersion++
	t.resetFloors()
	return nil
}

// resetFloors marks every destination's delta floor unknown.
func (t *TDI) resetFloors() {
	if t.floor == nil {
		t.floor, t.sentIdx = make([]int64, t.n), make([]int64, t.n)
	}
	for i := range t.floor {
		t.floor[i] = floorUnknown
	}
}

// BeginRecovery implements proto.Protocol. TDI is no proto.Replayer: each
// resent message carries its logged depend_interval, which is all a
// recovering rank needs (the "proactive perception" property), so
// delivery can begin the moment messages arrive. The delta floors are
// reset as in Restore — this also covers a recovery with no checkpoint,
// where Restore never ran.
func (t *TDI) BeginRecovery() { t.resetFloors() }

// OnPeerResync implements proto.Resyncer: peer had ingested this rank's
// messages up to send index highWater when it answered this
// incarnation's ROLLBACK, so no original of a dead incarnation can be
// delivered there above it. Floors only rise: a second answer (from the
// peer's next incarnation) never lowers one.
func (t *TDI) OnPeerResync(peer int, highWater int64) {
	if t.floor == nil || peer < 0 || peer >= t.n {
		return
	}
	if f := t.floor[peer]; f == floorUnknown || highWater > f {
		t.floor[peer] = highWater
	}
}

// OnPeerRollback implements proto.Protocol. The peer's new incarnation
// reconstructs its receive-side delta bases from its checkpoint, which may
// not match the send-side cache accumulated against the previous
// incarnation — drop the cache so the next send to the peer carries a full
// vector and restarts the delta chain from a shared base.
func (t *TDI) OnPeerRollback(peer int, ckptDelivered int64) {
	if peer < 0 || peer >= t.n {
		return
	}
	t.sent[peer] = nil
	t.sinceFull[peer] = 0
}
