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
// # Differential piggyback (wire format v4)
//
// Between consecutive sends to the same destination the vector changes
// in only a few elements, so the piggyback carries only those: Singhal
// and Kshemkalyani's differential technique. The sender stamps each
// element with the version (delivery count) at which it last rose and
// each destination with the version of the last send to it; the
// piggyback is the elements stamped after that send (wire.AppendVecSince),
// or the full vector when that is smaller; zero bytes when nothing
// changed. Every version bump is a delivery, which raises the sender's
// own element by exactly one, so a non-empty piggyback always carries
// it, at an implicit index, and as its increment over the value the
// previous piggyback on the channel carried: the version count since
// that send, less one. Per-channel FIFO, which the harness enforces,
// means the receiver has already merged every omitted element and that
// previous piggyback, so the other values merge as absolutes; a
// receiver keeps per source only the last delivered message's demand,
// which a piggyback that omits the receiver's own element repeats, and
// the sender's element that message carried, the base of the next
// increment. A full vector sent with no base (the first send, after
// Restore or OnPeerRollback, or one the delta floor forces) is absolute
// and resets the receiver's. Sender and receiver state are both O(n).
//
// A receiver that discards a regenerated send as repetitive never
// merges its pairs; it merged the dead incarnation's original instead.
// A replay that makes no AnySource choice delivers the same messages in
// the same order as the run it re-executes, so each regenerated vector
// equals the original's and a delta on it is the one the receiver
// expects. A replay that delivers through AnySource may reorder, and
// then regenerated sends may diverge from the originals at the same send
// index. So a restored or recovering incarnation keeps a per-destination
// delta floor: the highest send index of its that the destination had
// ingested when it answered the ROLLBACK (OnPeerResync; unknown until
// then). Once the cluster's reorder flag is set (SetReorderFlag: some
// restored incarnation has delivered through AnySource, or the cluster
// restarted, whose logs may hold such a replay's records), a delta is sent
// only when the last send to the destination that carried pairs was
// above its floor, so the first such send above the floor is full and
// every later delta builds on delivered messages. Until then the floors
// are kept but gate nothing.
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
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"windar/internal/clock"
	"windar/internal/metrics"
	"windar/internal/proto"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// snapshotMarker is the first byte of the Snapshot layout. The older
// layouts — a bare vector, the 0x00-marked one holding a base vector per
// source, and the 0x01-marked one without the channel bases — are
// rejected: nothing writes them any more.
const snapshotMarker = 0x02

// floorUnknown is a delta floor no RESPONSE has reported yet: no send
// can serve as a delta base.
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

	// fullVectors sends the whole vector on every message: the paper's
	// published protocol, the Fig. 6 baseline.
	fullVectors bool
	// version counts deliveries, each of which raises at least the own
	// element. lastUpdate[k] is the version at which dependInterval[k]
	// last rose; lastSend[d] is the version at the last send to d, 0
	// while d has no delta base (nothing sent yet, or reset by Restore
	// or OnPeerRollback). The delta to d is every k with lastUpdate[k] >
	// lastSend[d], and it is empty exactly when lastSend[d] == version.
	version    uint64
	lastUpdate []uint64
	lastSend   []uint64
	// floor and sentIdx, nil until a Restore or BeginRecovery, are the
	// per-destination delta floors and the send index of the last send
	// to each destination that carried pairs (see the package doc).
	floor   []int64
	sentIdx []int64
	// reordered, set by SetReorderFlag, reports whether a restored
	// incarnation anywhere in the cluster has delivered through
	// AnySource, or the cluster restarted. While it is clear the floors
	// gate nothing; nil keeps them gating.
	reordered *atomic.Bool

	// lastDemand[src] is the own-element demand of the last message
	// merged from src, -1 before the first: the demand of a piggyback
	// that omits the own element. lastOwn[src] is src's element that
	// message carried, the base of the next one's increment, -1 before
	// the first: a relative piggyback from src is then rejected.
	lastDemand []int64
	lastOwn    []int64

	// pigArena backs every non-empty piggyback PiggybackForSend returns:
	// the sender log retains them, read-only, until the destination's
	// CHECKPOINT_ADVANCE releases them.
	pigArena wire.Arena
	// raised is OnDeliver's scratch: the elements the piggyback raises,
	// with their new values, committed once it has read clean.
	raised []raise
}

type raise struct {
	k int
	v int64
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
		version:        1,
		lastUpdate:     make([]uint64, n),
		lastSend:       make([]uint64, n),
		lastDemand:     make([]int64, n),
		lastOwn:        make([]int64, n),
	}
	for i := range t.lastDemand {
		t.lastDemand[i], t.lastOwn[i] = -1, -1
	}
	return t
}

// SetRefreshEvery selects the encoding: k == 1 sends the full vector on
// every message (the Fig. 6 baseline); any other k selects the default
// differential piggyback, which sends the full vector only when it is
// the smaller encoding or the destination has no delta base.
func (t *TDI) SetRefreshEvery(k int) { t.fullVectors = k == 1 }

// SetReorderFlag hands t the cluster's record of whether a restored
// incarnation has delivered through AnySource, the one delivery a
// replay may make in another order than the original run. Until f is
// set, the delta floors gate nothing.
func (t *TDI) SetReorderFlag(f *atomic.Bool) { t.reordered = f }

// Name implements proto.Protocol.
func (t *TDI) Name() string { return "tdi" }

// DependInterval returns a copy of the current dependency vector
// (diagnostics and tests).
func (t *TDI) DependInterval() vclock.Vec { return t.dependInterval.Clone() }

// PiggybackForSend implements proto.Protocol: the piggyback is the
// current depend_interval vector (Algorithm 1 line 11) — the elements
// that changed since the last send to dest when that is smaller, the
// full n-element vector otherwise, and nothing at all when no element
// changed. The result is retained by the sender log, so it is the
// caller's to keep: an immutable slice appended at the tail of the
// instance's arena (see wire.Arena). Callers that own a reusable buffer
// (the allocation probes) use AppendPiggybackForSend directly.
func (t *TDI) PiggybackForSend(dest int, sendIndex int64) ([]byte, int) {
	var buf []byte
	if !t.unchangedSince(dest) {
		// The absolute full vector bounds the encoding: a delta is
		// chosen only when it is smaller, and a relative full vector's
		// header is at most one byte longer.
		full, _ := wire.VecSinceSize(t.dependInterval, t.rank, nil, 0, -1)
		buf = t.pigArena.Tail(full + 1)
	}
	pig, ids := t.AppendPiggybackForSend(buf, dest, sendIndex)
	return t.pigArena.Commit(pig), ids
}

// unchangedSince reports whether the next piggyback to dest is the
// empty one: dest has a delta base and no element rose since the last
// send to it.
func (t *TDI) unchangedSince(dest int) bool {
	return t.deltaBase(dest) && t.lastSend[dest] == t.version && !t.floorBlocks(dest)
}

// deltaBase reports whether dest has had a send since its base was last
// reset, so the next send to it may build on that send — a delta, an
// increment — unless its floor blocks.
func (t *TDI) deltaBase(dest int) bool {
	return !t.fullVectors && t.lastSend[dest] != 0
}

// floorBlocks reports whether dest's delta floor forbids building on the
// last send: after a rollback, once a replay may have reordered
// deliveries, the last send to dest that carried pairs must be above the
// floor.
func (t *TDI) floorBlocks(dest int) bool {
	return t.floor != nil && t.sentIdx[dest] <= t.floor[dest] &&
		(t.reordered == nil || t.reordered.Load())
}

// AppendPiggybackForSend appends the piggyback for message sendIndex to
// dest onto buf and returns the extended slice plus the piggybacked
// integer count (the Fig. 5 unit). It is the allocation-free core of
// PiggybackForSend: with a buffer of steady-state capacity the whole
// encode performs zero heap allocations.
func (t *TDI) AppendPiggybackForSend(buf []byte, dest int, sendIndex int64) ([]byte, int) {
	start, w := t.track.BeginSend()
	if t.unchangedSince(dest) {
		t.track.EndSend(start, w)
		t.m.PigDelta(0)
		return buf, 0
	}
	mark := len(buf)
	var ver []uint64 // nil: the full vector
	ids, since, base := t.n, t.lastSend[dest], int64(-1)
	if t.deltaBase(dest) {
		// Every version bump is one delivery, which raised the own
		// element by one, so the last send to dest carried it
		// version - since lower. (With no bump, only the floor keeps
		// this send from being empty; the sizes then price an own-only
		// piggyback.)
		b := t.dependInterval[t.rank] - int64(max(t.version-since, 1))
		size, k := wire.VecSinceSize(t.dependInterval, t.rank, t.lastUpdate, since, b)
		full, _ := wire.VecSinceSize(t.dependInterval, t.rank, nil, 0, b)
		switch {
		case t.floorBlocks(dest):
			if size < full {
				t.m.PigFloorFull() // the floor alone keeps this send full
			}
		case size < full:
			ver, ids, base = t.lastUpdate, k, b
		default:
			base = b
		}
	}
	buf = wire.AppendVecSince(buf, t.dependInterval, t.rank, ver, since, base)
	delta := ver != nil
	t.lastSend[dest] = t.version
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

// demand validates env's piggyback and returns the delivery count it
// demands of this rank — the own element when the piggyback carries it,
// else the source's last demand, which per-channel FIFO makes exact —
// and the source's element, the base of the next increment on the
// channel. With collect, it also gathers in t.raised the elements it
// raises.
func (t *TDI) demand(env *wire.Envelope, collect bool) (d, own int64, err error) {
	src := env.From
	if src < 0 || src >= t.n {
		return 0, 0, t.errPigSource(src)
	}
	d, own = t.lastDemand[src], t.lastOwn[src]
	if len(env.Piggyback) == 0 && own >= 0 {
		return d, own, nil // nothing changed since the last message: the common case
	}
	var p wire.VecPairs
	p.Reset(env.Piggyback, t.n, src, own)
	for k, v, ok := p.Next(); ok; k, v, ok = p.Next() {
		switch {
		case k == t.rank: // never raised by hearsay, even from a forged source
			d = v
		case collect && v > t.dependInterval[k]:
			t.raised = append(t.raised, raise{k, v})
		}
		if k == src {
			own = v
		}
	}
	if err := p.Err(); err != nil {
		return 0, 0, t.errPigDecode(src, err)
	}
	return d, own, nil
}

// The cold-path error constructors stay out of line of the hot callers:
// fmt's boxing allocates, and these only run on hostile or broken input.

//go:noinline
func (t *TDI) errPigSource(src int) error {
	return fmt.Errorf("core: rank %d: piggyback from out-of-range rank %d", t.rank, src)
}

//go:noinline
func (t *TDI) errPigDecode(src int, err error) error {
	return fmt.Errorf("core: rank %d: bad TDI piggyback from %d: %w", t.rank, src, err)
}

// Deliverable implements proto.Protocol: line 17 of Algorithm 1. The
// message may be delivered once this rank's own interval index has reached
// the piggybacked requirement. A malformed piggyback is reported as an
// error (treated as Hold by the harness), never a panic.
func (t *TDI) Deliverable(env *wire.Envelope, deliveredCount int64) (proto.Verdict, error) {
	d, _, err := t.demand(env, false)
	if err != nil {
		return proto.Hold, err
	}
	if deliveredCount >= d {
		return proto.Deliver, nil
	}
	return proto.Hold, nil
}

// OnDeliver implements proto.Protocol: lines 20 and 22-24. The own element
// is advanced by exactly one (this delivery); every other pair the
// piggyback carries is max-merged. The piggyback is read once, and a
// malformed one is rejected before any state changes.
func (t *TDI) OnDeliver(env *wire.Envelope, deliverIndex int64) error {
	start, w := t.track.BeginDeliver()
	if t.dependInterval[t.rank]+1 != deliverIndex {
		return t.errIndexDiverged(deliverIndex)
	}
	t.raised = t.raised[:0]
	d, own, err := t.demand(env, true)
	if err != nil {
		return err
	}
	t.version++
	t.dependInterval[t.rank]++
	t.lastUpdate[t.rank] = t.version
	for _, r := range t.raised {
		t.dependInterval[r.k], t.lastUpdate[r.k] = r.v, t.version
	}
	t.lastDemand[env.From], t.lastOwn[env.From] = d, own
	t.track.EndDeliver(start, w)
	return nil
}

// errIndexDiverged is OnDeliver's cold-path error constructor, kept out
// of line (fmt boxing allocates).
//
//go:noinline
func (t *TDI) errIndexDiverged(deliverIndex int64) error {
	return fmt.Errorf("core: rank %d: interval index %d diverged from deliver index %d",
		t.rank, t.dependInterval[t.rank]+1, deliverIndex)
}

// DeliveryDemand implements proto.Demander: the piggybacked
// depend_interval element for this rank is exactly the delivery count
// Algorithm 1 line 17 requires before env may be delivered. It feeds the
// trace recorder so the offline invariant checker can re-verify the
// comparison on every recorded delivery. OnDeliver(env) recorded it as
// the source's last demand, so nothing is decoded again.
func (t *TDI) DeliveryDemand(env *wire.Envelope) (int64, bool) {
	if src := env.From; src >= 0 && src < t.n && t.lastDemand[src] >= 0 {
		return t.lastDemand[src], true
	}
	return 0, false
}

// AppendSnapshot implements proto.Protocol: the depend_interval vector
// (line 33 saves it with the checkpoint) plus, per source, the last
// demand and the last own element, which the next message from a live
// sender may omit or carry as an increment.
func (t *TDI) AppendSnapshot(dst []byte) []byte {
	buf := append(dst, snapshotMarker)
	buf = wire.AppendVec(buf, t.dependInterval)
	for i, d := range t.lastDemand {
		buf = binary.AppendVarint(buf, d)
		buf = binary.AppendVarint(buf, t.lastOwn[i])
	}
	return buf
}

// Restore implements proto.Protocol (line 42): it accepts the layout of
// AppendSnapshot only. Restoring drops every delta base and resets every delta
// floor to unknown: once a replay may have reordered, the regenerated
// sends may diverge from the dead incarnation's originals, and no delta
// is trustworthy until the destination reports what it ingested
// (OnPeerResync).
func (t *TDI) Restore(data []byte) error {
	if len(data) == 0 || data[0] != snapshotMarker {
		return fmt.Errorf("core: restore: snapshot marker %#x, want %#02x", data[:min(len(data), 1)], snapshotMarker)
	}
	c := wire.NewCursor(data[1:])
	di := c.Vec()
	demands, owns := make([]int64, t.n), make([]int64, t.n)
	for i := range demands {
		demands[i], owns[i] = c.Varint(), c.Varint()
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if len(di) != t.n {
		return fmt.Errorf("core: restore: vector length %d, want %d", len(di), t.n)
	}
	if c.Len() != 0 {
		return fmt.Errorf("core: restore: %d trailing bytes", c.Len())
	}
	t.dependInterval, t.lastDemand, t.lastOwn = di, demands, owns
	clear(t.lastSend)
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
// restarts from its checkpoint, which need not hold everything this
// rank's later sends took as delivered — drop the base so the next send
// to the peer carries a full vector.
func (t *TDI) OnPeerRollback(peer int, ckptDelivered int64) {
	if peer < 0 || peer >= t.n {
		return
	}
	t.lastSend[peer] = 0
}
