// Package tag implements the TAG baseline: causal message logging with
// antecedence-graph dependency tracking under the piecewise-deterministic
// (PWD) execution model, in the style of Manetho [Elnozahy &
// Zwaenepoel 1992] and LogOn [Lee et al. 1998] — the first comparator of
// the paper's Fig. 6 and Fig. 7.
//
// Every delivery is a non-deterministic event recorded as a graph node
// (its determinant plus causal edges). On each send the process computes
// the *increment* of its graph the destination is estimated to lack and
// piggybacks it; the destination merges. Piggyback volume therefore grows
// with message frequency and system scale, and every send pays a graph
// traversal — the two overheads TDI eliminates.
//
// Under PWD, recovery must replay deliveries in exactly the recorded
// order: the incarnation first collects survivors' records of its
// post-checkpoint deliveries (via RESPONSE payloads), holds all delivery
// until every response has arrived, then admits only the exact message
// recorded for each successive delivery index.
package tag

import (
	"encoding/binary"
	"fmt"

	"windar/internal/agraph"
	"windar/internal/clock"
	"windar/internal/determinant"
	"windar/internal/metrics"
	"windar/internal/proto"
	"windar/internal/wire"
)

// TAG is one rank's protocol instance. It implements proto.Protocol.
type TAG struct {
	rank int
	n    int

	graph        *agraph.Graph
	knownTo      []map[agraph.NodeID]struct{} // per-destination estimate
	ownDelivered int64

	// Recovery (PWD replay) state. respSeen records which peers have
	// already been accounted against pendingResponses — by RESPONSE
	// arrival or by death — so a peer that responds, dies, and responds
	// again from its next incarnation is counted exactly once.
	pendingResponses int
	recorded         map[int64]determinant.D // deliverIndex -> determinant
	recoveryBase     int64
	respSeen         map[int]bool

	// Piggyback pre-validation memo: Deliverable runs on every probe of
	// a held FIFO head, so the bytes are checked once per (source, send
	// index). valSeen guards against envelopes whose forged SendIndex
	// collides with the zero value.
	valIdx  []int64
	valErr  []error
	valSeen []bool

	// track samples the send- and deliver-side tracking time (Fig. 7).
	track metrics.Tracker
}

var _ proto.Protocol = (*TAG)(nil)

// New returns a TAG instance for rank in an n-process system. The
// metrics rank may be nil; clk times the tracking overhead charged to it
// and defaults to the wall clock.
func New(rank, n int, m *metrics.Rank, clk clock.Clock) *TAG {
	t := &TAG{
		rank:    rank,
		n:       n,
		graph:   agraph.New(),
		knownTo: make([]map[agraph.NodeID]struct{}, n),
		valIdx:  make([]int64, n),
		valErr:  make([]error, n),
		valSeen: make([]bool, n),
		track:   metrics.NewTracker(m, clk),
	}
	for i := range t.knownTo {
		t.knownTo[i] = make(map[agraph.NodeID]struct{})
	}
	return t
}

// Name implements proto.Protocol.
func (t *TAG) Name() string { return "tag" }

// GraphLen reports the number of events currently tracked (tests,
// diagnostics).
func (t *TAG) GraphLen() int { return t.graph.Len() }

// PiggybackForSend implements proto.Protocol. The piggyback is the
// sender's current state interval followed by the graph increment for
// dest. The increment computation — the graph traversal Manetho pays on
// every send — is charged to send-side tracking time.
func (t *TAG) PiggybackForSend(dest int, sendIndex int64) ([]byte, int) {
	start, w := t.track.BeginSend()
	diff := t.graph.DiffAgainst(t.knownTo[dest])
	buf := binary.AppendVarint(make([]byte, 0, 16+24*len(diff)), t.ownDelivered)
	buf = agraph.AppendNodes(buf, diff)
	// Optimistically assume the destination receives it: the paper's
	// protocols have no way to know, which is why redundant piggyback
	// remains (Section II.B.2).
	for _, nd := range diff {
		t.knownTo[dest][nd.ID()] = struct{}{}
	}
	t.track.EndSend(start, w)
	return buf, determinant.IdentifierCount*len(diff) + 1
}

// validatePig checks that env's piggyback parses as a TAG increment
// (header interval + antecedence-graph nodes) without applying it,
// memoized per (source, send index). OnDeliver still owns the merge;
// this gate keeps hostile bytes from ever reaching it.
func (t *TAG) validatePig(env *wire.Envelope) error {
	src := env.From
	if src < 0 || src >= t.n {
		return fmt.Errorf("tag: rank %d: piggyback from out-of-range rank %d", t.rank, src)
	}
	if t.valSeen[src] && t.valIdx[src] == env.SendIndex {
		return t.valErr[src]
	}
	var err error
	if _, off := binary.Varint(env.Piggyback); off <= 0 {
		err = fmt.Errorf("tag: rank %d: bad piggyback header from %d", t.rank, src)
	} else if _, _, e := agraph.ReadNodes(env.Piggyback[off:]); e != nil {
		err = fmt.Errorf("tag: rank %d: bad piggyback from %d: %w", t.rank, src, e)
	}
	t.valSeen[src] = true
	t.valIdx[src] = env.SendIndex
	t.valErr[src] = err
	return err
}

// Deliverable implements proto.Protocol. In normal operation PWD imposes
// no wait (FIFO and duplicate control are the harness's); during rolling
// forward the recorded history pins each delivery slot to one exact
// message. A piggyback that does not parse is reported as an error
// (held by the harness), never delivered or panicked on.
func (t *TAG) Deliverable(env *wire.Envelope, deliveredCount int64) (proto.Verdict, error) {
	if err := t.validatePig(env); err != nil {
		return proto.Hold, err
	}
	if t.pendingResponses > 0 {
		// The replay order is not fully known yet; delivering now could
		// violate an order constraint that arrives in a later RESPONSE.
		return proto.Hold, nil
	}
	if det, ok := t.recorded[deliveredCount+1]; ok {
		if env.From == det.Sender && env.SendIndex == det.SendIndex {
			return proto.Deliver, nil
		}
		return proto.Hold, nil
	}
	// Beyond recorded history the event is a fresh non-deterministic
	// choice.
	return proto.Deliver, nil
}

// OnDeliver implements proto.Protocol: merge the piggybacked increment,
// record this delivery as a new graph node, and advance the known-set
// estimate for the sender.
func (t *TAG) OnDeliver(env *wire.Envelope, deliverIndex int64) error {
	start, w := t.track.BeginDeliver()
	senderInterval, off := binary.Varint(env.Piggyback)
	if off <= 0 {
		return fmt.Errorf("tag: rank %d: bad piggyback header from %d", t.rank, env.From)
	}
	nodes, _, err := agraph.ReadNodes(env.Piggyback[off:])
	if err != nil {
		return fmt.Errorf("tag: rank %d: bad piggyback from %d: %w", t.rank, env.From, err)
	}
	if err := t.graph.Merge(nodes); err != nil {
		return fmt.Errorf("tag: rank %d: %w", t.rank, err)
	}
	for _, nd := range nodes {
		t.knownTo[env.From][nd.ID()] = struct{}{}
	}
	own := agraph.Node{
		Det: determinant.D{
			Sender: env.From, SendIndex: env.SendIndex,
			Receiver: t.rank, DeliverIndex: deliverIndex,
		},
		CrossParent: agraph.NodeID{Proc: env.From, Seq: senderInterval},
	}
	if _, err := t.graph.Add(own); err != nil {
		return fmt.Errorf("tag: rank %d: %w", t.rank, err)
	}
	t.ownDelivered = deliverIndex
	delete(t.recorded, deliverIndex)
	t.track.EndDeliver(start, w)
	return nil
}

// Snapshot implements proto.Protocol: the delivered count and the whole
// graph. The known-set estimates are an optimization and deliberately not
// checkpointed — an incarnation restarts pessimistic.
func (t *TAG) Snapshot() []byte {
	buf := binary.AppendVarint(nil, t.ownDelivered)
	return agraph.AppendNodes(buf, t.graph.All())
}

// Restore implements proto.Protocol.
func (t *TAG) Restore(data []byte) error {
	own, off := binary.Varint(data)
	if off <= 0 {
		return fmt.Errorf("tag: restore: bad header")
	}
	nodes, _, err := agraph.ReadNodes(data[off:])
	if err != nil {
		return fmt.Errorf("tag: restore: %w", err)
	}
	t.ownDelivered = own
	t.graph = agraph.New()
	if err := t.graph.Merge(nodes); err != nil {
		return err
	}
	for i := range t.knownTo {
		t.knownTo[i] = make(map[agraph.NodeID]struct{})
	}
	return nil
}

// RecoveryData implements proto.Protocol: this survivor's record of the
// failed rank's deliveries after its checkpoint — the fragment of the
// antecedence graph that pins the replay order.
func (t *TAG) RecoveryData(failed int, ckptDeliveredCount int64) []byte {
	nodes := t.graph.DeliveriesOf(failed, ckptDeliveredCount)
	return agraph.AppendNodes(nil, nodes)
}

// BeginRecovery implements proto.Protocol. expectResponses counts only
// the peers live at ROLLBACK time; dead peers' records arrive later as
// uncounted late responses (or never, if they hold nothing new).
func (t *TAG) BeginRecovery(expectResponses int) {
	t.pendingResponses = expectResponses
	t.recorded = make(map[int64]determinant.D)
	t.recoveryBase = t.ownDelivered
	t.respSeen = make(map[int]bool)
}

// OnRecoveryData implements proto.Protocol: merge one survivor's record.
func (t *TAG) OnRecoveryData(from int, data []byte) error {
	nodes, _, err := agraph.ReadNodes(data)
	if err != nil {
		return fmt.Errorf("tag: recovery data from %d: %w", from, err)
	}
	if err := t.graph.Merge(nodes); err != nil {
		return err
	}
	if t.recorded == nil {
		// A stale RESPONSE reached a rank that is not rolling forward
		// (e.g. addressed to a previous incarnation); the merge above is
		// still useful, the replay bookkeeping is not.
		return nil
	}
	for _, nd := range nodes {
		if nd.Det.Receiver == t.rank && nd.Det.DeliverIndex > t.recoveryBase {
			t.recorded[nd.Det.DeliverIndex] = nd.Det
		}
	}
	// A duplicate or late RESPONSE (the peer answered a previous
	// incarnation's ROLLBACK, or revived and served the replayed one)
	// still merges above but must not decrement the count twice.
	if !t.respSeen[from] {
		t.respSeen[from] = true
		if t.pendingResponses > 0 {
			t.pendingResponses--
		}
	}
	return nil
}

// OnResponderLost implements proto.Protocol: a peer counted in
// BeginRecovery died before responding. Its record arrives later (if it
// revives) as an uncounted late response; stop holding delivery for it.
func (t *TAG) OnResponderLost(peer int) {
	if t.recorded == nil || t.respSeen[peer] {
		return
	}
	t.respSeen[peer] = true
	if t.pendingResponses > 0 {
		t.pendingResponses--
	}
}

// OnPeerRollback implements proto.Protocol: the peer's new incarnation
// restarts from its checkpoint, which records none of the known-set
// estimate accumulated against the old incarnation (estimates are
// deliberately not checkpointed — see Snapshot). Reset it so future
// piggybacks re-carry whatever the new incarnation may have lost.
func (t *TAG) OnPeerRollback(peer int, ckptDelivered int64) {
	if peer < 0 || peer >= t.n {
		return
	}
	t.knownTo[peer] = make(map[agraph.NodeID]struct{})
}

// OnPeerCheckpoint implements proto.Protocol: events at or before the
// peer's checkpoint can never be replayed, so drop them from the graph
// and the known-set estimates.
func (t *TAG) OnPeerCheckpoint(peer int, deliveredCount int64) {
	t.graph.Prune(peer, deliveredCount)
	for _, known := range t.knownTo {
		for id := range known {
			if id.Proc == peer && id.Seq <= deliveredCount {
				delete(known, id)
			}
		}
	}
}
