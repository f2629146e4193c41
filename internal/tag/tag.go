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
// until the harness reports the collection over, then admits only the
// exact message recorded for each successive delivery index
// (determinant.Replay).
package tag

import (
	"encoding/binary"
	"errors"
	"fmt"

	"windar/internal/agraph"
	"windar/internal/clock"
	"windar/internal/determinant"
	"windar/internal/metrics"
	"windar/internal/proto"
	"windar/internal/wire"
)

// TAG is one rank's protocol instance. It implements proto.Protocol and
// proto.Replayer; the embedded Replay supplies Deliverable and
// OnCollected.
type TAG struct {
	determinant.Replay

	rank int
	n    int

	graph        *agraph.Graph
	knownTo      []map[agraph.NodeID]struct{} // per-destination estimate
	ownDelivered int64

	// track samples the send- and deliver-side tracking time (Fig. 7).
	track metrics.Tracker
}

var _ proto.Protocol = (*TAG)(nil)
var _ proto.Replayer = (*TAG)(nil)

// New returns a TAG instance for rank in an n-process system. The
// metrics rank may be nil; clk times the tracking overhead charged to it
// and defaults to the wall clock.
func New(rank, n int, m *metrics.Rank, clk clock.Clock) *TAG {
	t := &TAG{
		Replay:  determinant.NewReplay("tag", rank, n, checkPig),
		rank:    rank,
		n:       n,
		graph:   agraph.New(),
		knownTo: make([]map[agraph.NodeID]struct{}, n),
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

// readPig decodes a TAG piggyback: the sender's state interval, then its
// antecedence-graph increment.
func readPig(pig []byte) (int64, []agraph.Node, error) {
	interval, off := binary.Varint(pig)
	if off <= 0 {
		return 0, nil, errors.New("bad header")
	}
	nodes, _, err := agraph.ReadNodes(pig[off:])
	return interval, nodes, err
}

// checkPig is readPig without the result: Replay's piggyback validation.
func checkPig(pig []byte) error {
	_, _, err := readPig(pig)
	return err
}

// OnDeliver implements proto.Protocol: merge the piggybacked increment,
// record this delivery as a new graph node, and advance the known-set
// estimate for the sender.
func (t *TAG) OnDeliver(env *wire.Envelope, deliverIndex int64) error {
	start, w := t.track.BeginDeliver()
	senderInterval, nodes, err := readPig(env.Piggyback)
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
	t.Replay.Delivered(deliverIndex)
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

// RecoveryData implements proto.Replayer: this survivor's record of the
// failed rank's deliveries after its checkpoint — the fragment of the
// antecedence graph that pins the replay order.
func (t *TAG) RecoveryData(failed int, ckptDeliveredCount int64) []byte {
	nodes := t.graph.DeliveriesOf(failed, ckptDeliveredCount)
	return agraph.AppendNodes(nil, nodes)
}

// BeginRecovery implements proto.Protocol: the recorded order is
// collected from the survivors' RESPONSEs.
func (t *TAG) BeginRecovery() { t.Replay.Begin(t.ownDelivered) }

// OnRecoveryData implements proto.Replayer: merge one survivor's record.
// A stale RESPONSE (addressed to a previous incarnation) still merges;
// Record ignores it outside recovery.
func (t *TAG) OnRecoveryData(from int, data []byte) error {
	nodes, _, err := agraph.ReadNodes(data)
	if err != nil {
		return fmt.Errorf("tag: recovery data from %d: %w", from, err)
	}
	if err := t.graph.Merge(nodes); err != nil {
		return err
	}
	for _, nd := range nodes {
		t.Replay.Record(nd.Det)
	}
	return nil
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

// OnPeerCheckpoint implements proto.Replayer: events at or before the
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
