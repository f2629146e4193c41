package determinant

import (
	"fmt"

	"windar/internal/proto"
	"windar/internal/wire"
)

// Replay is the rolling-forward state the PWD protocols (TAG, TEL) embed
// for Deliverable and OnCollected. From Begin until the harness ends the
// collection phase every delivery holds; then each recorded delivery
// slot admits only its one message and slots past recorded history are
// free choice. Piggybacks are validated through the protocol's parse
// function before they can reach its merge.
type Replay struct {
	name  string
	rank  int
	parse func(pig []byte) error
	memo  []pigCheck // per source: Deliverable re-probes a held FIFO head

	recorded   map[int64]D // deliverIndex -> determinant; nil before Begin
	base       int64       // deliveries restored from the checkpoint
	collecting bool
}

// pigCheck is one source's last piggyback validation. set guards against
// a forged SendIndex equal to the zero value.
type pigCheck struct {
	idx int64
	err error
	set bool
}

// NewReplay returns the replay state of rank in an n-process system
// running protocol name; parse reports whether a piggyback decodes.
func NewReplay(name string, rank, n int, parse func(pig []byte) error) Replay {
	return Replay{name: name, rank: rank, parse: parse, memo: make([]pigCheck, n)}
}

// Deliverable implements proto.Protocol for a PWD protocol. Outside
// recovery PWD imposes no wait (FIFO and duplicate control are the
// harness's). A piggyback that does not parse is an error, which the
// harness holds and counts; it is never delivered.
func (p *Replay) Deliverable(env *wire.Envelope, deliveredCount int64) (proto.Verdict, error) {
	if err := p.validate(env); err != nil {
		return proto.Hold, err
	}
	if p.collecting {
		// The replay order is not fully known yet; delivering now could
		// violate an order constraint that arrives in a later RESPONSE.
		return proto.Hold, nil
	}
	if det, ok := p.recorded[deliveredCount+1]; ok && (det.Sender != env.From || det.SendIndex != env.SendIndex) {
		return proto.Hold, nil // the slot is pinned to another message
	}
	return proto.Deliver, nil // the recorded message, or free choice past history
}

func (p *Replay) validate(env *wire.Envelope) error {
	src := env.From
	if src < 0 || src >= len(p.memo) {
		return fmt.Errorf("%s: rank %d: piggyback from out-of-range rank %d", p.name, p.rank, src)
	}
	m := &p.memo[src]
	if m.set && m.idx == env.SendIndex {
		return m.err
	}
	m.idx, m.err, m.set = env.SendIndex, nil, true
	if err := p.parse(env.Piggyback); err != nil {
		m.err = fmt.Errorf("%s: rank %d: bad piggyback from %d: %w", p.name, p.rank, src, err)
	}
	return m.err
}

// Begin starts a rolling forward from base restored deliveries: the
// previous record is dropped and every delivery holds until OnCollected.
func (p *Replay) Begin(base int64) {
	p.recorded, p.base, p.collecting = make(map[int64]D), base, true
}

// OnCollected implements proto.Replayer: every peer has answered, so the
// recorded order is as complete as it will get.
func (p *Replay) OnCollected() { p.collecting = false }

// Record pins the slot of each of ds that is one of this rank's
// deliveries after the restored base. Before any Begin (a stale RESPONSE
// to a previous incarnation) it records nothing.
func (p *Replay) Record(ds ...D) {
	for _, d := range ds {
		if p.recorded != nil && d.Receiver == p.rank && d.DeliverIndex > p.base {
			p.recorded[d.DeliverIndex] = d
		}
	}
}

// Delivered releases the slot of the deliverIndex-th delivery.
func (p *Replay) Delivered(deliverIndex int64) { delete(p.recorded, deliverIndex) }
