package core

import (
	"math/rand"
	"testing"

	"windar/internal/proto"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// chRec is one logged send: its piggyback and the sender's whole vector
// when it encoded it.
type chRec struct {
	pig []byte
	vec vclock.Vec
}

// chCkpt is a rank's checkpoint in channelModel: its TDI snapshot, its
// send index per destination and its delivered index per source.
type chCkpt struct {
	snap      []byte
	sent, got []int64
}

// channelModel runs TDI instances over FIFO channels with sender logs,
// checkpoints and rollbacks, the way the harness does: a restored rank
// rewinds its log to its checkpoint and regenerates sends that need not
// equal the originals (the reorder flag is absent, so floors gate); a
// regenerated send at or below what the destination ingested is
// suppressed; a rolled-back receiver is resent every logged record past
// its checkpoint, in order; every peer is told of a rollback
// (OnPeerRollback) and the restored rank of what each destination
// ingested (OnPeerResync).
type channelModel struct {
	t     *testing.T
	n     int
	ranks []*TDI
	ckpts []chCkpt
	log   [][][]chRec // log[a][b][k-1]: a's record of send k to b
	queue [][][]chRec // queue[a][b]: ingested at b, not yet delivered
	// got[a][b] is the send index of a's last message b delivered.
	got [][]int64
	// Reached cases.
	forms                             map[string]int
	rollbacks, relInFlight, floorFull int
}

func newChannelModel(t *testing.T, n int) *channelModel {
	m := &channelModel{t: t, n: n, forms: map[string]int{}}
	m.ranks = make([]*TDI, n)
	m.ckpts = make([]chCkpt, n)
	m.log, m.queue, m.got = make([][][]chRec, n), make([][][]chRec, n), make([][]int64, n)
	for i := range m.ranks {
		m.ranks[i] = New(i, n, nil, nil)
		m.log[i], m.queue[i], m.got[i] = make([][]chRec, n), make([][]chRec, n), make([]int64, n)
	}
	for i := range m.ranks {
		m.checkpoint(i)
	}
	return m
}

func (m *channelModel) checkpoint(r int) {
	c := chCkpt{snap: m.ranks[r].AppendSnapshot(nil), sent: make([]int64, m.n), got: make([]int64, m.n)}
	for b := range c.sent {
		c.sent[b], c.got[b] = int64(len(m.log[r][b])), m.got[b][r]
	}
	m.ckpts[r] = c
}

func (m *channelModel) send(a, b int) {
	k := int64(len(m.log[a][b])) + 1
	vec := m.ranks[a].DependInterval()
	pig, _ := m.ranks[a].PiggybackForSend(b, k)
	rec := chRec{pig, vec}
	m.log[a][b] = append(m.log[a][b], rec)
	switch {
	case len(pig) == 0:
		m.forms["empty"]++
	case pig[0] == 0:
		m.forms["full"]++
	case pig[0] == byte(2*m.n):
		m.forms["relative full"]++
	case pig[0]&1 == 1:
		m.forms["own-only"]++
	default:
		m.forms["delta"]++
	}
	if k > m.got[a][b]+int64(len(m.queue[a][b])) { // else a suppressed regeneration
		m.queue[a][b] = append(m.queue[a][b], rec)
	}
}

// deliver delivers a's oldest queued message to b if TDI allows it, and
// requires b's vector afterwards to be exactly its merge with the
// sender's at encode time, and the demand to be the sender's element.
func (m *channelModel) deliver(a, b int) {
	q := m.queue[a][b]
	if len(q) == 0 {
		return
	}
	r, rec := m.ranks[b], q[0]
	k := m.got[a][b] + 1
	env := &wire.Envelope{Kind: wire.KindApp, From: a, To: b, SendIndex: k, Piggyback: rec.pig}
	want := r.DependInterval()
	v, err := r.Deliverable(env, want[b])
	if err != nil || (v == proto.Deliver) != (want[b] >= rec.vec[b]) {
		m.t.Fatalf("%d<-%d#%d % x: verdict %v, err %v at count %d, demand %d", b, a, k, rec.pig, v, err, want[b], rec.vec[b])
	}
	if v != proto.Deliver {
		return
	}
	want[b]++
	want.MergeExcept(rec.vec, b)
	if err := r.OnDeliver(env, want[b]); err != nil {
		m.t.Fatalf("%d<-%d#%d: %v", b, a, k, err)
	}
	if d, ok := r.DeliveryDemand(env); !ok || d != rec.vec[b] {
		m.t.Fatalf("%d<-%d#%d: demand %d (%v), want %d", b, a, k, d, ok, rec.vec[b])
	}
	if got := r.DependInterval(); !got.Equal(want) {
		m.t.Fatalf("%d<-%d#%d % x: vector %v, want its merge with the sender's %v: %v", b, a, k, rec.pig, got, rec.vec, want)
	}
	m.queue[a][b], m.got[a][b] = q[1:], k
}

// restore rolls r back to its checkpoint.
func (m *channelModel) restore(r int) {
	c := m.ckpts[r]
	p := New(r, m.n, nil, nil)
	if err := p.Restore(c.snap); err != nil {
		m.t.Fatal(err)
	}
	p.BeginRecovery()
	m.floorFull += int(m.ranks[r].m.Snapshot().PigFloorFullMsgs)
	m.ranks[r] = p
	m.rollbacks++
	for o := range m.ranks {
		if o == r {
			continue
		}
		// As a receiver: resend every logged record past the checkpoint.
		for _, rec := range m.queue[o][r] {
			if len(rec.pig) != 0 && rec.pig[0] != 0 {
				m.relInFlight++
			}
		}
		m.got[o][r] = c.got[o]
		m.queue[o][r] = append([]chRec(nil), m.log[o][r][min(int(c.got[o]), len(m.log[o][r])):]...)
		m.ranks[o].OnPeerRollback(r, 0)
		// As a sender: rewind the log; the destination keeps what it
		// ingested from the dead incarnation.
		m.log[r][o] = m.log[r][o][:c.sent[o]]
		p.OnPeerResync(o, m.got[r][o]+int64(len(m.queue[r][o])))
	}
}

// TestChannelBaseProperty: over random schedules of sends, deliveries,
// checkpoints and rollbacks among four ranks — so receivers roll back
// with relative piggybacks in flight, senders regenerate sends that
// differ from the originals, and floors force full vectors — every
// delivery leaves the receiver with exactly its merge of the sender's
// vector at encode time: each increment reads against the base the
// sender meant.
func TestChannelBaseProperty(t *testing.T) {
	const n = 4
	var total channelModel
	total.forms = map[string]int{}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newChannelModel(t, n)
		for step := 0; step < 300; step++ {
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			switch x := rng.Intn(100); {
			case x < 45:
				m.send(a, b)
			case x < 92:
				m.deliver(a, b)
			case x < 96:
				m.checkpoint(a)
			default:
				m.restore(a)
			}
		}
		for r := range m.ranks {
			m.floorFull += int(m.ranks[r].m.Snapshot().PigFloorFullMsgs)
		}
		for f, c := range m.forms {
			total.forms[f] += c
		}
		total.rollbacks += m.rollbacks
		total.relInFlight += m.relInFlight
		total.floorFull += m.floorFull
	}
	t.Logf("forms %v; %d rollbacks, %d relative piggybacks in flight at one, %d floor-forced fulls",
		total.forms, total.rollbacks, total.relInFlight, total.floorFull)
	for _, f := range []string{"empty", "full", "relative full", "own-only", "delta"} {
		if total.forms[f] == 0 {
			t.Errorf("no %s piggyback was sent", f)
		}
	}
	if total.relInFlight == 0 || total.floorFull == 0 {
		t.Errorf("case not reached: %d relative piggybacks in flight at a rollback, %d floor-forced fulls", total.relInFlight, total.floorFull)
	}
}
