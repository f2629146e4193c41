package trace

import (
	"fmt"
	"sort"
)

// CheckInvariants replays the recorded events through a per-rank state
// machine and verifies the protocol-level invariants every windar run
// must preserve, independently of the end-to-end properties Validate
// establishes:
//
//   - fifo-order: on each link (sender, receiver), delivered send
//     indexes are strictly increasing between rollbacks — the harness's
//     per-channel FIFO promise, re-derived from the trace alone;
//   - deliver-monotonic: each rank's deliver indexes advance by exactly
//     one per delivery from the restored checkpoint count — no skipped
//     or repeated local state interval;
//   - deliver-demand: every delivery that recorded a protocol demand
//     (TDI's piggybacked depend_interval element, Algorithm 1 line 17)
//     happened only after the rank had delivered at least that many
//     messages;
//   - checkpoint-count: a checkpoint's recorded deliveredCount equals
//     the delivery count replayed from the trace;
//   - rollback-response: every ROLLBACK eventually pairs with the
//     RESPONSEs it expected, one from every peer — a recovery that never
//     completed must not still be waiting on a peer. A peer's death does
//     not shrink the expectation: it owes its RESPONSE until it revives
//     and answers, or until the recovery completes, exactly as the
//     harness counts it.
//
// Failure semantics mirror Validate: a killed rank's events are ignored
// until its EvRecover (a dying incarnation can record a final straggler
// event after the kill), and EvRecover restores the rank's state to its
// last checkpoint, exactly as rollback does.
func (r *Recorder) CheckInvariants() []Problem {
	events, d := r.snapshot()
	c := newChecker()
	if d != nil {
		c = d.chk
	}
	for _, e := range events {
		c.feed(e)
	}
	c.finish()
	return c.problems
}

// rankCheck is one rank's replay state: its delivery count and, per
// sending peer, the last delivered send index.
type rankCheck struct {
	delivered int64
	lastFrom  map[int]int64
}

func (s *rankCheck) clone() *rankCheck {
	c := &rankCheck{delivered: s.delivered, lastFrom: make(map[int]int64, len(s.lastFrom))}
	for k, v := range s.lastFrom {
		c.lastFrom[k] = v
	}
	return c
}

// CheckEvents runs the CheckInvariants rules over an explicit event
// sequence (e.g. one re-imported from a JSONL trace file).
func CheckEvents(events []Event) []Problem {
	c := newChecker()
	for _, e := range events {
		c.feed(e)
	}
	c.finish()
	return c.problems
}

// rbPending is one outstanding ROLLBACK being audited: how many
// RESPONSEs the recoverer expects, which peers have responded, and
// whether the recovery completed (responses may then still be in flight
// when the trace ends, which is not a violation).
type rbPending struct {
	seq       int
	expect    int
	responded map[int]bool
	completed bool
}

func (p *rbPending) clone() *rbPending {
	n := &rbPending{seq: p.seq, expect: p.expect, completed: p.completed,
		responded: make(map[int]bool, len(p.responded))}
	for k, v := range p.responded {
		n.responded[k] = v
	}
	return n
}

// checker is the streaming form of CheckEvents: a pure forward state
// machine, so a bounded recorder can fold evicted events into one and
// keep CheckInvariants exact.
type checker struct {
	problems []Problem
	state    map[int]*rankCheck
	ckpt     map[int]*rankCheck // last checkpoint snapshot per rank
	dead     map[int]bool
	rb       map[int]*rbPending // outstanding ROLLBACK per recovering rank
}

func newChecker() *checker {
	return &checker{state: map[int]*rankCheck{}, ckpt: map[int]*rankCheck{},
		dead: map[int]bool{}, rb: map[int]*rbPending{}}
}

func (c *checker) get(rank int) *rankCheck {
	s := c.state[rank]
	if s == nil {
		s = &rankCheck{lastFrom: map[int]int64{}}
		c.state[rank] = s
	}
	return s
}

// feed advances the checker by one event.
func (c *checker) feed(e Event) {
	switch e.Kind {
	case EvDeliver:
		if c.dead[e.Rank] {
			return // straggler from the dying incarnation
		}
		s := c.get(e.Rank)
		if last := s.lastFrom[e.Peer]; e.SendIndex <= last {
			c.problems = append(c.problems, Problem{
				Rule: "fifo-order",
				Detail: fmt.Sprintf("rank %d delivered (%d->%d #%d) after #%d (seq %d)",
					e.Rank, e.Peer, e.Rank, e.SendIndex, last, e.Seq),
			})
		}
		s.lastFrom[e.Peer] = e.SendIndex
		if e.DeliverIndex != s.delivered+1 {
			c.problems = append(c.problems, Problem{
				Rule: "deliver-monotonic",
				Detail: fmt.Sprintf("rank %d deliver index %d, want %d (seq %d)",
					e.Rank, e.DeliverIndex, s.delivered+1, e.Seq),
			})
		}
		if e.Demand >= 0 && s.delivered < e.Demand {
			c.problems = append(c.problems, Problem{
				Rule: "deliver-demand",
				Detail: fmt.Sprintf("rank %d delivered (%d->%d #%d) after %d deliveries, protocol demanded %d (seq %d)",
					e.Rank, e.Peer, e.Rank, e.SendIndex, s.delivered, e.Demand, e.Seq),
			})
		}
		s.delivered = e.DeliverIndex
	case EvCheckpoint:
		if c.dead[e.Rank] {
			return
		}
		s := c.get(e.Rank)
		if e.Count != s.delivered {
			c.problems = append(c.problems, Problem{
				Rule: "checkpoint-count",
				Detail: fmt.Sprintf("rank %d checkpoint at step %d records %d deliveries, trace replays %d (seq %d)",
					e.Rank, e.Step, e.Count, s.delivered, e.Seq),
			})
		}
		c.ckpt[e.Rank] = s.clone()
	case EvKill:
		c.dead[e.Rank] = true
		// A crashed recoverer's collection dies with it; its next
		// incarnation records a fresh EvRollback. Other collections keep
		// counting the dead rank: it answers once it revives.
		delete(c.rb, e.Rank)
	case EvRecover:
		c.dead[e.Rank] = false
		if snap := c.ckpt[e.Rank]; snap != nil {
			c.state[e.Rank] = snap.clone()
		} else {
			c.state[e.Rank] = &rankCheck{lastFrom: map[int]int64{}}
		}
	case EvRollback:
		// Supersedes any prior pending entry for the rank (per
		// incarnation).
		c.rb[e.Rank] = &rbPending{seq: e.Seq, expect: int(e.Count), responded: map[int]bool{}}
	case EvResponse:
		if p := c.rb[e.Rank]; p != nil {
			p.responded[e.Peer] = true
		}
	case EvRecoveryComplete:
		if p := c.rb[e.Rank]; p != nil {
			p.completed = true
		}
	}
}

// finish reports rollback-response violations: a ROLLBACK whose recovery
// never completed and whose expectation was never met is a collection
// phase that would have hung the run.
func (c *checker) finish() {
	ranks := make([]int, 0, len(c.rb))
	for rank := range c.rb {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		p := c.rb[rank]
		if p.completed || len(p.responded) >= p.expect {
			continue
		}
		c.problems = append(c.problems, Problem{
			Rule: "rollback-response",
			Detail: fmt.Sprintf("rank %d ROLLBACK (seq %d) expected %d RESPONSEs, got %d and never completed recovery",
				rank, p.seq, p.expect, len(p.responded)),
		})
	}
}

func (c *checker) clone() *checker {
	n := &checker{
		problems: append([]Problem(nil), c.problems...),
		state:    make(map[int]*rankCheck, len(c.state)),
		ckpt:     make(map[int]*rankCheck, len(c.ckpt)),
		dead:     make(map[int]bool, len(c.dead)),
		rb:       make(map[int]*rbPending, len(c.rb)),
	}
	for k, s := range c.state {
		n.state[k] = s.clone()
	}
	for k, s := range c.ckpt {
		n.ckpt[k] = s.clone()
	}
	for k, d := range c.dead {
		n.dead[k] = d
	}
	for k, p := range c.rb {
		n.rb[k] = p.clone()
	}
	return n
}
