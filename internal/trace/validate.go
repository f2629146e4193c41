package trace

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Validate checks the recorded execution by replaying it, in arrival
// order, through one streaming state machine. The replay rebuilds each
// rank's *effective* history: a killed rank's sends, deliveries and
// checkpoints are ignored from its EvKill until its EvRecover (a dying
// incarnation can record a straggler after the kill, and the harness
// never restores a checkpoint it reported after one), and EvRecover
// rolls the rank back to its last checkpoint — what it delivered and
// sent after it re-occurs while it rolls forward. The rules:
//
//   - fifo-order: per channel, delivered send indexes strictly increase
//     between rollbacks;
//   - deliver-monotonic: a rank's deliver index advances by exactly one
//     per delivery from the restored checkpoint count;
//   - deliver-demand: a delivery that recorded a protocol demand (TDI's
//     piggybacked depend_interval element, Algorithm 1 line 17) happened
//     only after the rank had delivered that many messages;
//   - checkpoint-count: a checkpoint's recorded delivery count equals the
//     count replayed from the trace;
//   - no-duplicate: no (channel, send index) is delivered twice in the
//     effective history;
//   - rollback-response: every ROLLBACK pairs with a RESPONSE from each
//     peer it expected, unless its recovery completed. A peer's death
//     does not shrink the expectation — it owes its RESPONSE until it
//     revives and answers — but the recoverer's death drops it: the next
//     incarnation broadcasts afresh;
//   - no-loss, only when finished (the run completed every step): per
//     channel, the effective delivered set is exactly 1..max of the
//     effective sent set.
//
// On a bounded recorder the result is identical to an unbounded one:
// evicted events were already fed to the recorder's digest.
func (r *Recorder) Validate(finished bool) []Problem {
	events, c := r.snapshot()
	if c == nil {
		c = newChecker()
	}
	for _, e := range events {
		c.feed(e)
	}
	return c.finish(finished)
}

// SeedCheckpoint primes the recorder with one rank's restored
// checkpoint before any event of a resumed run arrives. A process
// restart (harness StartFromStable) begins mid-history: unseeded, the
// checker would take the first post-resume delivery on a channel,
// index lastDeliver+1, for a gap and flag the pre-restart prefix it
// never saw. The seed puts the checker where it would stand had it
// watched the original run up to the rank's last durable checkpoint:
// sends up to lastSend[dest] are effective, deliveries up to
// lastDeliver[src] are committed clean history, and the checkpoint
// snapshot the rank's EvRecover restores carries delivered deliveries.
//
// The seed lives in the recorder only; Export does not persist it, so
// the exported trace of a resumed run covers just the resumed suffix
// and only the in-process verdict is complete.
func (r *Recorder) SeedCheckpoint(rank, step int, lastSend, lastDeliver []int64, delivered int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.digest == nil {
		r.digest = newChecker()
	}
	s := r.digest.rank(rank)
	s.cur.delivered = delivered
	for dest, ls := range lastSend {
		if ls > 0 {
			s.cur.sent[dest] = ls
		}
	}
	for src, ld := range lastDeliver {
		if ld > 0 {
			s.cur.lastFrom[src] = ld
			s.committed[src] = &chanDeliver{count: ld, contig: ld}
		}
	}
	s.ckpt.set(s.cur)
}

// checker is the replay machine behind Validate. A bounded recorder
// feeds each evicted event into one (its digest), so Validate stays
// exact while raw events are discarded; the state stays O(1) per clean
// channel.
type checker struct {
	problems []Problem
	ranks    map[int]*rankState
}

// rankState is one rank's replay state.
type rankState struct {
	cur  cursor // replay position
	ckpt cursor // cur at the last checkpoint: what EvRecover restores
	dead bool   // killed and not yet recovered

	// pending holds the deliveries since the last checkpoint, per
	// source: the only ones a rollback can still erase. A checkpoint
	// folds them into committed, where no-duplicate is judged — once
	// checkpointed, a delivery stays in the effective history.
	pending   map[int][]int64
	committed map[int]*chanDeliver

	rb *rbPending // outstanding ROLLBACK, nil if none
}

// cursor is the part of a rank's replay state a recovery rolls back.
type cursor struct {
	delivered int64
	lastFrom  map[int]int64 // last delivered send index, per source
	sent      map[int]int64 // highest first-run send index, per destination
}

// set makes k a copy of src.
func (k *cursor) set(src cursor) {
	if k.lastFrom == nil {
		k.lastFrom, k.sent = map[int]int64{}, map[int]int64{}
	}
	k.delivered = src.delivered
	clear(k.lastFrom)
	maps.Copy(k.lastFrom, src.lastFrom)
	clear(k.sent)
	maps.Copy(k.sent, src.sent)
}

// chanDeliver aggregates one channel's committed delivery history. The
// delivered multiset is a contiguous prefix 1..contig plus sparse
// exceptions, so a clean channel costs O(1) space however many
// messages it carried; only violations grow the maps.
type chanDeliver struct {
	count  int64              // committed deliveries
	contig int64              // send indexes 1..contig all delivered
	extras map[int64]struct{} // delivered indexes outside 1..contig
	dups   map[int64]int64    // re-delivery count beyond first, per index
}

// rbPending is an outstanding ROLLBACK under audit: the RESPONSEs its
// recoverer expects, the peers that answered, and whether the recovery
// completed (answers may then still be in flight when the trace ends).
type rbPending struct {
	seq, expect int
	responded   map[int]bool
	completed   bool
}

func newChecker() *checker {
	return &checker{ranks: map[int]*rankState{}}
}

func (c *checker) rank(r int) *rankState {
	s := c.ranks[r]
	if s == nil {
		s = &rankState{pending: map[int][]int64{}, committed: map[int]*chanDeliver{}}
		s.cur.set(cursor{})
		s.ckpt.set(cursor{})
		c.ranks[r] = s
	}
	return s
}

func (c *checker) problem(rule, format string, args ...any) {
	c.problems = append(c.problems, Problem{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// feed advances the checker by one event.
func (c *checker) feed(e Event) {
	s := c.rank(e.Rank)
	switch e.Kind {
	case EvSend:
		// Retransmissions are not new sends.
		if !s.dead && !e.Resent && e.SendIndex > s.cur.sent[e.Peer] {
			s.cur.sent[e.Peer] = e.SendIndex
		}
	case EvDeliver:
		if s.dead {
			return
		}
		if last := s.cur.lastFrom[e.Peer]; e.SendIndex <= last {
			c.problem("fifo-order", "rank %d delivered (%d->%d #%d) after #%d (seq %d)",
				e.Rank, e.Peer, e.Rank, e.SendIndex, last, e.Seq)
		}
		if e.DeliverIndex != s.cur.delivered+1 {
			c.problem("deliver-monotonic", "rank %d deliver index %d, want %d (seq %d)",
				e.Rank, e.DeliverIndex, s.cur.delivered+1, e.Seq)
		}
		if e.Demand >= 0 && s.cur.delivered < e.Demand {
			c.problem("deliver-demand", "rank %d delivered (%d->%d #%d) after %d deliveries, protocol demanded %d (seq %d)",
				e.Rank, e.Peer, e.Rank, e.SendIndex, s.cur.delivered, e.Demand, e.Seq)
		}
		s.cur.lastFrom[e.Peer] = e.SendIndex
		s.cur.delivered = e.DeliverIndex
		s.pending[e.Peer] = append(s.pending[e.Peer], e.SendIndex)
	case EvCheckpoint:
		if s.dead {
			return
		}
		if e.Count != s.cur.delivered {
			c.problem("checkpoint-count", "rank %d checkpoint at step %d records %d deliveries, trace replays %d (seq %d)",
				e.Rank, e.Step, e.Count, s.cur.delivered, e.Seq)
		}
		c.commit(e.Rank, s)
		s.ckpt.set(s.cur)
	case EvKill:
		s.dead = true
		s.rb = nil
	case EvRecover:
		s.dead = false
		s.cur.set(s.ckpt)
		clear(s.pending)
	case EvRollback:
		// Supersedes the rank's previous ROLLBACK, if any.
		s.rb = &rbPending{seq: e.Seq, expect: int(e.Count), responded: map[int]bool{}}
	case EvResponse:
		if s.rb != nil {
			s.rb.responded[e.Peer] = true
		}
	case EvRecoveryComplete:
		if s.rb != nil {
			s.rb.completed = true
		}
	}
}

// commit folds a rank's pending deliveries into its committed
// per-channel history, judging no-duplicate.
func (c *checker) commit(rank int, s *rankState) {
	for from, idxs := range s.pending {
		if len(idxs) == 0 {
			continue
		}
		cd := s.committed[from]
		if cd == nil {
			cd = &chanDeliver{}
			s.committed[from] = cd
		}
		for _, idx := range idxs {
			if !cd.add(idx) {
				c.problem("no-duplicate", "rank %d delivered message (%d->%d #%d) twice", rank, from, rank, idx)
			}
		}
		s.pending[from] = idxs[:0]
	}
}

// add records one delivery of send index idx, reporting false when the
// history already holds it.
func (cd *chanDeliver) add(idx int64) bool {
	cd.count++
	if (idx >= 1 && idx <= cd.contig) || hasKey(cd.extras, idx) {
		if cd.dups == nil {
			cd.dups = map[int64]int64{}
		}
		cd.dups[idx]++
		return false
	}
	if idx != cd.contig+1 {
		if cd.extras == nil {
			cd.extras = map[int64]struct{}{}
		}
		cd.extras[idx] = struct{}{}
		return true
	}
	for cd.contig++; hasKey(cd.extras, cd.contig+1); cd.contig++ {
		delete(cd.extras, cd.contig+1)
	}
	return true
}

func hasKey[V any](m map[int64]V, k int64) bool {
	_, ok := m[k]
	return ok
}

// gap reports the send index at which the sorted delivered multiset
// first departs from 1..count. extras never overlap 1..contig, so the
// multiset sorts as the extras below 1, then 1..contig with each
// duplicate repeated, then the extras above contig+1.
func (cd *chanDeliver) gap() (int64, bool) {
	for v := range cd.extras {
		if v < 1 {
			return 1, true
		}
	}
	first := int64(0)
	for v := range cd.dups {
		if v >= 1 && v <= cd.contig && (first == 0 || v < first) {
			first = v
		}
	}
	if first > 0 {
		return first + 1, true // the second copy of first displaces first+1
	}
	if len(cd.extras) > 0 {
		return cd.contig + 1, true
	}
	return 0, false
}

// finish folds every rank's still-pending deliveries (nothing can roll
// them back once the trace ends), audits the outstanding ROLLBACKs and,
// when the run finished, applies no-loss. It consumes the checker.
func (c *checker) finish(finished bool) []Problem {
	ranks := make([]int, 0, len(c.ranks))
	for r := range c.ranks {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		s := c.ranks[r]
		c.commit(r, s)
		if p := s.rb; p != nil && !p.completed && len(p.responded) < p.expect {
			c.problem("rollback-response", "rank %d ROLLBACK (seq %d) expected %d RESPONSEs, got %d and never completed recovery",
				r, p.seq, p.expect, len(p.responded))
		}
	}
	if !finished {
		return c.problems
	}
	// no-loss covers every channel something was sent or delivered on:
	// a delivery whose send was rolled back and never re-made is an
	// orphan, flagged as more delivered than sent.
	var chans [][2]int // (from, to)
	for _, to := range ranks {
		for from := range c.ranks[to].committed {
			chans = append(chans, [2]int{from, to})
		}
	}
	for _, from := range ranks {
		for to := range c.ranks[from].cur.sent {
			if c.rank(to).committed[from] == nil {
				chans = append(chans, [2]int{from, to})
			}
		}
	}
	sort.Slice(chans, func(i, j int) bool {
		return chans[i][0] < chans[j][0] || chans[i][0] == chans[j][0] && chans[i][1] < chans[j][1]
	})
	for _, ch := range chans {
		from, to := ch[0], ch[1]
		sent := c.rank(from).cur.sent[to]
		var cd chanDeliver
		if p := c.ranks[to].committed[from]; p != nil {
			cd = *p
		}
		if cd.count != sent {
			c.problem("no-loss", "channel %d->%d: sent %d messages, delivered %d", from, to, sent, cd.count)
		} else if at, bad := cd.gap(); bad {
			c.problem("no-loss", "channel %d->%d: delivery set has gap at #%d", from, to, at)
		}
	}
	return c.problems
}

func (c *checker) clone() *checker {
	n := &checker{problems: slices.Clone(c.problems), ranks: make(map[int]*rankState, len(c.ranks))}
	for r, s := range c.ranks {
		m := &rankState{
			dead:      s.dead,
			pending:   make(map[int][]int64, len(s.pending)),
			committed: make(map[int]*chanDeliver, len(s.committed)),
		}
		m.cur.set(s.cur)
		m.ckpt.set(s.ckpt)
		for k, idxs := range s.pending {
			m.pending[k] = slices.Clone(idxs)
		}
		for k, cd := range s.committed {
			m.committed[k] = &chanDeliver{count: cd.count, contig: cd.contig,
				extras: maps.Clone(cd.extras), dups: maps.Clone(cd.dups)}
		}
		if s.rb != nil {
			rb := *s.rb
			rb.responded = maps.Clone(rb.responded)
			m.rb = &rb
		}
		n.ranks[r] = m
	}
	return n
}
