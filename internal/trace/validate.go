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
// The seed lives in the recorder's digest, which Export writes into
// the header, so the exported trace of a resumed run validates offline
// exactly as the recorder does.
func (r *Recorder) SeedCheckpoint(rank, step int, lastSend, lastDeliver []int64, delivered int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.digest == nil {
		r.digest = newChecker()
	}
	s := r.digest.rank(rank)
	s.Cur.Delivered = delivered
	for dest, ls := range lastSend {
		if ls > 0 {
			s.Cur.Sent[dest] = ls
		}
	}
	for src, ld := range lastDeliver {
		if ld > 0 {
			s.Cur.LastFrom[src] = ld
			s.Committed[src] = &chanDeliver{Count: ld, Contig: ld}
		}
	}
	s.Ckpt.set(s.Cur)
}

// checker is the replay machine behind Validate. A bounded recorder
// feeds each evicted event into one (its digest), so Validate stays
// exact while raw events are discarded; the state stays O(1) per clean
// channel. Its exported fields are the digest's JSON form in an export
// header.
type checker struct {
	Problems []Problem          `json:"problems,omitempty"`
	Ranks    map[int]*rankState `json:"ranks,omitempty"`
}

// rankState is one rank's replay state.
type rankState struct {
	Cur  cursor `json:"cur"`            // replay position
	Ckpt cursor `json:"ckpt"`           // Cur at the last checkpoint: what EvRecover restores
	Dead bool   `json:"dead,omitempty"` // killed and not yet recovered

	// Pending holds the deliveries since the last checkpoint, per
	// source: the only ones a rollback can still erase. A checkpoint
	// folds them into Committed, where no-duplicate is judged — once
	// checkpointed, a delivery stays in the effective history.
	Pending   map[int][]int64      `json:"pending,omitempty"`
	Committed map[int]*chanDeliver `json:"committed,omitempty"`

	Rollback *rbPending `json:"rollback,omitempty"` // outstanding ROLLBACK, nil if none
}

// cursor is the part of a rank's replay state a recovery rolls back.
type cursor struct {
	Delivered int64         `json:"delivered,omitempty"`
	LastFrom  map[int]int64 `json:"lastFrom,omitempty"` // last delivered send index, per source
	Sent      map[int]int64 `json:"sent,omitempty"`     // highest first-run send index, per destination
}

// set makes k a copy of src.
func (k *cursor) set(src cursor) {
	if k.LastFrom == nil {
		k.LastFrom, k.Sent = map[int]int64{}, map[int]int64{}
	}
	k.Delivered = src.Delivered
	clear(k.LastFrom)
	maps.Copy(k.LastFrom, src.LastFrom)
	clear(k.Sent)
	maps.Copy(k.Sent, src.Sent)
}

// chanDeliver aggregates one channel's committed delivery history. The
// delivered multiset is a contiguous prefix 1..Contig plus sparse
// exceptions, so a clean channel costs O(1) space however many
// messages it carried; only violations grow the maps.
type chanDeliver struct {
	Count  int64              `json:"count"`            // committed deliveries
	Contig int64              `json:"contig"`           // send indexes 1..Contig all delivered
	Extras map[int64]struct{} `json:"extras,omitempty"` // delivered indexes outside 1..Contig
	Dups   map[int64]int64    `json:"dups,omitempty"`   // re-delivery count beyond first, per index
}

// rbPending is an outstanding ROLLBACK under audit: the RESPONSEs its
// recoverer expects, the peers that answered, and whether the recovery
// completed (answers may then still be in flight when the trace ends).
type rbPending struct {
	Seq       int          `json:"seq"`
	Expect    int          `json:"expect"`
	Responded map[int]bool `json:"responded,omitempty"`
	Completed bool         `json:"completed,omitempty"`
}

func newChecker() *checker {
	return &checker{Ranks: map[int]*rankState{}}
}

func (c *checker) rank(r int) *rankState {
	s := c.Ranks[r]
	if s == nil {
		s = &rankState{Pending: map[int][]int64{}, Committed: map[int]*chanDeliver{}}
		s.Cur.set(cursor{})
		s.Ckpt.set(cursor{})
		c.Ranks[r] = s
	}
	return s
}

func (c *checker) problem(rule, format string, args ...any) {
	c.Problems = append(c.Problems, Problem{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// feed advances the checker by one event.
func (c *checker) feed(e Event) {
	s := c.rank(e.Rank)
	switch e.Kind {
	case EvSend:
		// Retransmissions are not new sends.
		if !s.Dead && !e.Resent && e.SendIndex > s.Cur.Sent[e.Peer] {
			s.Cur.Sent[e.Peer] = e.SendIndex
		}
	case EvDeliver:
		if s.Dead {
			return
		}
		if last := s.Cur.LastFrom[e.Peer]; e.SendIndex <= last {
			c.problem("fifo-order", "rank %d delivered (%d->%d #%d) after #%d (seq %d)",
				e.Rank, e.Peer, e.Rank, e.SendIndex, last, e.Seq)
		}
		if e.DeliverIndex != s.Cur.Delivered+1 {
			c.problem("deliver-monotonic", "rank %d deliver index %d, want %d (seq %d)",
				e.Rank, e.DeliverIndex, s.Cur.Delivered+1, e.Seq)
		}
		if e.Demand >= 0 && s.Cur.Delivered < e.Demand {
			c.problem("deliver-demand", "rank %d delivered (%d->%d #%d) after %d deliveries, protocol demanded %d (seq %d)",
				e.Rank, e.Peer, e.Rank, e.SendIndex, s.Cur.Delivered, e.Demand, e.Seq)
		}
		s.Cur.LastFrom[e.Peer] = e.SendIndex
		s.Cur.Delivered = e.DeliverIndex
		s.Pending[e.Peer] = append(s.Pending[e.Peer], e.SendIndex)
	case EvCheckpoint:
		if s.Dead {
			return
		}
		if e.Count != s.Cur.Delivered {
			c.problem("checkpoint-count", "rank %d checkpoint at step %d records %d deliveries, trace replays %d (seq %d)",
				e.Rank, e.Step, e.Count, s.Cur.Delivered, e.Seq)
		}
		c.commit(e.Rank, s)
		s.Ckpt.set(s.Cur)
	case EvKill:
		s.Dead = true
		s.Rollback = nil
	case EvRecover:
		s.Dead = false
		s.Cur.set(s.Ckpt)
		clear(s.Pending)
	case EvRollback:
		// Supersedes the rank's previous ROLLBACK, if any.
		s.Rollback = &rbPending{Seq: e.Seq, Expect: int(e.Count), Responded: map[int]bool{}}
	case EvResponse:
		if s.Rollback != nil {
			s.Rollback.Responded[e.Peer] = true
		}
	case EvRecoveryComplete:
		if s.Rollback != nil {
			s.Rollback.Completed = true
		}
	}
}

// commit folds a rank's pending deliveries into its committed
// per-channel history, judging no-duplicate.
func (c *checker) commit(rank int, s *rankState) {
	for from, idxs := range s.Pending {
		if len(idxs) == 0 {
			continue
		}
		cd := s.Committed[from]
		if cd == nil {
			cd = &chanDeliver{}
			s.Committed[from] = cd
		}
		for _, idx := range idxs {
			if !cd.add(idx) {
				c.problem("no-duplicate", "rank %d delivered message (%d->%d #%d) twice", rank, from, rank, idx)
			}
		}
		s.Pending[from] = idxs[:0]
	}
}

// add records one delivery of send index idx, reporting false when the
// history already holds it.
func (cd *chanDeliver) add(idx int64) bool {
	cd.Count++
	if (idx >= 1 && idx <= cd.Contig) || hasKey(cd.Extras, idx) {
		if cd.Dups == nil {
			cd.Dups = map[int64]int64{}
		}
		cd.Dups[idx]++
		return false
	}
	if idx != cd.Contig+1 {
		if cd.Extras == nil {
			cd.Extras = map[int64]struct{}{}
		}
		cd.Extras[idx] = struct{}{}
		return true
	}
	for cd.Contig++; hasKey(cd.Extras, cd.Contig+1); cd.Contig++ {
		delete(cd.Extras, cd.Contig+1)
	}
	return true
}

func hasKey[V any](m map[int64]V, k int64) bool {
	_, ok := m[k]
	return ok
}

// gap reports the send index at which the sorted delivered multiset
// first departs from 1..Count. extras never overlap 1..Contig, so the
// multiset sorts as the extras below 1, then 1..Contig with each
// duplicate repeated, then the extras above contig+1.
func (cd *chanDeliver) gap() (int64, bool) {
	for v := range cd.Extras {
		if v < 1 {
			return 1, true
		}
	}
	first := int64(0)
	for v := range cd.Dups {
		if v >= 1 && v <= cd.Contig && (first == 0 || v < first) {
			first = v
		}
	}
	if first > 0 {
		return first + 1, true // the second copy of first displaces first+1
	}
	if len(cd.Extras) > 0 {
		return cd.Contig + 1, true
	}
	return 0, false
}

// finish folds every rank's still-pending deliveries (nothing can roll
// them back once the trace ends), audits the outstanding ROLLBACKs and,
// when the run finished, applies no-loss. It consumes the checker.
func (c *checker) finish(finished bool) []Problem {
	ranks := make([]int, 0, len(c.Ranks))
	for r := range c.Ranks {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		s := c.Ranks[r]
		c.commit(r, s)
		if p := s.Rollback; p != nil && !p.Completed && len(p.Responded) < p.Expect {
			c.problem("rollback-response", "rank %d ROLLBACK (seq %d) expected %d RESPONSEs, got %d and never completed recovery",
				r, p.Seq, p.Expect, len(p.Responded))
		}
	}
	if !finished {
		return c.Problems
	}
	// no-loss covers every channel something was sent or delivered on:
	// a delivery whose send was rolled back and never re-made is an
	// orphan, flagged as more delivered than sent.
	var chans [][2]int // (from, to)
	for _, to := range ranks {
		for from := range c.Ranks[to].Committed {
			chans = append(chans, [2]int{from, to})
		}
	}
	for _, from := range ranks {
		for to := range c.Ranks[from].Cur.Sent {
			if c.rank(to).Committed[from] == nil {
				chans = append(chans, [2]int{from, to})
			}
		}
	}
	sort.Slice(chans, func(i, j int) bool {
		return chans[i][0] < chans[j][0] || chans[i][0] == chans[j][0] && chans[i][1] < chans[j][1]
	})
	for _, ch := range chans {
		from, to := ch[0], ch[1]
		sent := c.rank(from).Cur.Sent[to]
		var cd chanDeliver
		if p := c.Ranks[to].Committed[from]; p != nil {
			cd = *p
		}
		if cd.Count != sent {
			c.problem("no-loss", "channel %d->%d: sent %d messages, delivered %d", from, to, sent, cd.Count)
		} else if at, bad := cd.gap(); bad {
			c.problem("no-loss", "channel %d->%d: delivery set has gap at #%d", from, to, at)
		}
	}
	return c.Problems
}

// repair makes a decoded digest safe to feed: it fills the maps JSON
// leaves nil and rejects null states, which no checker produces.
func (c *checker) repair() error {
	if c.Ranks == nil {
		c.Ranks = map[int]*rankState{}
	}
	for r, s := range c.Ranks {
		if s == nil {
			return fmt.Errorf("rank %d has no state", r)
		}
		for _, k := range []*cursor{&s.Cur, &s.Ckpt} {
			k.LastFrom, k.Sent = orEmpty(k.LastFrom), orEmpty(k.Sent)
		}
		s.Pending, s.Committed = orEmpty(s.Pending), orEmpty(s.Committed)
		for src, cd := range s.Committed {
			if cd == nil {
				return fmt.Errorf("rank %d channel from %d has no state", r, src)
			}
		}
		if s.Rollback != nil {
			s.Rollback.Responded = orEmpty(s.Rollback.Responded)
		}
	}
	return nil
}

func orEmpty[V any](m map[int]V) map[int]V {
	if m == nil {
		return map[int]V{}
	}
	return m
}

func (c *checker) clone() *checker {
	n := &checker{Problems: slices.Clone(c.Problems), Ranks: make(map[int]*rankState, len(c.Ranks))}
	for r, s := range c.Ranks {
		m := &rankState{
			Dead:      s.Dead,
			Pending:   make(map[int][]int64, len(s.Pending)),
			Committed: make(map[int]*chanDeliver, len(s.Committed)),
		}
		m.Cur.set(s.Cur)
		m.Ckpt.set(s.Ckpt)
		for k, idxs := range s.Pending {
			m.Pending[k] = slices.Clone(idxs)
		}
		for k, cd := range s.Committed {
			m.Committed[k] = &chanDeliver{Count: cd.Count, Contig: cd.Contig,
				Extras: maps.Clone(cd.Extras), Dups: maps.Clone(cd.Dups)}
		}
		if s.Rollback != nil {
			rb := *s.Rollback
			rb.Responded = maps.Clone(rb.Responded)
			m.Rollback = &rb
		}
		n.Ranks[r] = m
	}
	return n
}
