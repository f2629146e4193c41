package proto

import (
	"fmt"
	"slices"

	"windar/layer"
)

// LogItem is one sender-logged application message: destination, sending
// index, the original tag and piggyback, and the raw payload (Algorithm 1
// line 12). The logged piggyback is retransmitted verbatim with the
// message during a peer's recovery ("every resent message should be
// piggybacked with the logged vector ... as in normal execution mode").
// The span context rides along for the same reason: a resend must carry
// the original send's causal identity, not a fresh one. The log stores
// each item as its encoded record (logcodec.go), the one form a
// checkpoint and the durable slog/ streams hold too.
type LogItem struct {
	Dest      int
	SendIndex int64
	Tag       int32
	Piggyback []byte
	Payload   []byte
	Span      layer.SpanContext
}

// logChunkBytes is the capacity of a fresh record chunk: ~800 flood-sized
// records, no pointers for the collector to scan, and under the large
// allocation threshold. A larger record gets a chunk of its own size.
const logChunkBytes = 16 << 10

// LogRun is N back-to-back AppendLogItem records to Dest in send-index
// order, the last with SendIndex Last: one chunk of the log, or one run of
// a LogView. Bytes below len(Recs) are never rewritten — Append writes
// only into a destination's last chunk's spare capacity, Release only
// reslices a chunk from the front or drops it, and a run in a view has no
// spare capacity — so a run stays as it was for as long as anyone holds it.
type LogRun struct {
	Dest int
	N    int
	Last int64
	Recs []byte
}

// LogView is an immutable view of Count logged records in (Dest,
// SendIndex) order, the form a checkpoint carries the sender log in. View
// takes one of a log, ParseLogView one of a checkpoint's bytes, and Adopt
// restores a log from one; none of them copies a record.
type LogView struct {
	Count int
	Runs  []LogRun
}

// Log is a sender-based message log, organised per destination with items
// in send-index order. The zero value is not usable; call NewLog.
type Log struct {
	// perDest holds each destination's chunks. Only the last may have
	// spare capacity or hold no record (Release keeps it for appends).
	perDest map[int][]LogRun
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{perDest: make(map[int][]LogRun)} }

// Append adds item as one record at the end of its destination's log and
// returns the record: the log's only copy of the item, which never
// changes, so the caller may hand out views of it (see RecordBytes).
// Items for one destination must be appended in strictly increasing
// send-index order; the protocol assigns indices sequentially so a
// violation is a harness bug and panics.
//
//windar:hotpath
func (l *Log) Append(item LogItem) []byte {
	runs := l.perDest[item.Dest]
	n := len(runs)
	if n > 0 && runs[n-1].Last >= item.SendIndex {
		panicAppendOrder(item.Dest, item.SendIndex, runs[n-1].Last)
	}
	if size := LogItemSize(&item); n == 0 || cap(runs[n-1].Recs)-len(runs[n-1].Recs) < size {
		fresh := LogRun{Dest: item.Dest, Recs: make([]byte, 0, max(logChunkBytes, size))} //windar:allow hotpath — amortised: one chunk per ~800 flood-sized appends
		if n > 0 && runs[n-1].N == 0 {
			runs[n-1] = fresh // an emptied chunk holds nothing to keep
		} else {
			runs = append(runs, fresh) //windar:allow hotpath — grows with the retained log, not per message
			l.perDest[item.Dest] = runs
			n++
		}
	}
	c := &runs[n-1]
	start := len(c.Recs)
	c.Recs, c.N, c.Last = AppendLogItem(c.Recs, &item), c.N+1, item.SendIndex
	return c.Recs[start:len(c.Recs):len(c.Recs)]
}

// panicAppendOrder keeps the fmt boxing out of Append's hot span.
//
//go:noinline
func panicAppendOrder(dest int, idx, prev int64) {
	panic(fmt.Sprintf("proto: log append out of order: dest %d index %d after %d",
		dest, idx, prev))
}

// Release discards every item for dest with SendIndex <= upto, returning
// how many were removed. This implements the CHECKPOINT_ADVANCE rule
// (Algorithm 1 line 39): once the receiver has checkpointed past a
// message, it can never be replayed and its log is dead weight. Chunks go
// whole by their last index; only the one the cut falls in is walked.
func (l *Log) Release(dest int, upto int64) int {
	runs, released := l.perDest[dest], 0
	for len(runs) > 0 && runs[0].Last <= upto {
		c := &runs[0]
		released += c.N
		if len(runs) == 1 && len(c.Recs) < cap(c.Recs) {
			c.Recs, c.N = c.Recs[len(c.Recs):], 0
			break
		}
		runs[0] = LogRun{}
		runs = runs[1:]
		l.perDest[dest] = runs
	}
	if len(runs) == 0 || runs[0].Last <= upto {
		return released
	}
	c, off, it := &runs[0], 0, LogItem{}
	for ; c.N > 0; c.N-- {
		size, err := DecodeLogItem(&it, c.Recs[off:])
		if err != nil {
			panic(err) // a bug: the log writes only whole records
		}
		if it.SendIndex > upto {
			break
		}
		off += size
		released++
	}
	c.Recs = c.Recs[off:]
	return released
}

// ItemsFor returns the logged items for dest with SendIndex > after, in
// send-index order. This is the resend set for a ROLLBACK whose
// last_deliver_index entry for this rank is after (Algorithm 1 lines
// 49-51). The slice is fresh and allocated once; each item's Piggyback
// and Payload are views of its record, which nothing disturbs.
func (l *Log) ItemsFor(dest int, after int64) []LogItem {
	v, n := LogView{Runs: l.perDest[dest]}, 0
	for _, r := range v.Runs {
		if r.Last > after {
			n += r.N
		}
	}
	out := make([]LogItem, 0, n)
	v.Each(dest, after, func(it *LogItem) bool { out = append(out, *it); return true })
	return out
}

// Each calls f with each of v's items for dest with SendIndex > after, in
// send-index order, until f returns false. The item's byte fields are
// views of its record; f must not keep the *LogItem past the call.
func (v LogView) Each(dest int, after int64, f func(*LogItem) bool) {
	var it LogItem
	for _, r := range v.Runs {
		for b := r.Recs; len(b) > 0 && r.Dest == dest && r.Last > after; {
			size, err := DecodeLogItem(&it, b)
			if err != nil {
				panic(err) // a bug: the log writes only whole records
			}
			b = b[size:]
			if it.SendIndex > after && !f(&it) {
				return
			}
		}
	}
}

// Len returns the total number of retained items.
func (l *Log) Len() int { return l.View().Count }

// View returns every retained record, ordered by (Dest, SendIndex), for
// checkpointing: one capacity-clipped run per non-empty chunk. It copies
// no record; the run list is its only allocation up to 16 destinations.
func (l *Log) View() LogView {
	dests, runs := make([]int, 0, 16), 0
	for dest, chunks := range l.perDest {
		dests = append(dests, dest)
		runs += len(chunks)
	}
	slices.Sort(dests)
	v := LogView{Runs: make([]LogRun, 0, runs)}
	for _, dest := range dests {
		for _, c := range l.perDest[dest] {
			if c.N > 0 {
				c.Recs, v.Count = slices.Clip(c.Recs), v.Count+c.N
				v.Runs = append(v.Runs, c)
			}
		}
	}
	return v
}

// Adopt replaces the log contents with v, as View and ParseLogView make
// it (ordered, capacity-clipped): each destination's runs become its
// chunks, one allocation per destination whatever the record count. v
// and its records are never written (see LogRun), so one view may back
// any number of logs, as a staged checkpoint restored repeatedly does.
func (l *Log) Adopt(v LogView) {
	clear(l.perDest)
	for runs := v.Runs; len(runs) > 0; {
		n := 1
		for n < len(runs) && runs[n].Dest == runs[0].Dest {
			n++
		}
		l.perDest[runs[0].Dest] = slices.Clone(runs[:n])
		runs = runs[n:]
	}
}
