package proto

import (
	"fmt"
	"slices"
	"sync/atomic"

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

// logChunkBytes is the size of a fresh record chunk: ~800 flood-sized
// records, no pointers for the collector to scan, and under the large
// allocation threshold. A larger record gets a chunk of its own size.
const logChunkBytes = 16 << 10

// logChunk is a standard chunk: the count of views leasing it (View,
// LogView.Release) and its records, one allocation of the 16 KiB class.
type logChunk struct {
	views atomic.Int32
	b     [logChunkBytes - 8]byte
}

// LogRun is N back-to-back AppendLogItem records to Dest in send-index
// order, the last with SendIndex Last: one chunk of the log, or one run of
// a LogView. Bytes of a viewed or adopted run below len(Recs) are never
// rewritten — Append writes only into a destination's last chunk's spare
// capacity and into released chunks no view holds, Release only reslices
// a chunk from the front or drops it, and a run in a view has no spare
// capacity — so such a run stays as it was until its view is released.
type LogRun struct {
	Dest int
	N    int
	Last int64
	Recs []byte
	// mem is the standard chunk Recs lies in, which the log may write again
	// once it is released and unleased, and which a view leases; nil in an
	// adopted or parsed run, an oversize chunk and one ItemsFor included.
	mem *logChunk
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
	// free and lent hold released chunks for fresh: lent those a view
	// still leases. One joins only as a chunk leaves the log and one is
	// allocated only when neither holds an unleased chunk, so free, lent
	// and live chunks stay within the high-water of lent and live ones.
	free, lent []*logChunk
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{perDest: make(map[int][]LogRun)} }

// Append adds item as one record at the end of its destination's log and
// returns the record: the log's only copy of the item, which no Append
// rewrites before its release, so the caller may hand out views of it
// (see RecordBytes) until the send returns. Once released, its chunk is
// reused when no view holds it and no ItemsFor result included it.
// Items for one destination must be appended in strictly increasing
// send-index order; the protocol assigns indices sequentially so a
// violation is a harness bug and panics.
func (l *Log) Append(item LogItem) []byte {
	runs := l.perDest[item.Dest]
	n := len(runs)
	if n > 0 && runs[n-1].Last >= item.SendIndex {
		panicAppendOrder(item.Dest, item.SendIndex, runs[n-1].Last)
	}
	if size := LogItemSize(&item); n == 0 || cap(runs[n-1].Recs)-len(runs[n-1].Recs) < size {
		if n > 0 && runs[n-1].N == 0 {
			l.retire(&runs[n-1]) // an emptied chunk holds nothing to keep
			runs[n-1] = l.fresh(item.Dest, size)
		} else {
			runs = append(runs, l.fresh(item.Dest, size)) // grows with the retained log, not per message
			l.perDest[item.Dest] = runs
			n++
		}
	}
	c := &runs[n-1]
	start := len(c.Recs)
	c.Recs, c.N, c.Last = AppendLogItem(c.Recs, &item), c.N+1, item.SendIndex
	return c.Recs[start:len(c.Recs):len(c.Recs)]
}

// fresh returns an empty chunk for dest with room for a size-byte record:
// a released chunk no view holds when there is one and the record fits a
// standard chunk.
func (l *Log) fresh(dest, size int) LogRun {
	if size > len(logChunk{}.b) {
		return LogRun{Dest: dest, Recs: make([]byte, 0, size)}
	}
	var c *logChunk
	if n := len(l.free); n > 0 {
		c, l.free[n-1], l.free = l.free[n-1], nil, l.free[:n-1]
	} else if i := slices.IndexFunc(l.lent, unleased); i >= 0 {
		c = l.lent[i]
		l.lent = slices.Delete(l.lent, i, i+1)
	} else {
		c = new(logChunk) // amortised: only while the log and its views grow past their high-water
	}
	return LogRun{Dest: dest, Recs: c.b[:0], mem: c}
}

// unleased reports that no view holds c, nor will read it again.
func unleased(c *logChunk) bool { return c.views.Load() == 0 }

// retire drops c, keeping its chunk for fresh if the log may write it
// again: free now, or lent until its views are released.
func (l *Log) retire(c *LogRun) {
	if c.mem != nil && unleased(c.mem) {
		l.free = append(l.free, c.mem) // grows to the high-water, not per chunk
	} else if c.mem != nil {
		l.lent = append(l.lent, c.mem)
	}
	*c = LogRun{}
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
	runs, released, k := l.perDest[dest], 0, 0
	for ; k < len(runs) && runs[k].Last <= upto; k++ {
		c := &runs[k]
		released += c.N
		if k == len(runs)-1 && len(c.Recs) < cap(c.Recs) {
			c.Recs, c.N = c.Recs[len(c.Recs):], 0
			break
		}
		l.retire(c)
	}
	if k > 0 { // the survivors slide down, so the list keeps its capacity
		n := copy(runs, runs[k:])
		clear(runs[n:])
		runs = runs[:n]
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
// and Payload are views of its record. Nothing releases the items, so
// the log never reuses their chunks: only a bench probe and tests call
// it, and a resend walks a View it releases instead.
func (l *Log) ItemsFor(dest int, after int64) []LogItem {
	v, n := LogView{Runs: l.perDest[dest]}, 0
	for i := range v.Runs {
		if r := &v.Runs[i]; r.Last > after && r.N > 0 {
			n += r.N
			r.mem = nil
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

// Len returns the total number of retained items. It pins nothing.
func (l *Log) Len() int {
	n := 0
	for _, chunks := range l.perDest {
		for _, c := range chunks {
			n += c.N
		}
	}
	return n
}

// View returns every retained record, ordered by (Dest, SendIndex), for
// checkpointing: one capacity-clipped run per non-empty chunk, each
// standard chunk leased until the view's Release. It copies no record;
// the run list is its only allocation up to 16 destinations.
func (l *Log) View() LogView { return l.AppendView(nil) }

// AppendView is View with the run list appended to runs[:0], so a
// checkpoint that keeps its previous list allocates nothing.
func (l *Log) AppendView(runs []LogRun) LogView {
	dests, n := make([]int, 0, 16), 0
	for dest, chunks := range l.perDest {
		dests = append(dests, dest)
		n += len(chunks)
	}
	slices.Sort(dests)
	if cap(runs) < n {
		runs = make([]LogRun, 0, n)
	}
	v := LogView{Runs: runs[:0]}
	for _, dest := range dests {
		chunks := l.perDest[dest]
		for i := range chunks {
			if c := &chunks[i]; c.N > 0 {
				if c.mem != nil {
					c.mem.views.Add(1)
				}
				v.Runs = append(v.Runs, *c)
				v.Runs[len(v.Runs)-1].Recs, v.Count = slices.Clip(c.Recs), v.Count+c.N
			}
		}
	}
	return v
}

// Release ends v's leases, once, after the holder's last read of v's
// records: the log may then reuse them.
func (v LogView) Release() {
	for _, r := range v.Runs {
		if r.mem != nil {
			r.mem.views.Add(-1)
		}
	}
}

// Adopt replaces the log contents with v, as View and ParseLogView make
// it (ordered, capacity-clipped): each destination's runs become its
// chunks, one allocation per destination whatever the record count. v
// and its records are never written (see LogRun), so one view may back
// any number of logs, as a staged checkpoint restored repeatedly does.
func (l *Log) Adopt(v LogView) {
	clear(l.perDest)
	l.free, l.lent = nil, nil
	for runs := v.Runs; len(runs) > 0; {
		n := 1
		for n < len(runs) && runs[n].Dest == runs[0].Dest {
			n++
		}
		chunks := slices.Clone(runs[:n])
		for i := range chunks {
			chunks[i].mem = nil // the view's lease stays its holder's; this log never writes it
		}
		l.perDest[runs[0].Dest] = chunks
		runs = runs[n:]
	}
}
