package proto

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"windar/layer"
)

// LogItem is one sender-logged application message: destination, sending
// index, the original tag and piggyback, and the raw payload (Algorithm 1
// line 12). The logged piggyback is retransmitted verbatim with the
// message during a peer's recovery ("every resent message should be
// piggybacked with the logged vector ... as in normal execution mode").
// The span context rides along for the same reason: a resend must carry
// the original send's causal identity, not a fresh one. Checkpoints and
// the durable slog/ streams share one encoding of it (logcodec.go).
type LogItem struct {
	Dest      int
	SendIndex int64
	Tag       int32
	Piggyback []byte
	Payload   []byte
	Span      layer.SpanContext
}

// logChunkItems is the fixed chunk capacity of the per-destination item
// store. 256 items keep each chunk (~24 KiB) under the runtime's large
// allocation threshold, so a growing log never pays the
// allocate-copy-zero cycle of a doubling slice: Append touches only the
// chunk it fills and each item's memory is allocated exactly once.
const logChunkItems = 256

// destLog is one destination's items, in send-index order, stored as a
// list of chunks of at most logChunkItems items: ones Append filled, or
// views of a checkpoint's items that RestoreAll adopted. Only the last
// chunk ever has spare capacity; Append fills it and starts a new one
// when it is full.
type destLog struct {
	chunks [][]LogItem
	count  int
}

// last returns a pointer to the newest item, or nil when empty.
func (d *destLog) last() *LogItem {
	if n := len(d.chunks); n > 0 {
		c := d.chunks[n-1]
		return &c[len(c)-1]
	}
	return nil
}

// Log is a sender-based message log, organised per destination with items
// in send-index order. The zero value is not usable; call NewLog.
type Log struct {
	perDest map[int]*destLog
	bytes   int64
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{perDest: make(map[int]*destLog)} }

// Append adds item. Items for one destination must be appended in strictly
// increasing send-index order; the protocol assigns indices sequentially
// so a violation is a harness bug and panics.
//
//windar:hotpath
func (l *Log) Append(item LogItem) {
	d := l.perDest[item.Dest]
	if d == nil {
		d = &destLog{} //windar:allow hotpath — once per destination, not per message
		l.perDest[item.Dest] = d
	}
	if last := d.last(); last != nil && last.SendIndex >= item.SendIndex {
		panicAppendOrder(item.Dest, item.SendIndex, last.SendIndex)
	}
	n := len(d.chunks)
	if n == 0 || len(d.chunks[n-1]) == cap(d.chunks[n-1]) {
		d.chunks = append(d.chunks, make([]LogItem, 0, logChunkItems)) //windar:allow hotpath — amortised: one chunk per logChunkItems appends
		n++
	}
	d.chunks[n-1] = append(d.chunks[n-1], item)
	d.count++
	l.bytes += int64(len(item.Payload) + len(item.Piggyback))
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
// message, it can never be replayed and its log is dead weight.
func (l *Log) Release(dest int, upto int64) int {
	d := l.perDest[dest]
	if d == nil {
		return 0
	}
	released := 0
	for len(d.chunks) > 0 {
		c := d.chunks[0]
		cut := sort.Search(len(c), func(i int) bool { return c[i].SendIndex > upto })
		if cut == 0 {
			break
		}
		for _, it := range c[:cut] {
			l.bytes -= int64(len(it.Payload) + len(it.Piggyback))
		}
		released += cut
		if cut == len(c) {
			d.chunks = d.chunks[1:]
			continue
		}
		// Partial chunk: copy the survivors into a fresh chunk so the
		// released items' memory is actually dropped.
		nc := make([]LogItem, len(c)-cut, logChunkItems)
		copy(nc, c[cut:])
		d.chunks[0] = nc
		break
	}
	d.count -= released
	if d.count == 0 {
		delete(l.perDest, dest)
	}
	return released
}

// ItemsFor returns the logged items for dest with SendIndex > after, in
// send-index order. This is the resend set for a ROLLBACK whose
// last_deliver_index entry for this rank is after (Algorithm 1 lines
// 49-51). The returned slice is a fresh copy, sized first and allocated
// once; later appends or releases do not disturb it.
func (l *Log) ItemsFor(dest int, after int64) []LogItem {
	d := l.perDest[dest]
	if d == nil {
		return nil
	}
	// Chunks are in send-index order: skip those wholly at or below
	// after, then cut into the first one that is not.
	chunks, skipped := d.chunks, 0
	for len(chunks) > 0 && chunks[0][len(chunks[0])-1].SendIndex <= after {
		skipped += len(chunks[0])
		chunks = chunks[1:]
	}
	if len(chunks) == 0 {
		return nil
	}
	c := chunks[0]
	cut := sort.Search(len(c), func(i int) bool { return c[i].SendIndex > after })
	out := make([]LogItem, 0, d.count-skipped-cut)
	out = append(out, c[cut:]...)
	for _, c := range chunks[1:] {
		out = append(out, c...)
	}
	return out
}

// Len returns the total number of retained items.
func (l *Log) Len() int {
	n := 0
	for _, d := range l.perDest {
		n += d.count
	}
	return n
}

// Bytes returns the retained payload+piggyback bytes (the memory the
// paper's sender-based logging strategy buffers).
func (l *Log) Bytes() int64 { return l.bytes }

// All returns every retained item ordered by (Dest, SendIndex), for
// checkpointing. The result is allocated once at its final size and
// filled chunk by chunk; it is the call's only allocation up to 16
// destinations.
func (l *Log) All() []LogItem {
	dests := make([]int, 0, 16)
	total := 0
	for d, dl := range l.perDest {
		dests = append(dests, d)
		total += dl.count
	}
	sort.Ints(dests)
	out := make([]LogItem, 0, total)
	for _, dst := range dests {
		for _, c := range l.perDest[dst].chunks {
			out = append(out, c...)
		}
	}
	return out
}

// RestoreAll replaces the log contents with items — a checkpoint's log,
// which All emitted in (Dest, SendIndex) order. Ordered input is adopted
// in place: each destination's run is cut into capacity-clipped
// logChunkItems-item views of items, so a restore copies no item and
// allocates two objects per destination whatever the item count.
//
// Adopted items are immutable. The log never writes into a view —
// Append opens a fresh chunk behind a full one, and Release copies a
// partial chunk's survivors into a fresh chunk — and the caller must not
// write into items either. The same slice may back any number of logs:
// a staged checkpoint restored by repeated recoveries is adopted each
// time and never changes.
//
// Unordered input is sorted on a copy first. A duplicate (Dest,
// SendIndex) panics, as Append does.
func (l *Log) RestoreAll(items []LogItem) {
	if !inLogOrder(items) {
		items = slices.Clone(items)
		slices.SortFunc(items, func(a, b LogItem) int {
			if c := cmp.Compare(a.Dest, b.Dest); c != 0 {
				return c
			}
			return cmp.Compare(a.SendIndex, b.SendIndex)
		})
		inLogOrder(items) // panics on a duplicate
	}
	clear(l.perDest)
	l.bytes = 0
	for len(items) > 0 {
		n := 1
		for n < len(items) && items[n].Dest == items[0].Dest {
			n++
		}
		run := items[:n]
		d := &destLog{chunks: make([][]LogItem, 0, (n+logChunkItems-1)/logChunkItems), count: n}
		for _, it := range run {
			l.bytes += int64(len(it.Payload) + len(it.Piggyback))
		}
		for len(run) > 0 {
			k := min(len(run), logChunkItems)
			d.chunks = append(d.chunks, run[:k:k])
			run = run[k:]
		}
		l.perDest[items[0].Dest] = d
		items = items[n:]
	}
}

// inLogOrder reports whether items are in strictly increasing (Dest,
// SendIndex) order, in one pass. An adjacent duplicate panics.
func inLogOrder(items []LogItem) bool {
	for i := 1; i < len(items); i++ {
		a, b := &items[i-1], &items[i]
		switch {
		case a.Dest < b.Dest:
		case a.Dest > b.Dest, a.SendIndex > b.SendIndex:
			return false
		case a.SendIndex == b.SendIndex:
			panicAppendOrder(b.Dest, b.SendIndex, a.SendIndex)
		}
	}
	return true
}
