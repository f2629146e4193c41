package proto

import (
	"fmt"
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
// list of fixed-capacity chunks. Only the last chunk ever has spare
// capacity; Append fills it and starts a new one when it is full.
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
// 49-51). The returned slice is a fresh copy; later appends or releases
// do not disturb it.
func (l *Log) ItemsFor(dest int, after int64) []LogItem {
	d := l.perDest[dest]
	if d == nil {
		return nil
	}
	var out []LogItem
	for _, c := range d.chunks {
		cut := sort.Search(len(c), func(i int) bool { return c[i].SendIndex > after })
		if cut < len(c) {
			out = append(out, c[cut:]...)
		}
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

// RestoreAll replaces the log contents with items (from a checkpoint).
func (l *Log) RestoreAll(items []LogItem) {
	l.perDest = make(map[int]*destLog)
	l.bytes = 0
	byDest := make(map[int][]LogItem)
	for _, it := range items {
		byDest[it.Dest] = append(byDest[it.Dest], it)
	}
	// Re-append in per-destination send-index order so the chunked
	// layout is rebuilt exactly as a live log would have grown it.
	for _, its := range byDest {
		sort.Slice(its, func(i, j int) bool { return its[i].SendIndex < its[j].SendIndex })
		for _, it := range its {
			l.Append(it)
		}
	}
}
