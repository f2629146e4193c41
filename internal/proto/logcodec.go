package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"windar/internal/wire"
	"windar/layer"
)

// The LogItem codec — the one encoding of a logged message in the
// repository: the sender log stores each item as one such record, a
// checkpoint blob (internal/ckpt) holds a counted run of them and a
// durable sender-log stream (slog/, internal/harness) one per entry.
// An item is self-delimiting:
//
//	uvarint Dest · varint SendIndex · varint Tag ·
//	uvarint Span.Trace · uvarint Span.Span · uvarint Span.Parent ·
//	uvarint len(Piggyback) · Piggyback · uvarint len(Payload) · Payload
//
// All three span fields are carried: a resend rebuilt from durable
// bytes must keep the original send's causal-parent edge.

// ErrCorruptLogItem reports bytes that are not a whole encoded LogItem.
var ErrCorruptLogItem = errors.New("proto: corrupt log item")

// LogItemSize returns the number of bytes AppendLogItem appends for it.
func LogItemSize(it *LogItem) int {
	return wire.UvarintLen(uint64(it.Dest)) + wire.VarintLen(it.SendIndex) + wire.VarintLen(int64(it.Tag)) +
		wire.UvarintLen(it.Span.Trace) + wire.UvarintLen(it.Span.Span) + wire.UvarintLen(it.Span.Parent) +
		wire.UvarintLen(uint64(len(it.Piggyback))) + len(it.Piggyback) +
		wire.UvarintLen(uint64(len(it.Payload))) + len(it.Payload)
}

// AppendLogItem appends it's encoding to buf and returns the extended
// slice. With LogItemSize bytes of spare capacity it allocates nothing.
//
//windar:hotpath
func AppendLogItem(buf []byte, it *LogItem) []byte {
	buf = binary.AppendUvarint(buf, uint64(it.Dest))
	buf = binary.AppendVarint(buf, it.SendIndex)
	buf = binary.AppendVarint(buf, int64(it.Tag))
	buf = binary.AppendUvarint(buf, it.Span.Trace)
	buf = binary.AppendUvarint(buf, it.Span.Span)
	buf = binary.AppendUvarint(buf, it.Span.Parent)
	buf = binary.AppendUvarint(buf, uint64(len(it.Piggyback)))
	buf = append(buf, it.Piggyback...)
	buf = binary.AppendUvarint(buf, uint64(len(it.Payload)))
	return append(buf, it.Payload...)
}

// DecodeLogItem parses one item from the front of b into it and returns
// the number of bytes the item occupied. The item's Piggyback and
// Payload alias b (see wire.Cursor.Bytes): the caller hands over a
// buffer it will not reuse, and a whole run of items costs one copy of
// their bytes rather than two allocations each. On error it is
// unspecified.
func DecodeLogItem(it *LogItem, b []byte) (int, error) {
	c := wire.NewCursor(b)
	dest := c.Uvarint()
	it.Dest = int(dest)
	it.SendIndex = c.Varint()
	tag := c.Varint()
	it.Tag = int32(tag)
	it.Span = layer.SpanContext{Trace: c.Uvarint(), Span: c.Uvarint(), Parent: c.Uvarint()}
	it.Piggyback = c.Bytes()
	it.Payload = c.Bytes()
	if c.Err() != nil || dest > math.MaxInt32 || tag != int64(it.Tag) {
		return 0, ErrCorruptLogItem
	}
	return c.Offset(), nil
}

// RecordBytes returns capacity-clipped views of the piggyback and payload
// of rec, the record of an item with a pigLen and a payloadLen byte one.
func RecordBytes(rec []byte, pigLen, payloadLen int) (pig, payload []byte) {
	end := len(rec) - payloadLen
	pigEnd := end - wire.UvarintLen(uint64(payloadLen))
	return rec[pigEnd-pigLen : pigEnd : pigEnd], rec[end:len(rec):len(rec)]
}

// ParseLogView validates b as exactly count records in strictly
// increasing (Dest, SendIndex) order, the order a checkpoint's log
// section holds, and returns a view of b with one run per destination.
// Anything else, a duplicate item included, is an error.
func ParseLogView(b []byte, count int) (LogView, error) {
	v, off := LogView{Count: count}, 0
	for i := 0; i < count; i++ {
		var it LogItem
		n, err := DecodeLogItem(&it, b[off:])
		if err != nil {
			return LogView{}, fmt.Errorf("log item %d of %d: %w", i, count, err)
		}
		k := len(v.Runs) - 1
		if k < 0 || v.Runs[k].Dest < it.Dest {
			v.Runs, k = append(v.Runs, LogRun{Dest: it.Dest}), k+1
		} else if v.Runs[k].Dest > it.Dest || v.Runs[k].Last >= it.SendIndex {
			return LogView{}, fmt.Errorf("log item %d of %d (dest %d, send %d) out of order", i, count, it.Dest, it.SendIndex)
		}
		r := &v.Runs[k]
		r.Recs, r.N, r.Last = b[off-len(r.Recs):off+n:off+n], r.N+1, it.SendIndex
		off += n
	}
	if off != len(b) {
		return LogView{}, fmt.Errorf("%d trailing bytes after %d log items", len(b)-off, count)
	}
	return v, nil
}
