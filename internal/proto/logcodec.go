package proto

import (
	"encoding/binary"
	"errors"
	"math"

	"windar/internal/wire"
	"windar/layer"
)

// The LogItem codec — the one encoding of a logged message in the
// repository. A checkpoint blob (internal/ckpt) holds a counted run of
// these and a durable sender-log stream (slog/, internal/harness) holds
// one per entry. An item is self-delimiting:
//
//	uvarint Dest · varint SendIndex · varint Tag ·
//	uvarint Span.Trace · uvarint Span.Span · uvarint Span.Parent ·
//	uvarint len(Piggyback) · Piggyback · uvarint len(Payload) · Payload
//
// All three span fields are carried: a resend rebuilt from durable
// bytes must keep the original send's causal-parent edge.

// ErrCorruptLogItem reports bytes that are not a whole encoded LogItem.
var ErrCorruptLogItem = errors.New("proto: corrupt log item")

// MinLogItemSize is the encoded size of the zero LogItem. n bytes hold
// at most n/MinLogItemSize items, which bounds what a hostile count
// field can make a decoder allocate.
const MinLogItemSize = 8

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
