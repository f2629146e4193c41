package wire

import (
	"encoding/binary"
	"math"
	"testing"

	"windar/internal/vclock"
)

func TestCursorReadsAppendHelpersBack(t *testing.T) {
	var b []byte
	b = append(b, 0x7f)
	b = binary.AppendUvarint(b, 1<<40)
	b = binary.AppendVarint(b, -12345)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "abc"...)
	b = binary.AppendUvarint(b, 0) // empty bytes field
	b = AppendVec(b, vclock.Vec{4, 0, -9})
	b = AppendVec(b, nil)

	c := NewCursor(b)
	if got := c.Byte(); got != 0x7f {
		t.Fatalf("Byte = %#x", got)
	}
	if got := c.Uvarint(); got != 1<<40 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := c.Varint(); got != -12345 {
		t.Fatalf("Varint = %d", got)
	}
	field := c.Bytes()
	if string(field) != "abc" || cap(field) != 3 {
		t.Fatalf("Bytes = %q cap %d, want abc clipped to 3", field, cap(field))
	}
	if got := c.Bytes(); got != nil {
		t.Fatalf("empty Bytes = %v, want nil", got)
	}
	if got := c.Vec(); !got.Equal(vclock.Vec{4, 0, -9}) {
		t.Fatalf("Vec = %v", got)
	}
	if got := c.Vec(); got != nil {
		t.Fatalf("empty Vec = %v, want nil", got)
	}
	if c.Err() != nil || c.Len() != 0 || c.Offset() != len(b) {
		t.Fatalf("after the last field: err %v, %d left, offset %d of %d", c.Err(), c.Len(), c.Offset(), len(b))
	}
}

func TestCursorFailureIsStickyAndBounded(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":             nil,
		"cut varint":        {0x80},
		"overlong varint":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"length past end":   binary.AppendUvarint(nil, 5),
		"length near 2^64":  binary.AppendUvarint(nil, math.MaxUint64),
		"vector past end":   binary.AppendUvarint(nil, 1<<30),
		"vector cut inside": append(binary.AppendUvarint(nil, 2), 0x01),
	} {
		for _, read := range []func(*Cursor){
			func(c *Cursor) { c.Bytes() },
			func(c *Cursor) { c.Vec() },
		} {
			c := NewCursor(b)
			read(&c)
			if c.Err() == nil {
				t.Fatalf("%s: read succeeded", name)
			}
			off := c.Offset()
			if c.Byte() != 0 || c.Uvarint() != 0 || c.Varint() != 0 || c.Bytes() != nil || c.Vec() != nil {
				t.Fatalf("%s: a failed cursor returned data", name)
			}
			if c.Err() != ErrTruncated || c.Offset() != off {
				t.Fatalf("%s: failure not sticky: err %v, offset %d -> %d", name, c.Err(), off, c.Offset())
			}
		}
	}
}
