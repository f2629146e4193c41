package wire

import (
	"encoding/binary"

	"windar/internal/vclock"
)

// Cursor reads the append helpers' fields back off the front of a
// buffer. A read that runs off the end, or a length field larger than
// what is left, puts the cursor in a failed state in which every read
// returns zero, so a decoder reads all its fields and checks Err once.
// Nothing a Cursor allocates is sized by an unchecked length field.
type Cursor struct {
	b      []byte
	off    int
	failed bool
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Err is ErrTruncated once any read has failed.
func (c *Cursor) Err() error {
	if c.failed {
		return ErrTruncated
	}
	return nil
}

// Offset is the number of bytes consumed so far.
func (c *Cursor) Offset() int { return c.off }

// Len is the number of bytes left.
func (c *Cursor) Len() int { return len(c.b) - c.off }

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.failed || c.off == len(c.b) {
		c.failed = true
		return 0
	}
	c.off++
	return c.b[c.off-1]
}

// Uvarint reads a binary.AppendUvarint field.
func (c *Cursor) Uvarint() uint64 {
	if !c.failed && c.off < len(c.b) {
		if x := c.b[c.off]; x < 0x80 { // one byte: most counts, lengths and ranks
			c.off++
			return uint64(x)
		}
		if v, n := binary.Uvarint(c.b[c.off:]); n > 0 {
			c.off += n
			return v
		}
	}
	c.failed = true
	return 0
}

// Varint reads a binary.AppendVarint field (zig-zag over Uvarint).
func (c *Cursor) Varint() int64 {
	ux := c.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Bytes reads a uvarint-length-prefixed byte field. The result aliases
// the cursor's buffer, clipped to its own length so an append copies
// out; an empty field reads as nil.
func (c *Cursor) Bytes() []byte {
	l := c.Uvarint()
	if c.failed || l > uint64(c.Len()) {
		c.failed = true
		return nil
	}
	if l == 0 {
		return nil
	}
	end := c.off + int(l)
	f := c.b[c.off:end:end]
	c.off = end
	return f
}

// Vec reads an AppendVec field into a fresh vector; an empty vector
// reads as nil.
func (c *Cursor) Vec() vclock.Vec {
	if c.failed {
		return nil
	}
	v, n, err := ReadVec(c.b[c.off:])
	if err != nil {
		c.failed = true
		return nil
	}
	c.off += n
	if len(v) == 0 {
		return nil
	}
	return v
}
