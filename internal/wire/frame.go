package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Framing wraps the in-process envelope encoding into a self-describing
// byte-stream format so envelopes survive a real transport (TCP) where
// message boundaries do not exist. Each frame is:
//
//	byte 0: magic (FrameMagic) — guards against stream misalignment
//	byte 1: format version (FrameVersion)
//	uvarint: body length
//	body: AppendEncode output
//
// The header is per-frame rather than per-stream so a reader can resync
// diagnostics on corruption and a stream can in principle mix versions
// during a rolling upgrade.
const (
	// FrameMagic is the first byte of every frame.
	FrameMagic = 0xD7
	// FrameVersion is the current frame format version.
	FrameVersion = 1
	// MaxFrameBody bounds a frame body so a corrupt or hostile length
	// prefix cannot drive an arbitrary allocation.
	MaxFrameBody = 64 << 20
)

// Framing errors. ErrTruncated (shared with Decode) reports a frame cut
// short; a length prefix that overflows 64 bits is ErrFrameTooLarge.
var (
	ErrFrameMagic    = errors.New("wire: bad frame magic")
	ErrFrameVersion  = errors.New("wire: unsupported frame version")
	ErrFrameTooLarge = errors.New("wire: frame body exceeds limit")
)

// AppendFrame appends the framed encoding of e to buf and returns the
// extended slice. Like AppendEncode it allocates nothing once buf has
// steady-state capacity.
func AppendFrame(buf []byte, e *Envelope) []byte {
	buf = append(buf, FrameMagic, FrameVersion)
	buf = binary.AppendUvarint(buf, uint64(EncodedSize(e)))
	return AppendEncode(buf, e)
}

// FrameSize returns the number of bytes AppendFrame would append for e.
func FrameSize(e *Envelope) int {
	n := EncodedSize(e)
	return 2 + UvarintLen(uint64(n)) + n
}

// parseFrameHeader parses the frame header at the front of b: hdr is
// the header's length and body the body length it announces. hdr == 0
// with a nil error means b ends inside the header — incomplete, not
// corrupt. A wrong magic or version byte is an error as soon as that
// byte is present, so a misaligned stream never waits for more input.
// Every frame decoder (DecodeFrame, DecodeFrameInto, FrameReader.Read)
// goes through this one parse.
func parseFrameHeader(b []byte) (hdr, body int, err error) {
	if len(b) > 0 && b[0] != FrameMagic {
		return 0, 0, ErrFrameMagic
	}
	if len(b) > 1 && b[1] != FrameVersion {
		return 0, 0, errFrameVersion(b[1])
	}
	if len(b) < 3 {
		return 0, 0, nil
	}
	l, n := binary.Uvarint(b[2:])
	switch {
	case n == 0: // length varint cut short (it overflows at ten bytes)
		return 0, 0, nil
	case n < 0:
		return 0, 0, ErrFrameTooLarge
	case l > MaxFrameBody:
		return 0, 0, errFrameTooLarge(l)
	}
	return 2 + n, int(l), nil
}

// DecodeFrameInto is the incremental frame decoder: b is whatever a
// byte stream has delivered so far and may end anywhere. A complete
// frame at the front of b is decoded into e (see DecodeInto for the
// ownership of its slices, and for a) and its length returned. n == 0 with a nil
// error means b holds only a prefix of a frame: e is untouched, and the
// caller keeps the bytes and reads more. An error means the stream is
// corrupt — bad magic or version, a length over MaxFrameBody, or a
// complete body that does not decode — and cannot be resynchronized.
func DecodeFrameInto(e *Envelope, b []byte, a *Arena) (n int, err error) {
	hdr, body, err := parseFrameHeader(b)
	if err != nil || hdr == 0 || len(b)-hdr < body {
		return 0, err
	}
	if err := DecodeInto(e, b[hdr:hdr+body], a); err != nil {
		return 0, err
	}
	return hdr + body, nil
}

// DecodeFrame parses one frame from the front of b into a fresh
// envelope, returning it and the number of bytes consumed. b must hold
// the whole frame: a prefix is ErrTruncated.
func DecodeFrame(b []byte) (*Envelope, int, error) {
	e := new(Envelope)
	n, err := DecodeFrameInto(e, b, nil)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, ErrTruncated
	}
	e.pigBuf = nil
	return e, n, nil
}

// FrameReader reads framed envelopes from a byte stream, reusing one
// internal body buffer across frames. Not safe for concurrent use.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewFrameReader returns a FrameReader on r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// Read parses the next frame. io.EOF is returned verbatim at a clean
// frame boundary; a frame cut short mid-way surfaces as
// io.ErrUnexpectedEOF.
//
// The decoded envelope itself is a fresh allocation by contract (the
// inbox retains it past the next Read); only the body buffer is reused.
func (fr *FrameReader) Read() (*Envelope, error) {
	// Peek the header one byte further at a time, so the reader never
	// waits for bytes past the frame it is parsing.
	hdr, l := 0, 0
	for want := 3; hdr == 0; want++ {
		b, rerr := fr.r.Peek(want)
		var err error
		if hdr, l, err = parseFrameHeader(b); err != nil {
			return nil, err
		}
		if hdr == 0 && rerr != nil {
			if len(b) > 0 {
				rerr = eofIsUnexpected(rerr)
			}
			return nil, rerr
		}
	}
	_, _ = fr.r.Discard(hdr) // cannot fail: the bytes were just peeked
	if cap(fr.buf) < l {
		fr.buf = make([]byte, l) // amortized: grows to the stream's largest frame once, then reused
	}
	body := fr.buf[:l]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return nil, eofIsUnexpected(err)
	}
	return Decode(body)
}

// errFrameVersion and errFrameTooLarge format their errors out of line
// of the decoder: fmt boxing allocates, and these paths only run on a
// corrupt or incompatible stream.
//
//go:noinline
func errFrameVersion(version byte) error {
	return fmt.Errorf("%w: %d", ErrFrameVersion, version)
}

//go:noinline
func errFrameTooLarge(l uint64) error {
	return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, l)
}

// eofIsUnexpected maps a bare EOF inside a frame to io.ErrUnexpectedEOF.
func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
