package stable

import (
	"encoding/binary"
	"hash/crc32"
	"math"
)

// WAL record format: u32 little-endian payload length, u32 CRC-32 (IEEE)
// of the payload, payload. Payload: one op byte, uvarint name length,
// name bytes, then the op's own fields to the end of the payload. Op 2
// stays unassigned: format v2 used it for values held in separate files,
// and a v2 directory is refused by its meta version.
const (
	opPut    = 1 // key; rest is the value, of any size
	opDelete = 3 // key; no rest
	opAppend = 4 // stream; uvarint entry number, then the entry's data
	opTrim   = 5 // stream; uvarint lo, uvarint tail: the window is now (lo, tail]
	opCarry  = 6 // no name; uvarint n: the next n key records are all the keys there are
)

const walRecordHeader = 8

// walRecord is one decoded record. name and rest alias the bytes it was
// decoded from, and at is where rest starts in them; a and b are
// opAppend's entry number, opTrim's window and opCarry's count.
type walRecord struct {
	op   byte
	name []byte
	a, b int64
	rest []byte
	at   int
}

// appendRecordStart appends a zeroed header and the common payload prefix
// for (op, name); the caller appends the op's fields and calls sealRecord
// on the record's bytes.
func appendRecordStart(buf []byte, op byte, name string) []byte {
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, op)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	return append(buf, name...)
}

// appendWindow appends opTrim's fields.
func appendWindow(buf []byte, lo, tail int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(lo))
	return binary.AppendUvarint(buf, uint64(tail))
}

// sealRecord fills in rec's header: the length and checksum of the
// payload that follows it, taken where it lies.
func sealRecord(rec []byte) {
	payload := rec[walRecordHeader:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
}

// replayRecords decodes data's records in order, calling fn for each, and
// stops at the first whose length, checksum or fields do not verify (the
// crash-atomicity contract: a record either verifies whole or never
// happened). It returns the offset just past the last record it yielded.
func replayRecords(data []byte, fn func(walRecord)) (good int) {
	for len(data)-good >= walRecordHeader {
		plen := int(binary.LittleEndian.Uint32(data[good : good+4]))
		sum := binary.LittleEndian.Uint32(data[good+4 : good+8])
		end := good + walRecordHeader + plen
		if plen <= 0 || end > len(data) || end < good {
			break
		}
		payload := data[good+walRecordHeader : end]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		r, ok := decodePayload(payload)
		if !ok {
			break
		}
		r.at = end - len(r.rest) // rest runs to the end of the payload
		fn(r)
		good = end
	}
	return good
}

func decodePayload(p []byte) (r walRecord, ok bool) {
	if len(p) < 2 {
		return r, false
	}
	r.op = p[0]
	n, w := binary.Uvarint(p[1:])
	if w <= 0 || n > uint64(len(p)-1-w) {
		return r, false
	}
	r.name = p[1+w : 1+w+int(n)]
	r.rest = p[1+w+int(n):]
	switch r.op {
	case opPut:
	case opDelete:
		return r, len(r.rest) == 0
	case opAppend:
		seq, w := binary.Uvarint(r.rest)
		if w <= 0 || seq == 0 || seq > math.MaxInt64 {
			return r, false
		}
		r.a, r.rest = int64(seq), r.rest[w:]
	case opTrim:
		lo, w1 := binary.Uvarint(r.rest)
		if w1 <= 0 || lo > math.MaxInt64 {
			return r, false
		}
		tail, w2 := binary.Uvarint(r.rest[w1:])
		if w2 <= 0 || tail > math.MaxInt64 || w1+w2 != len(r.rest) {
			return r, false
		}
		r.a, r.b, r.rest = int64(lo), int64(tail), nil
	case opCarry:
		n, w := binary.Uvarint(r.rest)
		if w <= 0 || w != len(r.rest) || n > math.MaxInt32 || len(r.name) != 0 {
			return r, false
		}
		r.a, r.rest = int64(n), nil
	default:
		return r, false
	}
	return r, true
}
