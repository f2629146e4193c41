package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/vclock"
	"windar/layer"
)

// sampleItems is the sample checkpoint's sender log.
func sampleItems() []proto.LogItem {
	return []proto.LogItem{
		{Dest: 1, SendIndex: 3, Tag: 7, Piggyback: []byte{9}, Payload: []byte("pay")},
		{Dest: 1, SendIndex: 4, Tag: -2, Payload: []byte("untraced, no piggyback")},
		{Dest: 3, SendIndex: 1, Tag: 7, Piggyback: []byte{0xff, 0},
			Span: layer.SpanContext{Trace: 1 << 60, Span: 2<<48 | 9, Parent: 1<<48 | 4}},
	}
}

func sampleCheckpoint() *Checkpoint {
	l := proto.NewLog()
	for _, it := range sampleItems() {
		l.Append(it)
	}
	return &Checkpoint{
		Rank:             2,
		Step:             17,
		AppImage:         []byte{1, 2, 3},
		ProtoState:       []byte{4, 5},
		LastSendIndex:    vclock.Vec{0, 3, 0, 1},
		LastDeliverIndex: vclock.Vec{2, 0, 0, 4},
		DeliveredCount:   6,
		LogView:          l.View(),
	}
}

// sameCheckpoint reports whether got holds checkpoint want: every field
// alike, and of the sender log the count and each run's destination,
// record count, last index and record bytes. A live view's runs also
// lease the log's chunks, which no decoded view does, so the runs are
// compared field by field rather than deeply.
func sameCheckpoint(want, got *Checkpoint) bool {
	w, g := *want, *got
	w.LogView, g.LogView = proto.LogView{}, proto.LogView{}
	if !reflect.DeepEqual(w, g) || want.LogView.Count != got.LogView.Count || len(want.LogView.Runs) != len(got.LogView.Runs) {
		return false
	}
	for i, r := range want.LogView.Runs {
		s := got.LogView.Runs[i]
		if r.Dest != s.Dest || r.N != s.N || r.Last != s.Last || !bytes.Equal(r.Recs, s.Recs) {
			return false
		}
	}
	return true
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	data, err := Encode(c)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !sameCheckpoint(c, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
	// Loose items, the encode-side input, make the same blob as the
	// log's view of them.
	loose := sampleCheckpoint()
	loose.LogView, loose.Log = proto.LogView{}, sampleItems()
	if data2, err := Encode(loose); err != nil || !bytes.Equal(data, data2) {
		t.Fatalf("Encode of loose items: %v; blob differs from the view's", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a checkpoint")); err == nil {
		t.Fatal("Decode accepted garbage")
	}
}

func TestManagerSaveLoad(t *testing.T) {
	m := NewManager(stable.NewSim())
	c := sampleCheckpoint()
	if err := m.Save(c); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, ok, err := m.Load(2)
	if err != nil || !ok {
		t.Fatalf("Load = %v, %v", ok, err)
	}
	if !sameCheckpoint(c, got) {
		t.Fatalf("load mismatch: %+v", got)
	}
}

func TestManagerLoadMissing(t *testing.T) {
	m := NewManager(stable.NewSim())
	_, ok, err := m.Load(5)
	if err != nil {
		t.Fatalf("Load missing: err = %v", err)
	}
	if ok {
		t.Fatal("Load reported a checkpoint that was never saved")
	}
}

func TestManagerOverwriteKeepsLatest(t *testing.T) {
	m := NewManager(stable.NewSim())
	c := sampleCheckpoint()
	if err := m.Save(c); err != nil {
		t.Fatal(err)
	}
	c2 := sampleCheckpoint()
	c2.Step = 99
	c2.DeliveredCount = 42
	if err := m.Save(c2); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := m.Load(2)
	if !ok || got.Step != 99 || got.DeliveredCount != 42 {
		t.Fatalf("latest checkpoint not returned: %+v", got)
	}
}

func TestManagerPerRankIsolation(t *testing.T) {
	m := NewManager(stable.NewSim())
	for rank := 0; rank < 4; rank++ {
		c := sampleCheckpoint()
		c.Rank = rank
		c.Step = rank * 10
		if err := m.Save(c); err != nil {
			t.Fatal(err)
		}
	}
	for rank := 0; rank < 4; rank++ {
		got, ok, err := m.Load(rank)
		if err != nil || !ok {
			t.Fatalf("Load(%d) = %v, %v", rank, ok, err)
		}
		if got.Rank != rank || got.Step != rank*10 {
			t.Fatalf("cross-rank contamination: %+v", got)
		}
	}
}

func TestSaveTornBlobAtEveryOffset(t *testing.T) {
	// Save overwrites key(rank) with one Put and relies on the backend
	// to make it crash-atomic. Should a torn Put ever leave a prefix of
	// the new blob, Load must reject every truncation of a blob instead
	// of surfacing one.
	c := sampleCheckpoint()
	framed, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	store := stable.NewSim()
	m := NewManager(store)
	for cut := 0; cut < len(framed); cut++ {
		store.Put(key(2), framed[:cut])
		got, ok, err := m.Load(2)
		if err == nil && ok {
			t.Fatalf("cut=%d: torn blob accepted as checkpoint %+v", cut, got)
		}
	}
	// The full frame still round-trips.
	store.Put(key(2), framed)
	got, ok, err := m.Load(2)
	if err != nil || !ok || !sameCheckpoint(c, got) {
		t.Fatalf("full frame rejected: %v %v %+v", ok, err, got)
	}
}

func TestStagedCheckpointWinsAndStaleSaveSkipped(t *testing.T) {
	m := NewManager(stable.NewSim())
	c1 := sampleCheckpoint()
	c2 := sampleCheckpoint()
	c2.Step = 99
	c2.DeliveredCount = 42

	// Stage the newer snapshot before any durable write: a same-process
	// recovery must see it.
	m.Stage(c2)
	got, ok, err := m.Load(2)
	if err != nil || !ok || got.Step != 99 {
		t.Fatalf("staged checkpoint not returned: %v %v %+v", ok, err, got)
	}

	// Durably save the newer one, then let a straggler writer save the
	// older: the staleness guard must skip it.
	if err := m.Save(c2); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(c1); err != nil {
		t.Fatal(err)
	}
	got, ok, _ = m.LoadDurable(2)
	if !ok || got.Step != 99 || got.DeliveredCount != 42 {
		t.Fatalf("stale save regressed the slot: %+v", got)
	}
}

func TestEmptyCheckpointRoundTrip(t *testing.T) {
	c := &Checkpoint{Rank: 0}
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 0 || got.Step != 0 || got.LogView.Count != 0 {
		t.Fatalf("empty round trip: %+v", got)
	}
}

func TestLogExternalRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	c.LogView, c.LogExternal = proto.LogView{}, true
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil || !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, got, c)
	}
}

func TestDecodeDoesNotAliasItsInput(t *testing.T) {
	c := sampleCheckpoint()
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAA // the store reuses its buffer
	}
	if !sameCheckpoint(c, got) {
		t.Fatalf("decoded checkpoint changed with its input:\n got %+v\nwant %+v", got, c)
	}
	// Its byte fields are views into one shared copy; growing one must
	// not write into its neighbour.
	_ = append(got.LogView.Runs[0].Recs, 0xEE)
	if !sameCheckpoint(c, got) {
		t.Fatalf("append to a decoded field scribbled on another:\n got %+v\nwant %+v", got, c)
	}
}

// gobEraBlob frames payload the way the pre-v2 format did.
func gobEraBlob(t testing.TB, c *Checkpoint) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(c); err != nil {
		t.Fatal(err)
	}
	blob := append([]byte("WCKP1"), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(blob[5:], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(blob[9:], crc32.ChecksumIEEE(payload.Bytes()))
	return append(blob, payload.Bytes()...)
}

func TestDecodeRejectsGobEraBlobByVersion(t *testing.T) {
	_, err := Decode(gobEraBlob(t, sampleCheckpoint()))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("gob-era blob: err = %v, want a format-version error", err)
	}
}

// TestDecodeRejectsV2PiggybackBlobByVersion: a version-0x02 blob holds
// sender-log records with TDI piggybacks in wire format v2; it is
// refused by its version byte, never decoded as v3.
func TestDecodeRejectsV2PiggybackBlobByVersion(t *testing.T) {
	data, err := Encode(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	data[len(blobMagic)] = 0x02
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "version 0x02") {
		t.Fatalf("version-0x02 blob: err = %v, want a format-version error", err)
	}
}

// TestDecodeRejectsV3PiggybackBlobByVersion: a version-0x03 blob holds
// sender-log records with TDI piggybacks in wire format v3, whose own
// element is absolute where v4 reads an increment; it is refused by its
// version byte, never decoded as v4.
func TestDecodeRejectsV3PiggybackBlobByVersion(t *testing.T) {
	data, err := Encode(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	data[len(blobMagic)] = 0x03
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "version 0x03") {
		t.Fatalf("version-0x03 blob: err = %v, want a format-version error", err)
	}
}

// reframe wraps body in a valid header, so the parser behind the
// checksum is reachable.
func reframe(body []byte) []byte {
	blob := make([]byte, blobHeader, blobHeader+len(body))
	copy(blob, blobMagic)
	blob[len(blobMagic)] = blobVersion
	binary.LittleEndian.PutUint32(blob[blobHeader-8:], uint32(len(body)))
	binary.LittleEndian.PutUint32(blob[blobHeader-4:], crc32.ChecksumIEEE(body))
	return append(blob, body...)
}

func TestDecodeHostileLengthFields(t *testing.T) {
	data, err := Encode(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	body := data[blobHeader:]
	huge := binary.AppendUvarint(nil, math.MaxUint64-1)
	// Replace each single-byte field of the body in turn with a length
	// near MaxUint64: whichever of them is a length or a count, decoding
	// must fail cleanly rather than allocate or index by it.
	for i := range body {
		hostile := append(append(append([]byte(nil), body[:i]...), huge...), body[i+1:]...)
		if c, err := Decode(reframe(hostile)); err == nil && c.LogView.Count > len(hostile) {
			t.Fatalf("offset %d: decoded %d log items from %d bytes", i, c.LogView.Count, len(hostile))
		}
	}
	// An item count larger than the remaining bytes could hold.
	c := &Checkpoint{Rank: 1}
	data, _ = Encode(c)
	body = append([]byte(nil), data[blobHeader:]...)
	body = append(body[:len(body)-1], binary.AppendUvarint(nil, 1<<40)...)
	if _, err := Decode(reframe(body)); err == nil {
		t.Fatal("2^40 log items in an empty body accepted")
	}
}

// A checksum-valid log section whose items repeat or go back in (Dest,
// SendIndex) order cannot be a log's: restoring it would break the log's
// ordering invariant, so Decode must refuse it.
func TestDecodeRejectsDisorderedLog(t *testing.T) {
	empty, err := Encode(&Checkpoint{Rank: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, items := range map[string][]proto.LogItem{
		"duplicate":  {{Dest: 1, SendIndex: 2}, {Dest: 1, SendIndex: 3}, {Dest: 1, SendIndex: 3}},
		"backwards":  {{Dest: 1, SendIndex: 3}, {Dest: 1, SendIndex: 2}},
		"dest_order": {{Dest: 2, SendIndex: 1}, {Dest: 1, SendIndex: 5}},
	} {
		// The empty checkpoint's body ends in its zero item count.
		body := binary.AppendUvarint(bytes.Clone(empty[blobHeader:len(empty)-1]), uint64(len(items)))
		for i := range items {
			body = proto.AppendLogItem(body, &items[i])
		}
		if _, err := Decode(reframe(body)); err == nil {
			t.Errorf("%s: disordered log section decoded without error", name)
		}
	}
}

func FuzzCheckpointDecode(f *testing.F) {
	data, err := Encode(sampleCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= len(data); cut++ {
		f.Add(data[:cut])
	}
	body := data[blobHeader:]
	for cut := 0; cut < len(body); cut++ {
		f.Add(reframe(body[:cut]))
		f.Add(reframe(append(append([]byte(nil), body[:cut]...), binary.AppendUvarint(nil, math.MaxUint64-uint64(cut))...)))
	}
	f.Add(gobEraBlob(f, sampleCheckpoint()))
	f.Fuzz(func(t *testing.T, b []byte) {
		// As found (almost always refused at the header) and as a body
		// behind a valid header, which is what reaches the field parser.
		for _, blob := range [][]byte{b, reframe(b)} {
			c, err := Decode(blob)
			if err != nil {
				continue
			}
			if c.LogView.Count > len(blob) || len(c.AppImage) > len(blob) || len(c.LastSendIndex) > len(blob) {
				t.Fatalf("decoded more than the input holds: %d items from %d bytes", c.LogView.Count, len(blob))
			}
			// Whatever decodes restores into a log, which reads it back.
			l := proto.NewLog()
			l.Adopt(c.LogView)
			if l.Len() != c.LogView.Count || (l.Len() > 0 && !reflect.DeepEqual(l.View(), c.LogView)) {
				t.Fatalf("adopted log holds %d items, view %d", l.Len(), c.LogView.Count)
			}
			for _, r := range c.LogView.Runs {
				if n := len(l.ItemsFor(r.Dest, math.MinInt64)); n > r.N {
					t.Fatalf("dest %d: %d items resendable of %d", r.Dest, n, r.N)
				}
				l.Release(r.Dest, r.Last-1)
				if r.Last < math.MaxInt64 {
					l.Append(proto.LogItem{Dest: r.Dest, SendIndex: r.Last + 1})
				}
			}
			// Whatever decodes re-encodes to something that decodes equal.
			again, err := Encode(c)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			c2, err := Decode(again)
			if err != nil || !reflect.DeepEqual(c, c2) {
				t.Fatalf("re-decode: %v\n got %+v\nwant %+v", err, c2, c)
			}
			// AppendEncode onto a non-empty buffer, with and without the
			// room the blob needs, is that prefix followed by Encode's blob.
			pre := append(make([]byte, 0, len(b)%(2*len(again))), blob[:min(len(blob), 7)]...)
			keep := bytes.Clone(pre)
			if got, err := AppendEncode(pre, c); err != nil || !bytes.Equal(got, append(keep, again...)) {
				t.Fatalf("AppendEncode onto %d bytes (cap %d): %v; not the prefix followed by Encode's blob", len(pre), cap(pre), err)
			}
		}
	})
}
