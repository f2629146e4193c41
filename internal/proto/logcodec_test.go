package proto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"windar/layer"
)

func codecItem(i int) (it LogItem) {
	it.Dest = i % 5
	it.SendIndex = int64(i) * 1000003
	it.Tag = int32(i%3) - 1
	it.Span = layer.SpanContext{Trace: uint64(i) * 7, Span: uint64(i) * 13, Parent: uint64(i) << 40}
	if i%2 == 0 {
		it.Piggyback = bytes.Repeat([]byte{byte(i)}, 1+i%17)
	}
	if i%3 != 0 {
		it.Payload = []byte(fmt.Sprintf("payload-%d", i))
	}
	return it
}

// nonZeroFields fails if any field of v, at any depth, holds its zero
// value: a round-trip test over such a value would not notice a codec
// that drops that field.
func nonZeroFields(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			nonZeroFields(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
		return
	}
	if v.IsZero() {
		t.Fatalf("%s is zero in the round-trip sample: give it a value (and the codec a field)", path)
	}
}

func TestLogItemCodecRoundTripsEveryField(t *testing.T) {
	full := LogItem{
		Dest: 3, SendIndex: 1 << 40, Tag: -7,
		Piggyback: []byte{0xff, 0}, Payload: []byte("payload"),
		Span: layer.SpanContext{Trace: 1 << 63, Span: 2<<48 | 5, Parent: 1<<48 | 4},
	}
	nonZeroFields(t, "LogItem", reflect.ValueOf(full))
	items := []LogItem{full, {}}
	for i := 0; i < 50; i++ {
		items = append(items, codecItem(i))
	}
	var run []byte
	for i := range items {
		enc := AppendLogItem(nil, &items[i])
		if len(enc) != LogItemSize(&items[i]) {
			t.Fatalf("item %d: LogItemSize %d, encoded %d bytes", i, LogItemSize(&items[i]), len(enc))
		}
		run = append(run, enc...)
	}
	if MinLogItemSize != LogItemSize(&LogItem{}) {
		t.Fatalf("MinLogItemSize = %d, the zero item encodes in %d", MinLogItemSize, LogItemSize(&LogItem{}))
	}
	// Self-delimiting: the items decode back to back out of one buffer.
	for i := range items {
		var got LogItem
		n, err := DecodeLogItem(&got, run)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, items[i]) {
			t.Fatalf("item %d:\n got %+v\nwant %+v", i, got, items[i])
		}
		run = run[n:]
	}
	if len(run) != 0 {
		t.Fatalf("%d bytes left after the last item", len(run))
	}
}

func TestDecodeLogItemRejectsBadInput(t *testing.T) {
	it := codecItem(7)
	full := AppendLogItem(nil, &it)
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeLogItem(new(LogItem), full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	for i := range full {
		hostile := append(append(append([]byte(nil), full[:i]...), huge...), full[i+1:]...)
		var got LogItem
		if n, err := DecodeLogItem(&got, hostile); err == nil && n > len(hostile) {
			t.Fatalf("offset %d: consumed %d of %d bytes: %+v", i, n, len(hostile), got)
		}
	}
}

func TestLogAllAllocatesOnce(t *testing.T) {
	l := NewLog()
	for dest := 0; dest < 4; dest++ {
		for idx := int64(1); idx <= 3*logChunkItems+7; idx++ {
			l.Append(item(dest, idx, "x"))
		}
	}
	all := l.All()
	if len(all) != l.Len() || cap(all) != l.Len() {
		t.Fatalf("All: len %d cap %d, log holds %d", len(all), cap(all), l.Len())
	}
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Dest > b.Dest || (a.Dest == b.Dest && a.SendIndex >= b.SendIndex) {
			t.Fatalf("All out of (Dest, SendIndex) order at %d: %+v then %+v", i, a, b)
		}
	}
	if n := testing.AllocsPerRun(20, func() { all = l.All() }); n != 1 {
		t.Fatalf("All: %.0f allocations, want 1", n)
	}
}
