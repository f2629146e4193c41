package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"windar/internal/clock"
	"windar/internal/proto"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// exchangeWithAll has every peer of rank 0 send to it and receive from
// it, twice over, and returns rank 0's instance with the demand each
// peer's last message made of it. Every pair talks, as around an
// AnySource master or an Allreduce root: the worst case for per-peer
// protocol state.
func exchangeWithAll(t testing.TB, n int) (*TDI, []int64) {
	t.Helper()
	r0 := New(0, n, nil, nil)
	peers := make([]*TDI, n)
	demands := make([]int64, n)
	for p := range peers {
		demands[p] = -1 // no message merged yet, from rank 0 itself ever
		if p > 0 {
			peers[p] = New(p, n, nil, nil)
		}
	}
	idx := make([]int64, n)
	for round := 0; round < 2; round++ {
		for p := 1; p < n; p++ {
			idx[p]++
			pig, _ := peers[p].PiggybackForSend(0, idx[p])
			demands[p] = peers[p].dependInterval[0]
			e := &wire.Envelope{Kind: wire.KindApp, From: p, To: 0, SendIndex: idx[p], Piggyback: pig}
			if err := r0.OnDeliver(e, r0.dependInterval[0]+1); err != nil {
				t.Fatal(err)
			}
			back, _ := r0.PiggybackForSend(p, idx[p])
			e = &wire.Envelope{Kind: wire.KindApp, From: 0, To: p, SendIndex: idx[p], Piggyback: back}
			if err := peers[p].OnDeliver(e, peers[p].dependInterval[p]+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r0, demands
}

// retainedBytes is the live heap that dropping the instance built by
// mk frees: its protocol state plus the arena chunk it holds.
func retainedBytes(mk func() *TDI) uint64 {
	var with, without runtime.MemStats
	inst := mk()
	runtime.GC()
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(inst)
	inst = nil
	runtime.GC()
	runtime.ReadMemStats(&without)
	if with.HeapAlloc < without.HeapAlloc {
		return 0
	}
	return with.HeapAlloc - without.HeapAlloc
}

// TestTDIStateIsLinear: with every pair talking, a rank's TDI state is
// O(n) — its checkpoint image is one vector plus one demand per source,
// and the instance retains well under the n² int64s that a vector per
// peer would take (1.5 MiB at n = 256).
func TestTDIStateIsLinear(t *testing.T) {
	for _, n := range []int{16, 256} {
		r0, demands := exchangeWithAll(t, n)
		want := wire.AppendVec([]byte{snapshotMarker}, r0.DependInterval())
		for _, d := range demands {
			want = binary.AppendVarint(want, d)
		}
		if got := r0.AppendSnapshot(nil); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: snapshot is %d bytes, want the vector plus %d demands (%d bytes)", n, len(got), n, len(want))
		}
		var held uint64
		for i := 0; i < 3; i++ { // the smallest of three: other tests' garbage only ever adds
			b := retainedBytes(func() *TDI { r, _ := exchangeWithAll(t, n); return r })
			if i == 0 || b < held {
				held = b
			}
		}
		t.Logf("n=%d: rank 0 retains %d bytes; its snapshot is %d bytes", n, held, len(want))
		if n == 256 && held >= 64<<10 {
			t.Fatalf("n=%d: rank 0 retains %d bytes, want < 64 KiB", n, held)
		}
	}
}

// FuzzTDIPiggyback drives TDI's receive side two ways. Arbitrary bytes
// from an arbitrary source must be refused with an error — by
// Deliverable and OnDeliver alike, leaving the receiver unchanged — or
// be a well-formed piggyback that merges as its pairs say; never a
// panic. And a send/deliver history the script chooses among eight
// ranks must leave each receiver, after every delivery, with exactly its merge
// of the sender's full DependInterval at encode time, and with that
// vector's demand.
func FuzzTDIPiggyback(f *testing.F) {
	f.Add(int8(1), wire.AppendVecSince(nil, vclock.Vec{2, 5, 1, 4}, 1, nil, 0), []byte{0x01, 0x10, 0x21, 0x12, 0x03, 0x30, 0x13})
	f.Add(int8(1), []byte{0x02, 0x05, 0x03, 0x05}, []byte{0x00, 0x01, 0x02, 0x10, 0x11, 0x12}) // delta: v[1] = 5, v[3] = 5 + 3
	f.Add(int8(-1), []byte(nil), []byte{0x31, 0x31, 0x31, 0x13, 0x13})
	f.Add(int8(7), []byte{0xFF}, []byte{})
	f.Add(int8(1), []byte{0x0B}, []byte{0x12, 0x21, 0x11, 0x22}) // own-only: v[1] = 5
	f.Fuzz(func(t *testing.T, src int8, pig, script []byte) {
		fuzzHostile(t, int(src), pig)
		fuzzHistory(t, script)
	})
}

// fuzzClock is a clock that never moves: the tracking-time sampler then
// takes the same branches on every run of an input, which the fuzzer's
// coverage-guided minimizer needs.
var fuzzClock = clock.NewFake(time.Unix(0, 0))

// fuzzHostile feeds one envelope to a receiver that has merged a full
// vector from rank 1 only, so a delta is acceptable from rank 1 and
// baseless from the others.
func fuzzHostile(t *testing.T, src int, pig []byte) {
	const n = 4
	r := New(0, n, nil, fuzzClock)
	first := &wire.Envelope{Kind: wire.KindApp, From: 1, To: 0, SendIndex: 1, Piggyback: wire.AppendVecSince(nil, vclock.Vec{0, 3, 1, 4}, 1, nil, 0)}
	if err := r.OnDeliver(first, 1); err != nil {
		t.Fatal(err)
	}
	before, snap := r.DependInterval(), r.AppendSnapshot(nil)
	e := &wire.Envelope{Kind: wire.KindApp, From: src, To: 0, SendIndex: 2, Piggyback: pig}
	_, errProbe := r.Deliverable(e, 1)
	errDeliver := r.OnDeliver(e, 2)
	if (errProbe == nil) != (errDeliver == nil) {
		t.Fatalf("Deliverable err %v, OnDeliver err %v", errProbe, errDeliver)
	}
	if errDeliver != nil {
		if !r.DependInterval().Equal(before) || !bytes.Equal(r.AppendSnapshot(nil), snap) {
			t.Fatalf("a refused piggyback changed the receiver: %v -> %v", before, r.DependInterval())
		}
		return
	}
	want := before.Clone()
	want[0]++
	p := wire.ReadVecPairs(pig, n, src)
	for k, v, ok := p.Next(); ok; k, v, ok = p.Next() {
		if k != 0 && v > want[k] {
			want[k] = v
		}
	}
	if !r.DependInterval().Equal(want) {
		t.Fatalf("accepted % x from %d: vector %v, want %v", pig, src, r.DependInterval(), want)
	}
}

// fuzzHistory plays the first 256 bytes of script on eight ranks —
// enough that a delta of several pairs beats the full vector: each
// byte's high nibble picks a sender and its low nibble a receiver; a
// sender equal to its receiver means "deliver the oldest message queued
// for it", from the lowest sender with one, else it sends. The cap keeps
// each run short enough for the fuzzer's minimizer.
func fuzzHistory(t *testing.T, script []byte) {
	const n = 8
	if len(script) > 256 {
		script = script[:256]
	}
	type queued struct {
		env  *wire.Envelope
		want vclock.Vec
	}
	ranks := make([]*TDI, n)
	for i := range ranks {
		ranks[i] = New(i, n, nil, fuzzClock)
	}
	var chans [n][n][]queued
	var sendIdx [n][n]int64
	for _, op := range script {
		a, b := int(op>>4)%n, int(op&0xF)%n
		if a != b {
			sendIdx[a][b]++
			pig, _ := ranks[a].PiggybackForSend(b, sendIdx[a][b])
			e := &wire.Envelope{Kind: wire.KindApp, From: a, To: b, SendIndex: sendIdx[a][b], Piggyback: pig}
			chans[a][b] = append(chans[a][b], queued{e, ranks[a].DependInterval()})
			continue
		}
		for from := 0; from < n; from++ {
			if len(chans[from][b]) == 0 {
				continue
			}
			q := chans[from][b][0]
			chans[from][b] = chans[from][b][1:]
			r := ranks[b]
			want := r.DependInterval()
			verdict, err := r.Deliverable(q.env, want[b])
			if err != nil || (verdict == proto.Deliver) != (want[b] >= q.want[b]) {
				t.Fatalf("%d<-%d: verdict %v err %v at count %d, demand %d", b, from, verdict, err, want[b], q.want[b])
			}
			want[b]++
			want.MergeExcept(q.want, b)
			if err := r.OnDeliver(q.env, want[b]); err != nil {
				t.Fatal(err)
			}
			if d, ok := r.DeliveryDemand(q.env); !ok || d != q.want[b] {
				t.Fatalf("%d<-%d: demand %d (%v), want %d", b, from, d, ok, q.want[b])
			}
			if got := r.DependInterval(); !got.Equal(want) {
				t.Fatalf("%d<-%d: vector %v, want its merge with the sender's %v: %v", b, from, got, q.want, want)
			}
			break
		}
	}
}
