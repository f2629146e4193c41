package ckpt

import (
	"fmt"
	"testing"

	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/vclock"
)

// benchCheckpoint builds a checkpoint shaped like the named benchmark's:
// appImage bytes of state plus logItems retained messages.
func benchCheckpoint(appImage, logItems, payload int) *Checkpoint {
	c := &Checkpoint{
		Rank: 1, Step: 12,
		AppImage:         make([]byte, appImage),
		ProtoState:       make([]byte, 64),
		LastSendIndex:    vclock.New(16),
		LastDeliverIndex: vclock.New(16),
		DeliveredCount:   1000,
	}
	for i := 1; i <= logItems; i++ {
		c.Log = append(c.Log, proto.LogItem{
			Dest: i % 16, SendIndex: int64(i/16 + 1),
			Piggyback: make([]byte, 40), Payload: make([]byte, payload),
		})
	}
	return c
}

func BenchmarkEncodeCheckpoint(b *testing.B) {
	for _, c := range []struct {
		name              string
		app, items, bytes int
	}{
		{"luLike", 20480, 48, 480},   // small state, many small logged msgs
		{"btLike", 345600, 8, 28800}, // large state, few large logged msgs
	} {
		b.Run(c.name, func(b *testing.B) {
			cp := benchCheckpoint(c.app, c.items, c.bytes)
			data, err := Encode(cp)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(cp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeCheckpoint(b *testing.B) {
	cp := benchCheckpoint(65536, 32, 1024)
	data, err := Encode(cp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSaveLoad(b *testing.B) {
	for _, size := range []int{1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("%dKiB", size/1024), func(b *testing.B) {
			m := NewManager(stable.NewSim())
			cp := benchCheckpoint(size, 0, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cp.Step = 12 + i // distinct steps so the staleness guard never skips
				if err := m.Save(cp); err != nil {
					b.Fatal(err)
				}
				if _, ok, err := m.Load(1); err != nil || !ok {
					b.Fatalf("load: %v %v", ok, err)
				}
			}
		})
	}
}
