package proto

import (
	"fmt"
	"testing"
)

// BenchmarkLogAppendRelease measures the sender-log hot path: append on
// every send, amortized release on CHECKPOINT_ADVANCE.
func BenchmarkLogAppendRelease(b *testing.B) {
	payload := make([]byte, 256)
	b.ReportAllocs()
	l := NewLog()
	idx := int64(0)
	for i := 0; i < b.N; i++ {
		idx++
		l.Append(LogItem{Dest: i % 8, SendIndex: idx, Payload: payload})
		if i%64 == 63 {
			l.Release(i%8, idx)
		}
	}
}

// BenchmarkLogItemsFor measures the resend lookup a ROLLBACK triggers.
func BenchmarkLogItemsFor(b *testing.B) {
	for _, retained := range []int{16, 1024} {
		b.Run(fmt.Sprintf("retained%d", retained), func(b *testing.B) {
			l := NewLog()
			for i := 1; i <= retained; i++ {
				l.Append(LogItem{Dest: 1, SendIndex: int64(i), Payload: []byte("x")})
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = l.ItemsFor(1, int64(retained/2))
			}
		})
	}
}

// BenchmarkLogView measures taking the checkpoint's view of the log.
func BenchmarkLogView(b *testing.B) {
	l := NewLog()
	for d := 0; d < 8; d++ {
		for i := 1; i <= 64; i++ {
			l.Append(LogItem{Dest: d, SendIndex: int64(i), Payload: make([]byte, 64)})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.View()
	}
}
