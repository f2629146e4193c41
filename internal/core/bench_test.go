package core

import (
	"fmt"
	"testing"

	"windar/internal/vclock"
	"windar/internal/wire"
)

// BenchmarkPiggybackForSend measures TDI's send-side tracking cost: a
// vector encode, independent of delivery history — the flat curve of the
// paper's Fig. 7.
func BenchmarkPiggybackForSend(b *testing.B) {
	for _, n := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			tdi := New(0, n, nil, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = tdi.PiggybackForSend(1, int64(i+1))
			}
		})
	}
}

// BenchmarkOnDeliver measures the deliver-side merge.
func BenchmarkOnDeliver(b *testing.B) {
	for _, n := range []int{4, 32} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			tdi := New(0, n, nil, nil)
			pig := wire.AppendVecSince(nil, vclock.New(n), 1, nil, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env := &wire.Envelope{
					Kind: wire.KindApp, From: 1, To: 0,
					SendIndex: int64(i + 1), Piggyback: pig,
				}
				if err := tdi.OnDeliver(env, int64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeliverable measures the delivery predicate (Algorithm 1 line
// 17): one vector decode and one comparison.
func BenchmarkDeliverable(b *testing.B) {
	tdi := New(0, 32, nil, nil)
	pig := wire.AppendVecSince(nil, vclock.New(32), 1, nil, 0)
	env := &wire.Envelope{Kind: wire.KindApp, From: 1, To: 0, SendIndex: 1, Piggyback: pig}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = tdi.Deliverable(env, 0)
	}
}
