package tag

import (
	"fmt"
	"testing"

	"windar/internal/agraph"
	"windar/internal/wire"
)

// feedHistory drives p through events deliveries from a feeder rank.
func feedHistory(b *testing.B, p *TAG, events int) {
	b.Helper()
	feeder := New(0, 8, nil, nil)
	for i := 1; i <= events; i++ {
		pig, _ := feeder.PiggybackForSend(1, int64(i))
		env := &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: int64(i), Piggyback: pig}
		if err := p.OnDeliver(env, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPiggybackForSend shows TAG's send cost growing with retained
// history — the structural contrast to TDI's flat vector (Fig. 7's
// divergence). The destination alternates so the known-set estimate
// cannot fully collapse the increment.
func BenchmarkPiggybackForSend(b *testing.B) {
	for _, events := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("history%d", events), func(b *testing.B) {
			p := New(1, 8, nil, nil)
			feedHistory(b, p, events)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh destination each time would be unbounded; use
				// a rotating pair to model steady-state neighbours.
				_, _ = p.PiggybackForSend(2+i%2, int64(i+1))
				// Invalidate the known-set periodically to keep the
				// traversal honest.
				if i%64 == 0 {
					p.knownTo[2+i%2] = make(map[agraph.NodeID]struct{})
				}
			}
		})
	}
}

// BenchmarkOnDeliver measures the merge + node insertion on delivery.
func BenchmarkOnDeliver(b *testing.B) {
	feeder := New(0, 8, nil, nil)
	pig, _ := feeder.PiggybackForSend(1, 1)
	b.ReportAllocs()
	p := New(1, 8, nil, nil)
	for i := 0; i < b.N; i++ {
		env := &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: int64(i + 1), Piggyback: pig}
		if err := p.OnDeliver(env, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot measures checkpoint serialization of the graph.
func BenchmarkSnapshot(b *testing.B) {
	p := New(1, 8, nil, nil)
	feedHistory(b, p, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.AppendSnapshot(nil)
	}
}
