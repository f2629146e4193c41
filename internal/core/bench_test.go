package core

import (
	"fmt"
	"runtime"
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

// deliverFixture returns a TDI rank 0 of n and a message from rank 1
// carrying a full vector in the given form. For "relative" the channel
// first gets its base: one delivery of the absolute form.
func deliverFixture(tb testing.TB, n int, form string) (*TDI, *wire.Envelope) {
	tdi := New(0, n, nil, nil)
	v := vclock.New(n)
	v[1] = 5
	env := &wire.Envelope{Kind: wire.KindApp, From: 1, To: 0, SendIndex: 1,
		Piggyback: wire.AppendVecSince(nil, v, 1, nil, 0, -1)}
	if form == "relative" {
		if err := tdi.OnDeliver(env, 1); err != nil {
			tb.Fatal(err)
		}
		env.SendIndex, env.Piggyback = 2, wire.AppendVecSince(nil, v, 1, nil, 0, v[1]-1)
	}
	return tdi, env
}

// pigForms are the full-vector forms a delivery decodes: absolute (no
// channel base) and relative to the channel's base.
var pigForms = []string{"absolute", "relative"}

// BenchmarkOnDeliver measures the deliver-side merge.
func BenchmarkOnDeliver(b *testing.B) {
	for _, n := range []int{4, 32} {
		for _, form := range pigForms {
			b.Run(fmt.Sprintf("n%d/%s", n, form), func(b *testing.B) {
				tdi, env := deliverFixture(b, n, form)
				next := tdi.DependInterval()[0] + 1
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := tdi.OnDeliver(env, next); err != nil {
						b.Fatal(err)
					}
					next++
				}
			})
		}
	}
}

// BenchmarkDeliverable measures the delivery predicate (Algorithm 1 line
// 17): one vector decode and one comparison.
func BenchmarkDeliverable(b *testing.B) {
	for _, form := range pigForms {
		b.Run(form, func(b *testing.B) {
			tdi, env := deliverFixture(b, 32, form)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _ = tdi.Deliverable(env, 0)
			}
		})
	}
}

// TestDeliverAllocFree holds BenchmarkOnDeliver's and
// BenchmarkDeliverable's cases, and the send-side encode, to zero heap
// allocations per call. The count is exact over the whole window
// (testing.AllocsPerRun truncates, so it would read an allocation
// amortised over a few calls as none); the window itself costs a
// constant handful, however many calls it spans, so up to
// windowMallocs are forgiven: an allocation every 4 096 calls fails.
func TestDeliverAllocFree(t *testing.T) {
	const runs, windowMallocs = 65536, 8
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, n := range []int{4, 32} {
		for _, form := range pigForms {
			tdi, env := deliverFixture(t, n, form)
			next := tdi.DependInterval()[0] + 1
			var err error
			if got := mallocs(func() {
				if _, err = tdi.Deliverable(env, next); err == nil {
					err = tdi.OnDeliver(env, next)
				}
				next++
			}); got > windowMallocs || err != nil {
				t.Errorf("n%d/%s: Deliverable+OnDeliver: %d allocs in %d calls (%v), want 0", n, form, got, runs, err)
			}
			var buf []byte
			sendIndex := int64(0)
			if got := mallocs(func() {
				sendIndex++
				buf, _ = tdi.AppendPiggybackForSend(buf[:0], 1, sendIndex)
			}); got > windowMallocs {
				t.Errorf("n%d/%s: AppendPiggybackForSend: %d allocs in %d calls, want 0", n, form, got, runs)
			}
		}
	}
}
