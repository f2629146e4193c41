package fabric

import (
	"fmt"
	"testing"

	"windar/internal/transport"
	"windar/internal/wire"
)

// BenchmarkPingPong measures one round trip through the fabric (encode,
// link service, decode, inbox hand-off) without artificial latency.
func BenchmarkPingPong(b *testing.B) {
	f := New(Config{N: 2})
	defer f.Close()
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: int64(i + 1), Payload: payload}
		if err := f.Send(env, transport.SendOpts{}); err != nil {
			b.Fatal(err)
		}
		if _, ok := f.Recv(1); !ok {
			b.Fatal("recv failed")
		}
	}
}

// BenchmarkThroughputOneLink streams messages down one link as fast as
// the delivery goroutine can carry them.
func BenchmarkThroughputOneLink(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			f := New(Config{N: 2, LinkBufferBytes: 1 << 26})
			defer f.Close()
			payload := make([]byte, size)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					if _, ok := f.Recv(1); !ok {
						return
					}
				}
			}()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env := &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: int64(i + 1), Payload: payload}
				if err := f.Send(env, transport.SendOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}

// BenchmarkRendezvous measures the synchronous send path (Fig. 4a): the
// sender pays the full acceptance round trip per message.
func BenchmarkRendezvous(b *testing.B) {
	f := New(Config{N: 2})
	defer f.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := f.Recv(1); !ok {
				return
			}
		}
	}()
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: int64(i + 1), Payload: payload}
		if err := f.Send(env, transport.SendOpts{Rendezvous: true}); err != nil {
			b.Fatal(err)
		}
	}
	f.Close()
	<-done
}

// BenchmarkKillRevive measures failure-injection turnaround.
func BenchmarkKillRevive(b *testing.B) {
	f := New(Config{N: 4})
	defer f.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Kill(2)
		f.Revive(2)
	}
}
