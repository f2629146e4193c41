package harness

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/fabric"
	"windar/internal/transport"
)

// ownPayload is message s of the ownership stream: 16 bytes, so a
// thousand of them share one receive-arena chunk.
func ownPayload(s int) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(s)*0x9E3779B97F4A7C15+1)
	binary.LittleEndian.PutUint64(b[8:], ^uint64(s))
	return b
}

// ownApp streams steps messages from rank 0 to rank 1. Rank 1 keeps
// every delivered payload, checks each against what rank 0 sent, and
// abuses the odd ones as an application is entitled to: it overwrites
// them in place and appends to them. The even ones are their arena
// neighbours and must never change. bad counts every violation.
type ownApp struct {
	rank, steps int
	kept        [][]byte
	bad         *atomic.Int64
}

func (a *ownApp) Steps() int {
	if a.rank > 1 {
		return 0
	}
	return a.steps
}

func (a *ownApp) Step(env app.Env, s int) {
	if a.rank == 0 {
		env.Send(1, 0, ownPayload(s))
		return
	}
	p, _ := env.Recv(0, 0)
	if !bytes.Equal(p, ownPayload(s)) {
		a.bad.Add(1) // a resend would carry the receiver's scribbles here
	}
	a.kept = append(a.kept, p)
	if s%2 == 1 {
		for i := range p {
			p[i] = 0xEE
		}
		_ = append(p, bytes.Repeat([]byte{0xDD}, 32)...)
	}
	if s != a.steps-1 {
		return
	}
	// After every later delivery on the link: nothing handed out earlier
	// was rewritten, by a neighbour's abuse or by a reused chunk.
	for i, p := range a.kept {
		want := ownPayload(i)
		if i%2 == 1 {
			want = bytes.Repeat([]byte{0xEE}, 16)
		}
		if !bytes.Equal(p, want) {
			a.bad.Add(1)
		}
	}
}

func (a *ownApp) Snapshot() []byte     { return nil }
func (a *ownApp) Restore([]byte) error { return nil }

// TestDeliveredPayloadOwnership is the payload ownership rule end to
// end, on the mem inline path (CopyIntoArena), the mem queued path and
// tcp (DecodeInto with the link's or connection's arena): a delivered
// payload is the receiver's own immutable-by-others copy — unchanged
// after 10^5 later deliveries on the same link, unaffected by the
// application overwriting or appending to its neighbours — and never
// aliases the sender's logged bytes: the receiver is killed after it has
// scribbled over thousands of payloads, and every resend from the
// sender's log must still carry the original bytes.
func TestDeliveredPayloadOwnership(t *testing.T) {
	cases := []struct {
		name   string
		tk     transport.Kind
		fabric fabric.Config
		steps  int
	}{
		{"mem-inline", transport.Mem, fabric.Config{}, 100_000},
		{"mem-queued", transport.Mem, fabric.Config{BaseLatency: time.Microsecond}, 20_000},
		{"tcp", transport.TCP, fabric.Config{}, 100_000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var bad atomic.Int64
			var live atomic.Pointer[ownApp] // rank 1's current incarnation
			cfg := Config{N: 2, Transport: tc.tk, Fabric: tc.fabric, StallTimeout: 60 * time.Second}
			run(t, cfg, func(rank, n int) app.App {
				a := &ownApp{rank: rank, steps: tc.steps, bad: &bad}
				if rank == 1 {
					live.Store(a)
				}
				return a
			}, func(c *Cluster) {
				// Let the receiver scribble over a few thousand payloads,
				// then lose it: with no checkpoint the sender's whole log
				// is resent to the next incarnation.
				deadline := time.Now().Add(30 * time.Second)
				for c.Metrics().Rank(1).Snapshot().MsgsDelivered < int64(tc.steps/4) {
					if time.Now().After(deadline) {
						t.Error("receiver made no progress")
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
				if err := c.KillAndRecover(1, 0); err != nil {
					t.Errorf("KillAndRecover(1): %v", err)
				}
			})
			if n := bad.Load(); n != 0 {
				t.Errorf("%d payload ownership violations", n)
			}
			if a := live.Load(); len(a.kept) != tc.steps {
				t.Errorf("final incarnation kept %d payloads, want %d", len(a.kept), tc.steps)
			}
		})
	}
}
