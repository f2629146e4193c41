package harness

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/fabric"
	"windar/internal/transport"
	"windar/internal/wire"
)

// ownPayload is message s of the ownership stream: 16 bytes, lent from
// the receive envelope's inline scratch.
func ownPayload(s int) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, uint64(s)*0x9E3779B97F4A7C15+1)
	binary.LittleEndian.PutUint64(b[8:], ^uint64(s))
	return b
}

// The ownership stream: ownSteps messages, rank 1 killed once it has
// delivered ownKillAt. Every ownSyncEvery-th step is a handshake — rank 0
// waits for rank 1's ack before it sends on — and the step ownHoldAt
// after each handshake holds its lend while rank 0 runs ahead to the
// next one.
const (
	ownSteps     = 20_000
	ownKillAt    = ownSteps / 4
	ownSyncEvery = 64
	ownHoldAt    = 1
	tagOwnAck    = 1
)

// ownViolations counts each way the lent-payload contract can break.
type ownViolations struct {
	wrong      atomic.Int64 // a delivery differs from what was sent: a resend carried the receiver's scribbles
	touched    atomic.Int64 // a lent payload changed before the next Recv
	unpoisoned atomic.Int64 // a payload kept past the next Recv did not read poison
	stuck      atomic.Int64 // a hold waited in vain for the sender
}

// ownApp streams steps messages from rank 0 to rank 1. Rank 1 checks
// every delivery against what rank 0 sent, holds some lends while rank 0
// sends more (so concurrent ingest decodes into other envelopes), and
// abuses the odd payloads as the contract allows within a lend: it
// overwrites them in place and appends to them. It keeps each payload
// past the next Recv and, at a handshake, checks that it reads poison.
type ownApp struct {
	rank      int
	sent      *atomic.Int64 // rank 0's sends so far
	v         *ownViolations
	first     bool // the first incarnation of rank 1
	prev      []byte
	delivered int
}

func (a *ownApp) Steps() int {
	if a.rank > 1 {
		return 0
	}
	return ownSteps
}

func (a *ownApp) Step(env app.Env, s int) {
	handshake := s%ownSyncEvery == 0
	if a.rank == 0 {
		env.Send(1, 0, ownPayload(s))
		a.sent.Store(int64(s + 1))
		if handshake {
			env.Recv(1, tagOwnAck)
		}
		return
	}
	p, _ := env.Recv(0, 0)
	a.delivered++
	if !bytes.Equal(p, ownPayload(s)) {
		a.v.wrong.Add(1)
	}
	if handshake {
		// Rank 0 waits for the ack, so no ingest can take the recycled
		// envelope from the pool and decode into it. Only the first
		// incarnation looks, and only well before the kill: a later one
		// races the resends, which reuse the envelope.
		if a.first && s < ownKillAt/2 && a.prev != nil &&
			!bytes.Equal(a.prev, bytes.Repeat([]byte{wire.Poison}, len(a.prev))) {
			a.v.unpoisoned.Add(1)
		}
		env.Send(0, tagOwnAck, nil)
	}
	if s%ownSyncEvery == ownHoldAt {
		// Hold the lend while rank 0 sends up to the next handshake.
		target := int64(min(s-ownHoldAt+ownSyncEvery+1, ownSteps))
		deadline := time.Now().Add(10 * time.Second)
		for a.sent.Load() < target {
			if time.Now().After(deadline) {
				a.v.stuck.Add(1)
				break
			}
			runtime.Gosched()
		}
		if !bytes.Equal(p, ownPayload(s)) {
			a.v.touched.Add(1)
		}
	}
	if s%2 == 1 {
		for i := range p {
			p[i] = 0xEE
		}
		_ = append(p, bytes.Repeat([]byte{0xDD}, 32)...)
	}
	a.prev = p
}

func (a *ownApp) Snapshot() []byte     { return nil }
func (a *ownApp) Restore([]byte) error { return nil }

// TestDeliveredPayloadOwnership is the payload contract of Env.Recv end
// to end, on the mem inline path (CopyInto), the mem queued path and tcp
// (DecodeInto): a payload is lent until the application's next Recv.
// Within the lend it is the application's alone — concurrent ingest
// never touches it while rank 0 runs ahead — and the application may
// overwrite and append to it. Kept past the lend it reads poison
// (wire.Poison). It never aliases the sender's logged bytes: the
// receiver is killed after it has scribbled over thousands of payloads,
// and every resend from the sender's log must still carry the original.
func TestDeliveredPayloadOwnership(t *testing.T) {
	cases := []struct {
		name   string
		tk     transport.Kind
		fabric fabric.Config
	}{
		{"mem-inline", transport.Mem, fabric.Config{}},
		{"mem-queued", transport.Mem, fabric.Config{BaseLatency: time.Microsecond}},
		{"tcp", transport.TCP, fabric.Config{}},
	}
	// The cases run one at a time: the envelope pool is the process's,
	// and another cluster's ingest could take a recycled envelope while
	// rank 1 looks at the payload it kept.
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var v ownViolations
			var sent atomic.Int64
			var live atomic.Pointer[ownApp] // rank 1's current incarnation
			cfg := Config{N: 2, Transport: tc.tk, Fabric: tc.fabric, StallTimeout: 60 * time.Second}
			run(t, cfg, func(rank, n int) app.App {
				a := &ownApp{rank: rank, sent: &sent, v: &v}
				if rank == 1 {
					a.first = live.Load() == nil
					live.Store(a)
				}
				return a
			}, func(c *Cluster) {
				// Let the receiver scribble over a few thousand payloads,
				// then lose it: with no checkpoint the sender's whole log
				// is resent to the next incarnation.
				deadline := time.Now().Add(30 * time.Second)
				// The published count trails the app, so the kill lands
				// after step ownKillAt-1 has returned.
				for c.Metrics().Rank(1).Snapshot().MsgsDelivered < ownKillAt {
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
			if n := v.wrong.Load(); n != 0 {
				t.Errorf("%d deliveries differ from what was sent", n)
			}
			if n := v.touched.Load(); n != 0 {
				t.Errorf("%d lent payloads changed before the next Recv", n)
			}
			if n := v.unpoisoned.Load(); n != 0 {
				t.Errorf("%d payloads kept past the next Recv did not read poison", n)
			}
			if n := v.stuck.Load(); n != 0 {
				t.Errorf("%d holds waited 10s for the sender in vain", n)
			}
			if a := live.Load(); a.first || a.delivered != ownSteps {
				t.Errorf("final incarnation (first: %v) delivered %d payloads, want %d", a.first, a.delivered, ownSteps)
			}
		})
	}
}
