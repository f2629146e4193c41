package harness

import (
	"fmt"
	"testing"
	"time"

	"windar/internal/agraph"
	"windar/internal/app"
	"windar/internal/determinant"
	"windar/internal/obs"
	"windar/internal/transport"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// sinkApp: rank 0 receives a fixed number of messages with AnySource;
// every other rank idles. All traffic to rank 0 is injected by the test
// through the transport, so channel contents and timing are fully
// controlled — including corrupt frames on an otherwise idle channel.
type sinkApp struct {
	rank, recvs int
	sum         uint64
}

func (a *sinkApp) Steps() int {
	if a.rank == 0 {
		return 1
	}
	return 0
}

func (a *sinkApp) Step(env app.Env, s int) {
	for i := 0; i < a.recvs; i++ {
		data, _ := env.Recv(app.AnySource, 0)
		a.sum = a.sum*31 + du64(data)
	}
}

func (a *sinkApp) Snapshot() []byte { return u64(a.sum) }

func (a *sinkApp) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("sinkApp: bad snapshot length %d", len(b))
	}
	a.sum = du64(b)
	return nil
}

func sinkFactory(recvs int) app.Factory {
	return func(rank, n int) app.App {
		return &sinkApp{rank: rank, recvs: recvs}
	}
}

// validPig builds a well-formed empty piggyback for protocol p on an
// n-rank cluster, as an external peer with no history would send it
// (TDI's all-zero full vector reads the same from any sender).
func validPig(p ProtocolKind, n int) []byte {
	switch p {
	case TDI:
		return wire.AppendVecSince(nil, vclock.New(n), 0, nil, 0, -1)
	case TAG:
		return agraph.AppendNodes([]byte{0}, nil) // zero interval, no nodes
	default:
		return determinant.AppendSlice(nil, nil)
	}
}

// TestCorruptPiggybackHeldNotPanic injects envelopes with corrupt
// piggybacks — the observable of a damaged TCP frame — at the head of an
// otherwise idle channel, for every protocol. The rank must count the
// rejection, keep the message held, and complete through its other
// channels; before the ingest hardening this panicked the rank.
func TestCorruptPiggybackHeldNotPanic(t *testing.T) {
	corruptions := map[string][]byte{
		"truncated-varint": {0xFF},
		"short-vector":     wire.AppendVec(nil, []int64{7}), // to TDI: own-only, then a stray byte
		"delta-no-base":    {2, 1, 0, 2},                    // k = 1: increment 1, then v[0] = v[1] - 1
		"empty":            nil,
	}
	for _, p := range allProtocols {
		// A well-formed piggyback, then a stray byte: to TEL {0x00, 0x07}.
		corruptions["trailing-byte"] = append(validPig(p, 3), 0x07)
		for name, pig := range corruptions {
			if name == "delta-no-base" && p == TEL {
				continue // those bytes happen to be a well-formed TEL piggyback
			}
			p, name, pig := p, name, pig
			t.Run(string(p)+"/"+name, func(t *testing.T) {
				t.Parallel()
				const recvs = 4
				cfg := testConfig(3, p)
				c, err := NewCluster(cfg, sinkFactory(recvs))
				if err != nil {
					t.Fatalf("NewCluster: %v", err)
				}
				defer c.Close()
				if err := c.Start(); err != nil {
					t.Fatalf("Start: %v", err)
				}
				forged := &wire.Envelope{
					Kind: wire.KindApp, From: 1, To: 0,
					SendIndex: 1, Tag: 0, Piggyback: pig,
					Payload: u64(0xDEAD),
				}
				if err := c.tr.Send(forged, transport.SendOpts{}); err != nil {
					t.Fatalf("inject corrupt: %v", err)
				}
				// Rank 0 is blocked in Recv, so the corrupt arrival is
				// probed and rejected; wait for the counter before the
				// messages that let the rank finish.
				deadline := time.Now().Add(30 * time.Second)
				for c.Metrics().Total().IngestRejected < 1 {
					if time.Now().After(deadline) {
						t.Fatal("corrupt piggyback never counted as rejected")
					}
					time.Sleep(time.Millisecond)
				}
				for i := 1; i <= recvs; i++ {
					env := &wire.Envelope{
						Kind: wire.KindApp, From: 2, To: 0,
						SendIndex: int64(i), Tag: 0, Piggyback: validPig(p, 3),
						Payload: u64(uint64(i)),
					}
					if err := c.tr.Send(env, transport.SendOpts{}); err != nil {
						t.Fatalf("inject valid %d: %v", i, err)
					}
				}
				done := make(chan struct{})
				go func() { c.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(60 * time.Second):
					t.Fatal("cluster did not complete with a corrupt head queued")
				}
				if got := c.Metrics().Total().MsgsDelivered; got != recvs {
					t.Fatalf("MsgsDelivered = %d, want %d (the corrupt head must stay held)", got, recvs)
				}
			})
		}
	}
}

// TestKillCapturesPostStopDeliveredCount is the regression test for the
// Kill ordering bug: the failure point must be read after the rank is
// stopped, or deliveries racing between the read and the stop make the
// roll-forward target undercount. Killing mid-stream under load, the
// recorded failedAt must equal the dead runtime's frozen counter.
func TestKillCapturesPostStopDeliveredCount(t *testing.T) {
	for round := 0; round < 5; round++ {
		cfg := testConfig(4, TDI)
		c, err := NewCluster(cfg, ringFactory(40))
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		if err := c.Start(); err != nil {
			c.Close()
			t.Fatalf("Start: %v", err)
		}
		time.Sleep(time.Duration(round) * 500 * time.Microsecond)
		c.ranksMu.Lock()
		victim := c.ranks[2]
		c.ranksMu.Unlock()
		if err := c.Kill(2); err != nil {
			c.Close()
			t.Fatalf("Kill: %v", err)
		}
		victim.mu.Lock()
		frozen := victim.deliveredCount
		victim.mu.Unlock()
		c.ranksMu.Lock()
		recorded := c.failedAt[2]
		c.ranksMu.Unlock()
		if recorded != frozen {
			c.Close()
			t.Fatalf("round %d: failedAt = %d, frozen deliveredCount = %d", round, recorded, frozen)
		}
		if err := c.Recover(2); err != nil {
			c.Close()
			t.Fatalf("Recover: %v", err)
		}
		done := make(chan struct{})
		go func() { c.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("cluster did not complete after recovery")
		}
		c.Close()
	}
}

// TestSendBatchFramesRecorded runs a cluster under the defaults on the
// configured transport and checks the link layer recorded its
// batch-occupancy histogram (frames per link write).
func TestSendBatchFramesRecorded(t *testing.T) {
	reg := obs.NewRegistry(4)
	cfg := testConfig(4, TDI)
	cfg.Obs = reg
	run(t, cfg, ringFactory(20), nil)
	for _, f := range reg.Snapshot() {
		if f.Name != "send_batch_frames" {
			continue
		}
		if f.Total.Count == 0 {
			t.Fatal("send_batch_frames histogram recorded nothing")
		}
		return
	}
	t.Fatal("send_batch_frames family not registered")
}
