package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"windar/internal/app"
)

// burstApp has rank 0 send a burst of burstLen 1 KiB messages to rank 1
// each step; rank 1 folds each into a checksum and answers with one
// acknowledgement, which rank 0 folds into its own. The burst is larger
// than a 4 KiB link buffer, so a non-blocking sender fills its link
// whenever rank 1 stops taking delivery.
type burstApp struct {
	rank, steps int
	sum         uint64
}

const burstLen = 8

func (a *burstApp) Steps() int { return a.steps }

func (a *burstApp) Step(env app.Env, s int) {
	if a.rank == 0 {
		msg := make([]byte, 1024)
		for i := 0; i < burstLen; i++ {
			copy(msg, u64(a.sum+uint64(s*burstLen+i)))
			env.Send(1, 0, msg)
		}
		data, _ := env.Recv(1, 1)
		a.sum = a.sum*31 + du64(data)
		return
	}
	for i := 0; i < burstLen; i++ {
		data, _ := env.Recv(0, 0)
		a.sum = a.sum*31 + du64(data[:8])
	}
	env.Send(0, 1, u64(a.sum))
}

func (a *burstApp) Snapshot() []byte { return u64(a.sum) }

func (a *burstApp) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("burstApp: bad snapshot length %d", len(b))
	}
	a.sum = du64(b)
	return nil
}

// parkedSenders returns the stacks of the goroutines blocked in a
// transport send that transmit began: an application whose link is full.
func parkedSenders() []string {
	var out []string
	for _, g := range goroutines() {
		if strings.Contains(g, "(*rankRuntime).transmit") && strings.Contains(g, "sync.(*Cond).Wait") {
			out = append(out, g)
		}
	}
	return out
}

// waitFor polls cond until it holds, failing t after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNonBlockingSendWaitsAtFullLink: a non-blocking send is buffered in
// the transport's bounded link, not in an unbounded queue of the rank's
// own. While its peer is stalled the sender fills the link and parks in
// the transport's Send; killing the sender unblocks that Send, and once
// the peer is unstalled the recovered rank reaches the fault-free state.
func TestNonBlockingSendWaitsAtFullLink(t *testing.T) {
	cfg := testConfig(2, TDI)
	cfg.Mode = NonBlocking
	cfg.Fabric.LinkBufferBytes = 4096
	factory := func(rank, n int) app.App { return &burstApp{rank: rank, steps: 20} }
	clean := run(t, cfg, factory, nil)
	faulty := run(t, cfg, factory, func(c *Cluster) {
		c.Transport().Stall(1)
		waitFor(t, "rank 0 parks in Send behind the stalled rank", func() bool { return len(parkedSenders()) == 1 })
		if err := c.Kill(0); err != nil {
			t.Fatalf("Kill(0): %v", err)
		}
		waitFor(t, "the killed sender's Send returns", func() bool { return len(parkedSenders()) == 0 })
		c.Transport().Unstall(1)
		if err := c.Recover(0); err != nil {
			t.Fatalf("Recover(0): %v", err)
		}
	})
	assertSameStates(t, clean, faulty, "sender killed at a full link")
}
