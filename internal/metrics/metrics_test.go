package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRankCountersAccumulate(t *testing.T) {
	var r Rank
	tl := r.Tally()
	tl.MsgSent(4, 10, 100)
	tl.MsgSent(4, 12, 200)
	tl.MsgDelivered()
	if s := r.Snapshot(); s.MsgsSent != 0 || s.MsgsDelivered != 0 {
		t.Fatalf("unpublished tally visible: %+v", s)
	}
	tl.Publish()
	tl.Publish() // an empty tally publishes nothing
	r.sendTrackNanos.Add(3000)
	r.deliverTrackNanos.Add(2000)
	r.ControlMsg()
	r.RepetitiveDiscarded()
	r.Resent()
	r.LogReleased(1)
	r.RecoveryDone(time.Millisecond)
	r.BlockedSend(time.Second)

	s := r.Snapshot()
	if s.MsgsSent != 2 || s.PiggybackIDs != 8 || s.PiggybackBytes != 22 || s.PayloadBytes != 300 {
		t.Fatalf("send counters wrong: %+v", s)
	}
	if s.MsgsDelivered != 1 || s.ControlMsgs != 1 || s.RepetitiveDiscarded != 1 || s.ResentMsgs != 1 {
		t.Fatalf("delivery counters wrong: %+v", s)
	}
	if s.TrackingTime() != 5*time.Microsecond {
		t.Fatalf("TrackingTime = %v", s.TrackingTime())
	}
	if s.LogItemsReleased != 1 || s.LogItemsLive != 0 {
		t.Fatalf("log counters: released %d, live %d (a gauge Rank.Snapshot cannot read)", s.LogItemsReleased, s.LogItemsLive)
	}
	if s.Recoveries != 1 || time.Duration(s.RecoveryNanos) != time.Millisecond {
		t.Fatalf("recovery counters wrong: %+v", s)
	}
	if time.Duration(s.BlockedSendNanos) != time.Second {
		t.Fatalf("blocked send wrong: %+v", s)
	}
}

func TestAvgPiggyback(t *testing.T) {
	var r Rank
	if got := r.Snapshot().AvgPiggybackIDs(); got != 0 {
		t.Fatalf("empty AvgPiggybackIDs = %v", got)
	}
	tl := r.Tally()
	tl.MsgSent(4, 8, 0)
	tl.MsgSent(8, 24, 0)
	tl.Publish()
	s := r.Snapshot()
	if got := s.AvgPiggybackIDs(); got != 6 {
		t.Fatalf("AvgPiggybackIDs = %v, want 6", got)
	}
	if got := s.AvgPiggybackBytes(); got != 16 {
		t.Fatalf("AvgPiggybackBytes = %v, want 16", got)
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{MsgsSent: 1, PiggybackIDs: 4, RecoveryNanos: 10}
	b := Snapshot{MsgsSent: 2, PiggybackIDs: 8, RecoveryNanos: 5}
	c := a.Add(b)
	if c.MsgsSent != 3 || c.PiggybackIDs != 12 || c.RecoveryNanos != 15 {
		t.Fatalf("Add = %+v", c)
	}
	// Add must not mutate its receiver.
	if a.MsgsSent != 1 {
		t.Fatal("Add mutated receiver")
	}
}

func TestCollectorTotal(t *testing.T) {
	c := NewCollector(3)
	for i := 0; i < 3; i++ {
		tl := c.Rank(i).Tally()
		if i < 2 {
			tl.MsgSent(4, 8, 16)
		} else {
			tl.MsgDelivered()
		}
		tl.Publish()
	}
	tot := c.Total()
	if tot.MsgsSent != 2 || tot.MsgsDelivered != 1 {
		t.Fatalf("Total = %+v", tot)
	}
	per := c.PerRank()
	if len(per) != 3 || per[0].MsgsSent != 1 || per[2].MsgsDelivered != 1 {
		t.Fatalf("PerRank = %+v", per)
	}
	if c.N() != 3 {
		t.Fatalf("N = %d", c.N())
	}
}

func TestRankConcurrentSafety(t *testing.T) {
	var r Rank
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := r.Tally()
			for j := 0; j < per; j++ {
				tl.MsgSent(4, 8, 1)
				tl.MsgDelivered()
				if j%7 == 0 {
					tl.Publish()
				}
			}
			tl.Publish()
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.MsgsSent != workers*per || s.MsgsDelivered != workers*per {
		t.Fatalf("lost updates: %+v", s)
	}
	if s.PiggybackIDs != 4*workers*per {
		t.Fatalf("piggyback IDs = %d", s.PiggybackIDs)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "Fig. 6",
		Header: []string{"procs", "TDI", "TAG"},
	}
	tab.AddRow("4", "4.0", "120.5")
	tab.AddRow("32", "32.0", "4000")
	out := tab.String()
	if !strings.Contains(out, "Fig. 6") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	// Columns must align: header and first row start of col 2 identical.
	hIdx := strings.Index(lines[1], "TDI")
	rIdx := strings.Index(lines[3], "4.0")
	if hIdx != rIdx {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestF(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		3.5:    "3.500",
		42.19:  "42.2",
		1234.6: "1235",
	}
	for v, want := range cases {
		if got := F(v); got != want {
			t.Errorf("F(%v) = %q, want %q", v, got, want)
		}
	}
}
