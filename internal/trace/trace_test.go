package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderCollectsInOrder(t *testing.T) {
	var r Recorder
	r.OnSend(0, 1, 1, false)
	r.OnDeliver(1, 0, 1, 1, -1)
	r.OnCheckpoint(1, 5, 1)
	r.OnKill(1)
	r.OnRecover(1, 5)
	r.OnRecoveryComplete(1, time.Millisecond)
	evs := r.Events()
	if len(evs) != 6 || r.Len() != 6 {
		t.Fatalf("got %d events", len(evs))
	}
	kinds := []EventKind{EvSend, EvDeliver, EvCheckpoint, EvKill, EvRecover, EvRecoveryComplete}
	for i, e := range evs {
		if e.Kind != kinds[i] || e.Seq != i {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

func TestRecorderConcurrentSafety(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.OnSend(i, (i+1)%8, int64(j+1), false)
			}
		}(i)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("lost events: %d", r.Len())
	}
}

func TestValidateCleanRun(t *testing.T) {
	var r Recorder
	// 0 sends 3 messages to 1, all delivered in order.
	for i := int64(1); i <= 3; i++ {
		r.OnSend(0, 1, i, false)
		r.OnDeliver(1, 0, i, i, -1)
	}
	if problems := r.Validate(true); len(problems) != 0 {
		t.Fatalf("clean run flagged: %v", problems)
	}
}

func TestValidateDetectsDuplicate(t *testing.T) {
	var r Recorder
	r.OnSend(0, 1, 1, false)
	r.OnDeliver(1, 0, 1, 1, -1)
	r.OnDeliver(1, 0, 1, 2, -1) // duplicate delivery
	problems := r.Validate(false)
	if !hasRule(problems, "no-duplicate") {
		t.Fatalf("duplicate not detected: %v", problems)
	}
}

func TestValidateDetectsFIFOViolation(t *testing.T) {
	var r Recorder
	r.OnSend(0, 1, 1, false)
	r.OnSend(0, 1, 2, false)
	r.OnDeliver(1, 0, 2, 1, -1)
	r.OnDeliver(1, 0, 1, 2, -1)
	problems := r.Validate(false)
	if !hasRule(problems, "fifo-order") {
		t.Fatalf("FIFO violation not detected: %v", problems)
	}
}

func TestValidateDetectsLoss(t *testing.T) {
	var r Recorder
	r.OnSend(0, 1, 1, false)
	r.OnSend(0, 1, 2, false)
	r.OnDeliver(1, 0, 1, 1, -1)
	// Message 2 never delivered.
	problems := r.Validate(true)
	if !hasRule(problems, "no-loss") {
		t.Fatalf("loss not detected: %v", problems)
	}
	// Without the finished flag, in-flight messages are fine.
	if problems := r.Validate(false); len(problems) != 0 {
		t.Fatalf("unfinished run flagged: %v", problems)
	}
}

func TestValidateRollbackForgivesReplay(t *testing.T) {
	// Rank 1 delivers msg 1, checkpoints, delivers msg 2, dies, and the
	// incarnation re-delivers msg 2: not a duplicate.
	var r Recorder
	r.OnSend(0, 1, 1, false)
	r.OnSend(0, 1, 2, false)
	r.OnDeliver(1, 0, 1, 1, -1)
	r.OnCheckpoint(1, 5, 1)
	r.OnDeliver(1, 0, 2, 2, -1)
	r.OnKill(1)
	r.OnRecover(1, 5)
	r.OnSend(0, 1, 2, true) // retransmission from the log
	r.OnDeliver(1, 0, 2, 2, -1)
	problems := r.Validate(true)
	if len(problems) != 0 {
		t.Fatalf("legitimate replay flagged: %v", problems)
	}
}

func TestValidateRollbackForgivesResentSends(t *testing.T) {
	// The failed sender re-executes a send the receiver already
	// delivered; the receiver discards it, so only one delivery shows.
	var r Recorder
	r.OnSend(1, 0, 1, false)
	r.OnDeliver(0, 1, 1, 1, -1)
	r.OnKill(1)
	r.OnRecover(1, 0)
	r.OnSend(1, 0, 1, false) // regenerated during rolling forward
	problems := r.Validate(true)
	if len(problems) != 0 {
		t.Fatalf("regenerated send flagged: %v", problems)
	}
}

func TestValidateDuplicateSurvivingRecoveryCaught(t *testing.T) {
	// A delivery duplicated across a recovery (incarnation re-delivers
	// something covered by the checkpoint) must be flagged.
	var r Recorder
	r.OnSend(0, 1, 1, false)
	r.OnDeliver(1, 0, 1, 1, -1)
	r.OnCheckpoint(1, 5, 1) // checkpoint covers delivery #1
	r.OnKill(1)
	r.OnRecover(1, 5)
	r.OnDeliver(1, 0, 1, 2, -1) // bug: re-delivered a checkpointed message
	problems := r.Validate(false)
	if !hasRule(problems, "no-duplicate") && !hasRule(problems, "fifo-order") {
		t.Fatalf("post-recovery duplicate not detected: %v", problems)
	}
}

func TestProblemString(t *testing.T) {
	p := Problem{Rule: "no-loss", Detail: "x"}
	if !strings.Contains(p.String(), "no-loss") {
		t.Fatal("Problem.String")
	}
}

func hasRule(problems []Problem, rule string) bool {
	for _, p := range problems {
		if p.Rule == rule {
			return true
		}
	}
	return false
}
