package harness

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"windar/internal/wire"
)

// TestShardFIFOMatchesSortedModel drives a delivery shard with the three
// arrival patterns the receiver sees — in-order sends, resent copies
// arriving out of order, and duplicates of pending or already delivered
// messages — interleaved with pops, against a plain sorted slice.
func TestShardFIFOMatchesSortedModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sh deliveryShard
		var model []int64 // pending send indices, sorted
		next := int64(1)  // the sender's next fresh index
		for op := 0; op < 20_000; op++ {
			var idx int64
			switch k := rng.Intn(10); {
			case k < 4: // in-order send
				idx = next
				next++
			case k < 5: // a send that overtook a few others (resend racing a parked original)
				idx = next + int64(rng.Intn(4))
				next = idx + 1
			case k < 6: // resend or duplicate of anything sent so far
				idx = 1 + rng.Int63n(next)
			default: // pop, when the head is the next deliverable index
				head := sh.front()
				if head == nil != (len(model) == 0) {
					t.Fatalf("seed %d op %d: front() = %v, model has %d pending", seed, op, head, len(model))
				}
				if head == nil {
					continue
				}
				if head.SendIndex != model[0] {
					t.Fatalf("seed %d op %d: head index %d, model %d", seed, op, head.SendIndex, model[0])
				}
				sh.pop()
				sh.delivered = model[0]
				model = model[1:]
				continue
			}
			i := sort.Search(len(model), func(i int) bool { return model[i] >= idx })
			want := idx > sh.delivered && (i == len(model) || model[i] != idx)
			if want {
				model = append(model, 0)
				copy(model[i+1:], model[i:])
				model[i] = idx
			}
			if got := sh.insert(&wire.Envelope{SendIndex: idx}); got != want {
				t.Fatalf("seed %d op %d: insert(%d) = %v, want %v", seed, op, idx, got, want)
			}
			if sh.pending() != len(model) {
				t.Fatalf("seed %d op %d: %d pending, model %d", seed, op, sh.pending(), len(model))
			}
			for j, env := range sh.q[sh.head:] {
				if env.SendIndex != model[j] {
					t.Fatalf("seed %d op %d: queue[%d] = %d, model %d", seed, op, j, env.SendIndex, model[j])
				}
			}
			for _, env := range sh.q[:sh.head] {
				if env != nil {
					t.Fatalf("seed %d op %d: popped slot still holds index %d", seed, op, env.SendIndex)
				}
			}
		}
	}
}

// TestShardFIFOSteadyStateAllocatesNothing: once the backing array has
// grown to the channel's backlog, a million insert/pop rounds — at a
// constant depth, and draining to empty every so often — never allocate.
func TestShardFIFOSteadyStateAllocatesNothing(t *testing.T) {
	const depth, rounds = 48, 1_000_000
	var sh deliveryShard
	envs := make([]wire.Envelope, depth+1) // recycled by hand: a live window never holds more
	idx := int64(0)
	push := func() {
		idx++
		env := &envs[idx%int64(len(envs))]
		env.SendIndex = idx
		if !sh.insert(env) {
			t.Fatalf("insert(%d) refused", idx)
		}
	}
	pop := func() {
		sh.delivered = sh.front().SendIndex
		sh.pop()
	}
	round := func(n int) {
		for i := 0; i < n; i++ {
			push()
			pop()
			if i%1000 == 999 { // drain and refill: the queue restarts at the front
				for sh.pending() > 0 {
					pop()
				}
				for sh.pending() < depth {
					push()
				}
			}
		}
	}
	for sh.pending() < depth {
		push()
	}
	round(10_000) // warm-up: the array reaches its steady capacity
	capBefore := cap(sh.q)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round(rounds)
	runtime.ReadMemStats(&after)
	if cap(sh.q) != capBefore {
		t.Errorf("backing array regrew in steady state: cap %d -> %d", capBefore, cap(sh.q))
	}
	// A handful of runtime-internal allocations may land in the window;
	// one per thousand rounds would already be a leak.
	if n := after.Mallocs - before.Mallocs; n > 100 {
		t.Errorf("%d allocations over %d steady-state rounds, want none", n, rounds)
	}
}
