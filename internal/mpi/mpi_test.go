package mpi

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"windar/internal/app"
)

// fakeEnv is a channel-backed in-memory Env for exercising the collective
// algorithms without the full harness. Strict per-pair FIFO, like the
// harness.
type fakeEnv struct {
	rank, n int
	ch      [][]chan fakeMsg
}

type fakeMsg struct {
	tag  int32
	data []byte
}

func newFakeWorld(n int) []*fakeEnv {
	ch := make([][]chan fakeMsg, n)
	for i := range ch {
		ch[i] = make([]chan fakeMsg, n)
		for j := range ch[i] {
			ch[i][j] = make(chan fakeMsg, 1024)
		}
	}
	envs := make([]*fakeEnv, n)
	for r := range envs {
		envs[r] = &fakeEnv{rank: r, n: n, ch: ch}
	}
	return envs
}

func (e *fakeEnv) Rank() int { return e.rank }
func (e *fakeEnv) N() int    { return e.n }

func (e *fakeEnv) Send(dest int, tag int32, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	e.ch[e.rank][dest] <- fakeMsg{tag: tag, data: cp}
}

func (e *fakeEnv) Recv(source int, tag int32) ([]byte, int) {
	if source == app.AnySource {
		panic("fakeEnv: collectives must not use AnySource")
	}
	m := <-e.ch[source][e.rank]
	if tag != app.AnyTag && m.tag != tag {
		panic(fmt.Sprintf("fakeEnv: rank %d expected tag %d from %d, got %d", e.rank, tag, source, m.tag))
	}
	return m.data, source
}

// runWorld executes f on every rank concurrently and waits.
func runWorld(t *testing.T, n int, f func(env app.Env)) {
	t.Helper()
	envs := newFakeWorld(n)
	var wg sync.WaitGroup
	for _, e := range envs {
		wg.Add(1)
		go func(e *fakeEnv) {
			defer wg.Done()
			f(e)
		}(e)
	}
	wg.Wait()
}

func TestBcastAllRootsAndSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 9} {
		for root := 0; root < n; root++ {
			n, root := n, root
			t.Run(fmt.Sprintf("n%d_root%d", n, root), func(t *testing.T) {
				var mu sync.Mutex
				got := make([][]byte, n)
				want := []byte{1, 2, 3, 4, 5}
				runWorld(t, n, func(env app.Env) {
					var data []byte
					if env.Rank() == root {
						data = want
					}
					out := Bcast(env, root, 7, data)
					mu.Lock()
					got[env.Rank()] = out
					mu.Unlock()
				})
				for r, g := range got {
					if !bytes.Equal(g, want) {
						t.Fatalf("rank %d got %v", r, g)
					}
				}
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		for root := 0; root < n; root += 2 {
			n, root := n, root
			t.Run(fmt.Sprintf("n%d_root%d", n, root), func(t *testing.T) {
				var res []float64
				var mu sync.Mutex
				runWorld(t, n, func(env app.Env) {
					r := float64(env.Rank())
					out := Reduce(env, root, 11, []float64{r, r * r, 1}, Sum, new(Buffers))
					if env.Rank() == root {
						mu.Lock()
						res = out
						mu.Unlock()
					} else if out != nil {
						t.Errorf("non-root rank %d got %v", env.Rank(), out)
					}
				})
				var s0, s1 float64
				for r := 0; r < n; r++ {
					s0 += float64(r)
					s1 += float64(r * r)
				}
				want := []float64{s0, s1, float64(n)}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("Reduce = %v, want %v", res, want)
				}
			})
		}
	}
}

func TestReduceMaxMin(t *testing.T) {
	const n = 5
	var maxRes, minRes []float64
	var mu sync.Mutex
	runWorld(t, n, func(env app.Env) {
		v := []float64{float64(env.Rank()), -float64(env.Rank())}
		var bx, bn Buffers
		mx := Reduce(env, 0, 21, v, Max, &bx)
		mn := Reduce(env, 0, 22, v, Min, &bn)
		if env.Rank() == 0 {
			mu.Lock()
			maxRes, minRes = mx, mn
			mu.Unlock()
		}
	})
	if !reflect.DeepEqual(maxRes, []float64{4, 0}) {
		t.Fatalf("Max = %v", maxRes)
	}
	if !reflect.DeepEqual(minRes, []float64{0, -4}) {
		t.Fatalf("Min = %v", minRes)
	}
}

func TestAllreduceEveryRankGetsResult(t *testing.T) {
	const n = 7
	results := make([][]float64, n)
	var mu sync.Mutex
	runWorld(t, n, func(env app.Env) {
		var b Buffers
		first := Allreduce(env, 31, []float64{1, float64(env.Rank())}, Sum, &b)
		out := Allreduce(env, 33, []float64{1, float64(env.Rank())}, Sum, &b)
		if &first[0] != &out[0] {
			t.Errorf("rank %d: the second Allreduce did not reuse its buffers", env.Rank())
		}
		mu.Lock()
		results[env.Rank()] = out
		mu.Unlock()
	})
	want := []float64{7, 21}
	for r, res := range results {
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("rank %d Allreduce = %v, want %v", r, res, want)
		}
	}
}

func TestF64sRoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		// NaN != NaN breaks DeepEqual; compare bit patterns instead.
		got := DecodeF64s(nil, EncodeF64s(nil, v))
		if len(got) != len(v) {
			return false
		}
		for i := range v {
			if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHelpers(t *testing.T) {
	if highestBit(1) != 1 || highestBit(5) != 4 || highestBit(8) != 8 {
		t.Fatal("highestBit")
	}
	if nextPow2(1) != 1 || nextPow2(3) != 4 || nextPow2(8) != 8 {
		t.Fatal("nextPow2")
	}
}
