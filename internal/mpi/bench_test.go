package mpi

import (
	"fmt"
	"sync"
	"testing"

	"windar/internal/app"
)

// benchWorld runs op on every rank of a fresh fake world b.N times.
func benchWorld(b *testing.B, n int, op func(env app.Env, round int)) {
	b.Helper()
	envs := newFakeWorld(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, e := range envs {
			wg.Add(1)
			go func(e *fakeEnv) {
				defer wg.Done()
				op(e, i)
			}(e)
		}
		wg.Wait()
	}
}

func BenchmarkAllreduce(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			vec := []float64{1, 2, 3, 4}
			bufs := make([]Buffers, n)
			benchWorld(b, n, func(env app.Env, round int) {
				_ = Allreduce(env, 2000, vec, Sum, &bufs[env.Rank()])
			})
		})
	}
}

func BenchmarkBcast(b *testing.B) {
	payload := make([]byte, 4096)
	benchWorld(b, 8, func(env app.Env, round int) {
		var data []byte
		if env.Rank() == 0 {
			data = payload
		}
		_ = Bcast(env, 0, 3000, data)
	})
}
