package stable

import (
	"fmt"
	"testing"
)

func BenchmarkPutGet(b *testing.B) {
	for _, size := range []int{1 << 10, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size/1024), func(b *testing.B) {
			s := NewSim()
			data := make([]byte, size)
			b.SetBytes(int64(2 * size)) // one write + one read per op
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Put("k", data)
				if _, ok := s.Get("k"); !ok {
					b.Fatal("lost write")
				}
			}
		})
	}
}

func BenchmarkKeysPrefix(b *testing.B) {
	s := NewSim()
	for i := 0; i < 256; i++ {
		s.Put(fmt.Sprintf("ckpt/%08d", i), nil)
		s.Put(fmt.Sprintf("log/%08d", i), nil)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := s.Keys("ckpt/"); len(got) != 256 {
			b.Fatalf("keys = %d", len(got))
		}
	}
}
