package stable

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"windar/internal/clock"
)

func newTestStore() *Store {
	return NewStore(Options{})
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newTestStore()
	s.Put("k", []byte("value"))
	got, ok := s.Get("k")
	if !ok || string(got) != "value" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestGetMissing(t *testing.T) {
	s := newTestStore()
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get of missing key reported present")
	}
}

func TestPutCopiesData(t *testing.T) {
	s := newTestStore()
	buf := []byte("abc")
	s.Put("k", buf)
	buf[0] = 'X'
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatalf("store aliased caller buffer: %q", got)
	}
	// The returned copy must also be independent.
	got[0] = 'Y'
	again, _ := s.Get("k")
	if string(again) != "abc" {
		t.Fatalf("Get returned aliased internal buffer: %q", again)
	}
}

func TestOverwrite(t *testing.T) {
	s := newTestStore()
	s.Put("k", []byte("one"))
	s.Put("k", []byte("two"))
	got, _ := s.Get("k")
	if string(got) != "two" {
		t.Fatalf("overwrite: got %q", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s := newTestStore()
	s.Put("k", []byte("v"))
	s.Delete("k")
	if _, ok := s.Get("k"); ok {
		t.Fatal("key survived Delete")
	}
	s.Delete("k") // deleting absent key is a no-op
}

func TestKeysPrefixSorted(t *testing.T) {
	s := newTestStore()
	for _, k := range []string{"ckpt/2/b", "ckpt/1/a", "log/x", "ckpt/1/c"} {
		s.Put(k, nil)
	}
	got := s.Keys("ckpt/")
	want := []string{"ckpt/1/a", "ckpt/1/c", "ckpt/2/b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	if all := s.Keys(""); len(all) != 4 {
		t.Fatalf("Keys(\"\") = %v", all)
	}
}

func TestStats(t *testing.T) {
	s := newTestStore()
	s.Put("a", make([]byte, 10))
	s.Put("b", make([]byte, 5))
	s.Get("a")
	s.Get("missing")
	st := s.Stats()
	if st.Writes != 2 || st.Reads != 2 || st.BytesWritten != 15 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestStreamOpsCounted(t *testing.T) {
	// A release is one durable mutation however many entries it drops.
	s := newTestStore()
	for i := 0; i < 5; i++ {
		s.PutLazy("log/0/", make([]byte, 3))
	}
	s.Truncate("log/0/", 4)
	s.Rewind("log/0/", 4)
	n := 0
	s.Scan("log/0/", func(int64, []byte) error { n++; return nil })
	if st := s.Stats(); n != 0 || st.Writes != 5 || st.BytesWritten != 15 || st.Deletes != 2 || st.Reads != 1 {
		t.Fatalf("%d entries left, Stats = %+v", n, st)
	}
}

func TestDeleteCountedAndCharged(t *testing.T) {
	// The paper's stable-storage model charges every durable mutation;
	// a tombstone is a write like any other, so Delete must appear in
	// Stats and pay the write latency.
	s := newTestStore()
	s.Put("k", []byte("v"))
	s.Delete("k")
	if st := s.Stats(); st.Deletes != 1 {
		t.Fatalf("Stats.Deletes = %d, want 1", st.Deletes)
	}

	fake := clock.NewFake(time.Unix(0, 0))
	sl := NewStore(Options{Clock: fake, WriteLatency: time.Second})
	done := make(chan struct{})
	go func() {
		sl.Delete("k")
		close(done)
	}()
	for fake.Pending() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case <-done:
		t.Fatal("Delete returned before the write latency elapsed")
	default:
	}
	fake.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Delete never completed")
	}
}

func TestWriteLatencyCharged(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	s := NewStore(Options{Clock: fake, WriteLatency: time.Second})
	done := make(chan struct{})
	go func() {
		s.Put("k", []byte("v"))
		close(done)
	}()
	for fake.Pending() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case <-done:
		t.Fatal("Put returned before latency elapsed")
	default:
	}
	fake.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Put never completed")
	}
}

func TestReadLatencyCharged(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	s := NewStore(Options{Clock: fake, ReadLatency: time.Second})
	done := make(chan struct{})
	go func() {
		s.Get("k")
		close(done)
	}()
	for fake.Pending() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	fake.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Get never completed")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := newTestStore()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				key := fmt.Sprintf("k%d/%d", i, j)
				s.Put(key, []byte{byte(i), byte(j)})
				if v, ok := s.Get(key); !ok || v[0] != byte(i) {
					t.Errorf("lost write %s", key)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 1600 {
		t.Fatalf("Len = %d, want 1600", s.Len())
	}
}
