package stable

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// conformanceBackends returns a fresh instance of every Backend under a
// name, so each contract test runs against all of them.
func conformanceBackends(t *testing.T) map[string]Backend {
	t.Helper()
	disk, err := OpenDisk(DiskOptions{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { disk.Close() })
	return map[string]Backend{"sim": NewSim(), "disk": disk}
}

func TestConformanceRoundTrip(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Put("k", []byte("value")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, ok := b.Get("k")
			if !ok || string(got) != "value" {
				t.Fatalf("Get = %q, %v", got, ok)
			}
			if _, ok := b.Get("missing"); ok {
				t.Fatal("Get of missing key reported present")
			}
			// A second Put replaces the value in place.
			if err := b.Put("k", []byte("second")); err != nil {
				t.Fatalf("overwriting Put: %v", err)
			}
			if got, _ := b.Get("k"); string(got) != "second" {
				t.Fatalf("Get after overwrite = %q", got)
			}
			if b.Len() != 1 {
				t.Fatalf("Len = %d", b.Len())
			}
		})
	}
}

func TestConformanceCopies(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			buf := []byte("abc")
			if err := b.Put("k", buf); err != nil {
				t.Fatalf("Put: %v", err)
			}
			buf[0] = 'X'
			got, _ := b.Get("k")
			if string(got) != "abc" {
				t.Fatalf("backend aliased caller buffer: %q", got)
			}
			got[0] = 'Y'
			again, _ := b.Get("k")
			if string(again) != "abc" {
				t.Fatalf("Get returned aliased internal buffer: %q", again)
			}
		})
	}
}

func TestConformanceDelete(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			b.Put("k", []byte("v"))
			if err := b.Delete("k"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, ok := b.Get("k"); ok {
				t.Fatal("key survived Delete")
			}
			if err := b.Delete("k"); err != nil {
				t.Fatalf("Delete of absent key: %v", err)
			}
		})
	}
}

func TestConformanceRename(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			b.Put("old", []byte("v"))
			b.Put("new", []byte("stale"))
			if err := b.Rename("old", "new"); err != nil {
				t.Fatalf("Rename: %v", err)
			}
			if _, ok := b.Get("old"); ok {
				t.Fatal("old key survived Rename")
			}
			got, ok := b.Get("new")
			if !ok || string(got) != "v" {
				t.Fatalf("Get(new) = %q, %v", got, ok)
			}
			if err := b.Rename("ghost", "x"); err == nil {
				t.Fatal("Rename of missing key succeeded")
			}
			if err := b.Rename("new", "new"); err != nil {
				t.Fatalf("Rename onto itself: %v", err)
			}
			if got, ok := b.Get("new"); !ok || string(got) != "v" {
				t.Fatalf("Rename onto itself lost the value: %q, %v", got, ok)
			}
		})
	}
}

func TestConformanceKeysOrdering(t *testing.T) {
	// Keys must come back sorted regardless of insertion order or, for
	// the disk backend, which shard file each key landed in.
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"ckpt/00000002", "slog/003/001/aa", "ckpt/00000001", "slog/001/002/bb", "tel/002/cc"} {
				if err := b.Put(k, []byte(k)); err != nil {
					t.Fatalf("Put(%s): %v", k, err)
				}
			}
			got := b.Keys("")
			want := []string{"ckpt/00000001", "ckpt/00000002", "slog/001/002/bb", "slog/003/001/aa", "tel/002/cc"}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Keys = %v, want %v", got, want)
			}
			if got := b.Keys("slog/"); !reflect.DeepEqual(got, []string{"slog/001/002/bb", "slog/003/001/aa"}) {
				t.Fatalf("Keys(slog/) = %v", got)
			}
		})
	}
}

func TestConformanceLazyThenSync(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.PutLazy("k", []byte("lazy")); err != nil {
				t.Fatalf("PutLazy: %v", err)
			}
			// Lazy writes are immediately visible, durably or not.
			if got, ok := b.Get("k"); !ok || string(got) != "lazy" {
				t.Fatalf("Get after PutLazy = %q, %v", got, ok)
			}
			if err := b.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
		})
	}
}

func TestConformanceConcurrentPutGet(t *testing.T) {
	// Hammer each backend from 16 goroutines; run under -race this
	// doubles as the data-race check the contract promises.
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < 50; j++ {
						key := fmt.Sprintf("slog/%03d/%03d/%04d", i, j%4, j)
						if err := b.PutLazy(key, []byte{byte(i), byte(j)}); err != nil {
							t.Errorf("PutLazy %s: %v", key, err)
							return
						}
						if v, ok := b.Get(key); !ok || v[0] != byte(i) {
							t.Errorf("lost write %s", key)
							return
						}
						if j%8 == 0 {
							if err := b.Delete(key); err != nil {
								t.Errorf("Delete %s: %v", key, err)
								return
							}
						}
					}
				}(i)
			}
			wg.Wait()
			if err := b.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			want := 16 * (50 - 50/8 - 1)
			if n := b.Len(); n != want {
				t.Fatalf("Len = %d, want %d", n, want)
			}
		})
	}
}

// scanAll reads a stream back as "seq:data" strings.
func scanAll(t *testing.T, b Backend, stream string) []string {
	t.Helper()
	var out []string
	err := b.Scan(stream, func(seq int64, data []byte) error {
		out = append(out, fmt.Sprintf("%d:%s", seq, data))
		return nil
	})
	if err != nil {
		t.Fatalf("Scan(%s): %v", stream, err)
	}
	return out
}

func TestConformanceStreams(t *testing.T) {
	const st = "slog/001/002/"
	appendN := func(t *testing.T, b Backend, vals ...string) {
		t.Helper()
		for _, v := range vals {
			if err := b.PutLazy(st, []byte(v)); err != nil {
				t.Fatalf("PutLazy(%s): %v", st, err)
			}
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, b Backend)
		want []string
	}{
		{"scan of an empty stream", func(t *testing.T, b Backend) {}, nil},
		{"appends are numbered from 1 in order", func(t *testing.T, b Backend) {
			appendN(t, b, "a", "b", "c")
		}, []string{"1:a", "2:b", "3:c"}},
		{"durable append joins the same numbering", func(t *testing.T, b Backend) {
			appendN(t, b, "a")
			if err := b.Put(st, []byte("b")); err != nil {
				t.Fatal(err)
			}
		}, []string{"1:a", "2:b"}},
		{"truncate releases a prefix", func(t *testing.T, b Backend) {
			appendN(t, b, "a", "b", "c", "d")
			b.Truncate(st, 2)
		}, []string{"3:c", "4:d"}},
		{"truncate is idempotent and never moves back", func(t *testing.T, b Backend) {
			appendN(t, b, "a", "b", "c")
			b.Truncate(st, 2)
			b.Truncate(st, 2)
			b.Truncate(st, 1)
			b.Truncate(st, -5)
		}, []string{"3:c"}},
		{"numbering continues after a release", func(t *testing.T, b Backend) {
			appendN(t, b, "a", "b")
			b.Truncate(st, 2)
			appendN(t, b, "c")
		}, []string{"3:c"}},
		{"truncate past the tail kills the entries up to it on arrival", func(t *testing.T, b Backend) {
			appendN(t, b, "a", "b")
			b.Truncate(st, 4)
			appendN(t, b, "c", "d", "e")
		}, []string{"5:e"}},
		{"rewind discards a suffix and renumbers from there", func(t *testing.T, b Backend) {
			appendN(t, b, "a", "b", "c", "d")
			b.Rewind(st, 2)
			appendN(t, b, "C")
		}, []string{"1:a", "2:b", "3:C"}},
		{"rewind to the tail changes nothing", func(t *testing.T, b Backend) {
			appendN(t, b, "a", "b")
			b.Rewind(st, 2)
			appendN(t, b, "c")
		}, []string{"1:a", "2:b", "3:c"}},
		{"rewind past the tail is rejected", func(t *testing.T, b Backend) {
			appendN(t, b, "a")
			if err := b.Rewind(st, 2); err == nil {
				t.Error("Rewind beyond the tail succeeded")
			}
			appendN(t, b, "b")
		}, []string{"1:a", "2:b"}},
		{"rewind below the release point leaves the dead range dead", func(t *testing.T, b Backend) {
			appendN(t, b, "a", "b", "c", "d")
			b.Truncate(st, 3)
			b.Rewind(st, 1)
			appendN(t, b, "B", "C", "D", "E")
		}, []string{"4:D", "5:E"}},
		{"streams do not share numbering", func(t *testing.T, b Backend) {
			appendN(t, b, "a")
			b.PutLazy("slog/001/003/", []byte("other"))
			appendN(t, b, "b")
		}, []string{"1:a", "2:b"}},
	}
	for name, mk := range map[string]func(*testing.T) Backend{
		"sim":  func(t *testing.T) Backend { return NewSim() },
		"disk": func(t *testing.T) Backend { return openDisk(t, t.TempDir()) },
	} {
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				b := mk(t)
				defer b.Close()
				c.run(t, b)
				if got := scanAll(t, b, st); !reflect.DeepEqual(got, c.want) {
					t.Fatalf("Scan = %v, want %v", got, c.want)
				}
			})
		}
	}
}

func TestConformanceStreamNamespace(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			b.PutLazy("s/1/", []byte("entry"))
			b.Put("s/1/k", []byte("v"))
			if _, ok := b.Get("s/1/"); ok {
				t.Error("Get sees a stream")
			}
			if got := b.Keys("s/"); !reflect.DeepEqual(got, []string{"s/1/k"}) || b.Len() != 1 {
				t.Errorf("Keys = %v, Len = %d: streams must not count as keys", got, b.Len())
			}
			if err := b.Delete("s/1/"); err != nil {
				t.Errorf("Delete of a stream name: %v", err)
			}
			if err := b.Rename("s/1/k", "s/1/"); err == nil {
				t.Error("Rename onto a stream name succeeded")
			}
			if got := scanAll(t, b, "s/1/"); !reflect.DeepEqual(got, []string{"1:entry"}) {
				t.Errorf("stream disturbed by key operations: %v", got)
			}
			for _, err := range []error{b.Truncate("s/1/k", 1), b.Rewind("s/1/k", 0), b.Scan("s/1/k", nil), b.Rewind("s/1/", -1)} {
				if err == nil {
					t.Error("stream operation on a key name (or a negative rewind) succeeded")
				}
			}
			stop := errors.New("stop")
			if err := b.Scan("s/1/", func(int64, []byte) error { return stop }); err != stop {
				t.Errorf("Scan returned %v, want the callback's error", err)
			}
		})
	}
}
