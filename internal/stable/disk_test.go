package stable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func openDisk(t *testing.T, dir string) *Disk {
	t.Helper()
	d, err := OpenDisk(DiskOptions{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	return d
}

// crashCopy copies a backend's directory as the kernel holds it right now
// — what a SIGKILL at this instant would leave, records still in a
// shard's write buffer lost — into a fresh directory and returns it.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue // unlinked under us: a crash would not see it either
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestDiskReopenPersists(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir)
	big := bytes.Repeat([]byte("B"), 48<<10) // checkpoint-sized: one inline record like any value
	if err := d.Put("ckpt/00000001", big); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := d.PutLazy("slog/001/002/0001", []byte("item")); err != nil {
		t.Fatalf("PutLazy: %v", err)
	}
	for _, v := range []string{"a", "b", "c"} {
		if err := d.PutLazy("slog/001/002/", []byte(v)); err != nil {
			t.Fatalf("PutLazy: %v", err)
		}
	}
	if err := d.Truncate("slog/001/002/", 1); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if err := d.Put("tel/002/0001", []byte("det")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := d.Delete("tel/002/0001"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openDisk(t, dir)
	defer r.Close()
	if got, ok := r.Get("ckpt/00000001"); !ok || !bytes.Equal(got, big) {
		t.Fatalf("checkpoint-sized value lost across reopen (ok=%v len=%d)", ok, len(got))
	}
	if got, ok := r.Get("slog/001/002/0001"); !ok || string(got) != "item" {
		t.Fatalf("lazy value lost across reopen (ok=%v %q)", ok, got)
	}
	if _, ok := r.Get("tel/002/0001"); ok {
		t.Fatal("tombstoned key resurrected across reopen")
	}
	if r.Len() != 2 {
		t.Fatalf("Len after reopen = %d, want 2", r.Len())
	}
	if got := scanAll(t, r, "slog/001/002/"); !reflect.DeepEqual(got, []string{"2:b", "3:c"}) {
		t.Fatalf("stream after reopen = %v", got)
	}
	r.PutLazy("slog/001/002/", []byte("d"))
	if got := scanAll(t, r, "slog/001/002/"); !reflect.DeepEqual(got, []string{"2:b", "3:c", "4:d"}) {
		t.Fatalf("numbering did not resume at the recovered tail: %v", got)
	}
}

func TestDiskRejectsV1Directory(t *testing.T) {
	// v1 rewrote one file per shard in place; v2 may hold records that
	// point at values in files of their own, which replay would take for
	// a torn tail and cut, silently dropping every record after them; v3
	// holds sender-log records with TDI piggybacks in wire format v2, v4
	// in wire format v3.
	for _, version := range []string{"windar-wal v1", "windar-wal v2", "windar-wal v3", "windar-wal v4"} {
		t.Run(version, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, metaName), []byte(version+"\nshards 8\n"), 0o666); err != nil {
				t.Fatal(err)
			}
			_, err := OpenDisk(DiskOptions{Dir: dir})
			if err == nil || !strings.Contains(err.Error(), version) || !strings.Contains(err.Error(), metaVersion) {
				t.Fatalf("OpenDisk of a %s directory: %v, want a version error naming both versions", version, err)
			}
		})
	}
}

func TestDiskTornTailTruncated(t *testing.T) {
	// Crash-mid-write atomicity: chop bytes off a segment's tail inside
	// its last record — a key record, a stream entry, and a checkpoint-
	// sized overwrite of a key — and reopen: the record is cleanly absent,
	// never garbage, and what preceded it is intact.
	for _, last := range []string{"key", "entry", "checkpoint"} {
		t.Run(last, func(t *testing.T) {
			src := t.TempDir()
			d := openDisk(t, src)
			d.Put("k/1/a", []byte("first"))
			d.Put("k/1/", []byte("one"))
			switch last {
			case "key":
				d.Put("k/1/b", []byte("second"))
			case "entry":
				d.Put("k/1/", []byte("two"))
			case "checkpoint":
				d.Put("k/1/a", bytes.Repeat([]byte("i"), 64<<10))
			}
			d.Close()

			// Everything shares the scope "k/1", so one segment holds it,
			// after the key restatement every segment opens with.
			var segPath string
			var full []byte
			for _, p := range segmentFiles(t, src) {
				if data, _ := os.ReadFile(p); len(data) > len(full) {
					segPath, full = p, data
				}
			}
			var starts []int
			for off := 0; off < len(full); off += walRecordHeader + int(binary.LittleEndian.Uint32(full[off:])) {
				starts = append(starts, off)
			}
			if len(starts) != 4 {
				t.Fatalf("segment holds %d records, want 4", len(starts))
			}
			lastStart := starts[3]
			var cuts []int
			for cut := lastStart; cut < len(full); cut++ {
				cuts = append(cuts, cut)
			}
			if last == "checkpoint" {
				// Inside each of the header's 8 bytes, mid-value, and
				// one byte short of whole.
				cuts = append(cuts[:walRecordHeader], (lastStart+len(full))/2, len(full)-1)
			}

			for _, cut := range cuts {
				if err := os.WriteFile(segPath, full[:cut], 0o666); err != nil {
					t.Fatal(err)
				}
				r := openDisk(t, crashCopy(t, src))
				if got, ok := r.Get("k/1/a"); !ok || string(got) != "first" {
					t.Fatalf("cut=%d: intact key lost (ok=%v %q)", cut, ok, got)
				}
				if got, ok := r.Get("k/1/b"); ok {
					t.Fatalf("cut=%d: torn key record surfaced %q", cut, got)
				}
				if got := scanAll(t, r, "k/1/"); !reflect.DeepEqual(got, []string{"1:one"}) {
					t.Fatalf("cut=%d: stream = %v, want the intact first entry alone", cut, got)
				}
				// The recovered state must be stable: the torn bytes are
				// gone for good, not waiting behind the new head.
				dir := r.dir
				r.Close()
				r = openDisk(t, dir)
				if got, ok := r.Get("k/1/a"); !ok || string(got) != "first" || r.Len() != 1 || len(scanAll(t, r, "k/1/")) != 1 {
					t.Fatalf("cut=%d: second reopen sees %d keys (k/1/a ok=%v, %d bytes), stream %v", cut, r.Len(), ok, len(got), scanAll(t, r, "k/1/"))
				}
				r.Close()
			}
		})
	}
}

func TestDiskLazyTrimLostBeforeBarrier(t *testing.T) {
	// A Truncate that never reached a barrier may be lost with the
	// process: the released entries reappear — the harness filters them
	// against the checkpoint — but no live entry may ever go missing.
	d := openDisk(t, t.TempDir())
	defer d.Close()
	const st = "slog/000/001/"
	for i := 0; i < 10; i++ {
		d.PutLazy(st, []byte{byte('a' + i)})
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Truncate(st, 5)
	d.PutLazy(st, []byte("k"))

	r := openDisk(t, crashCopy(t, d.dir))
	if got := scanAll(t, r, st); len(got) != 10 || got[0] != "1:a" || got[9] != "10:j" {
		t.Fatalf("crash before the barrier recovered %v, want entries 1..10", got)
	}
	r.Close()

	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	r = openDisk(t, crashCopy(t, d.dir))
	defer r.Close()
	if got := scanAll(t, r, st); len(got) != 6 || got[0] != "6:f" || got[5] != "11:k" {
		t.Fatalf("crash after the barrier recovered %v, want entries 6..11", got)
	}
}

// fillSegments appends entries of size bytes to stream until the shard
// holding it has rotated n more times, and returns how many it appended.
func fillSegments(t *testing.T, d *Disk, stream string, size, n int) int {
	t.Helper()
	val := bytes.Repeat([]byte("e"), size)
	want := d.Stats().Rotations + int64(n)
	count := 0
	for d.Stats().Rotations < want {
		if err := d.PutLazy(stream, val); err != nil {
			t.Fatalf("PutLazy: %v", err)
		}
		count++
	}
	return count
}

func TestDiskSegmentsUnlinkedNotRewritten(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir)
	const st = "slog/000/001/"
	d.Put("ckpt/00000000", []byte("pointer")) // a live key that every rotation must carry
	appended := 0
	for round := 0; round < 4; round++ {
		appended += fillSegments(t, d, st, 400, 1)
		d.Truncate(st, int64(appended-3))
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	stats := d.Stats()
	if stats.Rotations < 4 || stats.UnlinkedSegments < 3 {
		t.Fatalf("stats %+v: want >= 4 rotations and >= 3 unlinked segments", stats)
	}
	if n := len(segmentFiles(t, dir)); int64(n) != stats.LiveSegments {
		t.Fatalf("%d segment files on disk, stats say %d", n, stats.LiveSegments)
	}
	// Log items are written once: the bytes appended are the entries
	// plus, per rotation, the one carried key and one stream window.
	if perEntry := stats.BytesAppended / int64(appended); perEntry > 400+64 {
		t.Fatalf("%d bytes appended per 400-byte entry: log items were rewritten", perEntry)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) != 0 {
		t.Fatalf("rewrite droppings: %v", left)
	}
	want := scanAll(t, d, st)
	if len(want) != 3 {
		t.Fatalf("live entries = %d, want 3", len(want))
	}
	d.Close()

	r := openDisk(t, dir)
	defer r.Close()
	if got := scanAll(t, r, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen across %d rotations: stream = %d entries, want %d", stats.Rotations, len(got), len(want))
	}
	if got, ok := r.Get("ckpt/00000000"); !ok || string(got) != "pointer" {
		t.Fatalf("carried key lost across rotations (ok=%v %q)", ok, got)
	}
}

func TestDiskCrashBetweenEmptyingAndUnlink(t *testing.T) {
	d := openDisk(t, t.TempDir())
	defer d.Close()
	const st = "slog/000/001/"
	n := fillSegments(t, d, st, 400, 2)
	d.PutLazy(st, []byte("survivor"))
	d.Truncate(st, int64(n))
	// The commit fsyncs the Truncate, then unlinks the two segments it
	// emptied; crash right before the first unlink.
	var crashed string
	d.ioHook = func(op string) { // unlinks come from the committer alone
		if op == "unlink" && crashed == "" {
			crashed = crashCopy(t, d.dir)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.ioHook = nil
	if crashed == "" {
		t.Fatal("no segment was unlinked")
	}
	before := len(segmentFiles(t, crashed))
	r := openDisk(t, crashed)
	defer r.Close()
	if got := scanAll(t, r, st); !reflect.DeepEqual(got, []string{fmt.Sprintf("%d:survivor", n+1)}) {
		t.Fatalf("recovered stream = %v", got)
	}
	if after := len(segmentFiles(t, crashed)); after >= before {
		t.Fatalf("open left the emptied segments behind: %d files before, %d after", before, after)
	}
}

func TestDiskLazyPathDoesNoDurableIO(t *testing.T) {
	// Appends and releases — across rotations — must not fsync, rename
	// or unlink at all, and the commit that does must hold no shard lock
	// while it does.
	d := openDisk(t, t.TempDir())
	defer d.Close()
	var mu sync.Mutex
	var ops []string
	d.ioHook = func(op string) {
		mu.Lock()
		defer mu.Unlock()
		ops = append(ops, op)
		for _, s := range d.shards {
			if !s.mu.TryLock() {
				t.Errorf("%s while shard %d is locked", op, s.id)
				continue
			}
			s.mu.Unlock()
		}
	}
	const st = "slog/000/001/"
	before := d.Stats()
	n := fillSegments(t, d, st, 400, 3)
	d.Truncate(st, int64(n))
	d.PutLazy(st, []byte("discarded"))
	d.Rewind(st, int64(n))
	d.PutLazy("tel/000/0001", []byte("det"))
	d.Delete("tel/000/0001")
	if after := d.Stats(); len(ops) != 0 || after.Fsyncs != before.Fsyncs || after.UnlinkedSegments != before.UnlinkedSegments {
		t.Fatalf("lazy operations did durable I/O: %v (stats %+v -> %+v)", ops, before, after)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, op := range ops {
		seen[op] = true
	}
	if !seen["fsync"] || !seen["unlink"] {
		t.Fatalf("the barrier's commit did %v, want fsyncs and unlinks", ops)
	}
	d.ioHook = nil // Close syncs under the locks; nothing sends by then
}

func TestDiskKeyChurnStaysBounded(t *testing.T) {
	// Overwritten key records must not pin segments, whether the values
	// are small or checkpoint images: rotation restates only the live
	// ones, and keeps doing so under half of all bytes written.
	for _, tc := range []struct {
		name string
		size int
	}{{"small", 1 << 10}, {"checkpoint", 48 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := openDisk(t, dir)
			// Everything in one scope so one shard absorbs all the churn.
			newest := make([][]byte, 4)
			put := int64(0)
			for i := 0; d.Stats().Rotations < 3; i++ {
				newest[i%4] = bytes.Repeat([]byte{byte(i)}, tc.size)
				if err := d.PutLazy(fmt.Sprintf("hot/1/%04d", i%4), newest[i%4]); err != nil {
					t.Fatalf("PutLazy: %v", err)
				}
				put += int64(tc.size)
			}
			if err := d.Put("hot/1/keep", []byte("keeper")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if stats := d.Stats(); stats.LiveSegments > int64(len(d.shards))+1 || stats.BytesAppended > 2*put {
				t.Fatalf("stats %+v after putting %d bytes: overwritten key records must not pin segments or be restated without bound", stats, put)
			}
			d.Close()
			files, _ := filepath.Glob(filepath.Join(dir, "*"))
			if want := len(segmentFiles(t, dir)) + 1; len(files) != want {
				t.Fatalf("directory holds %v, want the meta file and the segments alone", files)
			}

			r := openDisk(t, dir)
			defer r.Close()
			if got, ok := r.Get("hot/1/keep"); !ok || string(got) != "keeper" {
				t.Fatalf("live key lost by rotation (ok=%v %q)", ok, got)
			}
			for i, val := range newest {
				if got, ok := r.Get(fmt.Sprintf("hot/1/%04d", i)); !ok || !bytes.Equal(got, val) {
					t.Fatalf("live key %d lost by rotation, or an older value won", i)
				}
			}
			if r.Len() != 5 {
				t.Fatalf("Len = %d, want 5", r.Len())
			}
		})
	}
}

func TestDiskGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(DiskOptions{Dir: dir, Shards: 2, FsyncInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	opened := d.Commits()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			done <- d.Put(fmt.Sprintf("g/%d/k", i), []byte("v")) //windar:allow locksend (buffered to goroutine count)
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// 8 concurrent durable puts with a 2ms window should coalesce into
	// far fewer commit rounds than one per put.
	if c := d.Commits() - opened; c >= 8 {
		t.Fatalf("group commit never batched: %d commits for 8 puts", c)
	}
	// Lazy writes wait for somebody else's barrier: they start no round.
	time.Sleep(10 * time.Millisecond) // let a round the puts left queued run
	settled := d.Commits()
	for i := 0; i < 100; i++ {
		d.PutLazy("g/0/", []byte("entry"))
		d.PutLazy("g/0/lazy", []byte("v"))
	}
	time.Sleep(10 * time.Millisecond)
	if c := d.Commits(); c != settled {
		t.Fatalf("lazy writes woke the committer: %d rounds", c-settled)
	}
}

func TestDiskMetaPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(DiskOptions{Dir: dir, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	d.Put("a/1/k", []byte("v"))
	d.Close()
	// Reopen asking for a different count: the meta file wins, so the
	// key hashes to the same file it was written to.
	r, err := OpenDisk(DiskOptions{Dir: dir, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.shards) != 3 {
		t.Fatalf("shard count = %d, want pinned 3", len(r.shards))
	}
	if got, ok := r.Get("a/1/k"); !ok || string(got) != "v" {
		t.Fatalf("value lost under shard-count change (ok=%v %q)", ok, got)
	}
	if !strings.Contains(readMetaBody(t, dir), "shards 3") {
		t.Fatal("meta file missing pinned shard count")
	}
}

func readMetaBody(t *testing.T, dir string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
