package stable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Disk is the real durable backend: a set of parallel write-ahead logs
// (shirakami-style P-WAL — each rank's names hash to one shard, so ranks
// append to disjoint files and never contend on a single log) with group
// commit. Every mutation appends one checksummed, length-prefixed record
// (see walrecord.go) to its shard's write buffer; a lazy mutation does
// nothing more, and a durable one then waits for the committer goroutine,
// which batches neighbouring writes into one fsync per shard (the
// group-commit window is FsyncInterval). Every value, a checkpoint image
// included, lies inline in its one record: a record that verifies is
// whole whatever its size, so no value needs a file of its own.
//
// Each shard's log is a sequence of segment files. Records go to the
// newest, the head; once it holds segmentBytes of them the shard rotates:
// a fresh head opens with a restatement of the shard's keys — every live
// key record, and a count that tells replay to forget any other key — and
// the window of every stream, so older segments matter only for the
// stream entries in them that are still live. A segment no live entry points at is
// unlinked — never rewritten — and only after the records that emptied it
// are durable. Nothing on a lazy path fsyncs, renames or unlinks: the
// committer flushes a shard's buffer under the shard lock and does all
// durable I/O after releasing it.
//
// Atomicity falls out of the record format: a crash mid-append leaves a
// torn tail whose length or CRC cannot verify. Open replays a shard's
// segments in order, cuts the first torn one at its last whole record and
// drops the segments after it, so the recovered state is always a prefix
// of the shard's history that includes everything up to the last
// completed barrier. The shard count is pinned in a meta file at
// creation, so a name's records always live in exactly one shard.
type Disk struct {
	dir      string
	interval time.Duration
	shards   []*walShard

	// Group commit: a barrier takes the next ticket and waits until the
	// committer has finished a round that began after the ticket was
	// taken, which therefore covers every record buffered before it.
	gmu       sync.Mutex
	gcond     *sync.Cond
	requested uint64
	committed uint64
	commits   int64
	commitErr error
	closed    bool

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup // the committer and the shards' fsync workers
	// timer is the group-commit window, re-armed each round.
	timer *time.Timer

	// The committer's per-round scratch, reused: the dirty shards handed
	// to their fsync workers, the count of those still syncing, and the
	// segments to unlink once the round is durable.
	dirty  []*walShard
	syncs  sync.WaitGroup
	unlink []string

	fsyncs, rotations, unlinked, bytesAppended atomic.Int64

	// ioHook, when a test sets it, is called before every fsync, rename
	// and unlink with the operation's name, possibly from several
	// goroutines at once.
	ioHook func(op string)
}

// DiskOptions configures OpenDisk.
type DiskOptions struct {
	// Dir is the directory holding the log files; created if missing.
	// Required.
	Dir string
	// Shards is the parallel WAL count for a fresh directory. Defaults
	// to 8. An existing directory keeps the count it was created with
	// (recorded in its meta file); Shards is then ignored.
	Shards int
	// FsyncInterval is the group-commit window: durable writes wait at
	// most about this long while neighbouring writes pile into the same
	// fsync. 0 commits as soon as the committer observes a write.
	FsyncInterval time.Duration
}

// DiskStats are the backend's cumulative I/O counters and its current
// segment population.
type DiskStats struct {
	// Fsyncs counts file and directory fsyncs: commit rounds and the
	// meta file.
	Fsyncs int64 `json:"fsyncs"`
	// Rotations counts segment files opened after a shard's first.
	Rotations int64 `json:"rotations"`
	// LiveSegments is the number of segment files currently on disk;
	// UnlinkedSegments counts those removed since Open.
	LiveSegments     int64 `json:"live_segments"`
	UnlinkedSegments int64 `json:"unlinked_segments"`
	// BytesAppended is the framed size of every record written,
	// including the ones rotation carries forward.
	BytesAppended int64 `json:"bytes_appended"`
}

const (
	defaultShards = 8
	metaName      = "meta"
	metaVersion   = "windar-wal v5"

	// segmentBytes is how many bytes of records, beyond what rotation
	// carried in, a head segment takes before the shard rotates.
	segmentBytes = 1 << 20
	// flushBytes is the write-buffer fill at which a shard hands its
	// records to the kernel: one write per ~190 LU-line log items.
	flushBytes = 64 << 10
	// arenaBytes sizes the chunks cached stream entries are cut from.
	arenaBytes = 64 << 10
)

var errClosed = errors.New("stable: disk backend is closed")

// segment is one file of a shard's log.
type segment struct {
	path string
	live int // cached stream entries whose record is in this file
}

type walShard struct {
	mu  sync.Mutex
	id  int
	f   *os.File // the head segment; nil once closed
	buf []byte   // records not yet handed to the kernel

	head      *segment
	sealed    []*segment // older segments still on disk, oldest first
	nextSeg   uint64
	headBytes int64 // record bytes in the head, carried ones included
	carried   int64 // of which rotation wrote

	// index caches every live key's value in memory (mirroring the sim
	// backend); the log copy exists so a restarted process can rebuild it.
	index   map[string][]byte
	streams streamSet
	arena   []byte // tail of the chunk new stream entries are cached in

	// Work for the next commit round, which takes it under mu and does
	// it after unlocking.
	dirty   bool
	newFile bool       // a segment was created: the directory needs an fsync
	retired []*os.File // rotated-out heads to fsync and close
	emptied []*segment // segments to unlink once what emptied them is durable

	// The shard's fsync worker takes job on each receive from syncReq and
	// reports through job.err and Disk.syncs; the committer owns job
	// between rounds.
	syncReq chan struct{}
	job     fsyncJob
}

// fsyncJob is one commit round's durable I/O for one shard: the retired
// heads to fsync and close, then the head to fsync.
type fsyncJob struct {
	head    *os.File
	retired []*os.File
	err     error
}

// OpenDisk opens (creating or recovering) a disk backend rooted at
// opts.Dir.
func OpenDisk(opts DiskOptions) (*Disk, error) {
	if opts.Dir == "" {
		return nil, errors.New("stable: OpenDisk requires Dir")
	}
	if opts.Shards <= 0 {
		opts.Shards = defaultShards
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, err
	}
	d := &Disk{
		dir:      opts.Dir,
		interval: opts.FsyncInterval,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		timer:    time.NewTimer(time.Hour), //windar:allow directclock — the window paces real fsyncs, which share only the wall clock
	}
	d.timer.Stop()
	d.gcond = sync.NewCond(&d.gmu)
	if err := d.recover(opts.Shards); err != nil {
		d.stopWorkers()
		d.wg.Wait()
		d.closeFiles()
		return nil, err
	}
	d.wg.Add(1)
	go d.committer()
	return d, nil
}

// Dir returns the backing directory.
func (d *Disk) Dir() string { return d.dir }

// Stats reports the I/O counters and the segment population.
func (d *Disk) Stats() DiskStats {
	st := DiskStats{
		Fsyncs:           d.fsyncs.Load(),
		Rotations:        d.rotations.Load(),
		UnlinkedSegments: d.unlinked.Load(),
		BytesAppended:    d.bytesAppended.Load(),
	}
	for _, s := range d.shards {
		s.mu.Lock()
		st.LiveSegments += int64(len(s.sealed) + len(s.emptied))
		if s.head != nil {
			st.LiveSegments++
		}
		s.mu.Unlock()
	}
	return st
}

// shardFor hashes the name's rank-scoped prefix (up to the second '/',
// e.g. "slog/003") so one rank's streams and keys land in one shard —
// the per-rank parallel log layout.
//
//windar:hotpath
func (d *Disk) shardFor(name string) *walShard {
	scope := name
	if i := strings.IndexByte(name, '/'); i >= 0 {
		if j := strings.IndexByte(name[i+1:], '/'); j >= 0 {
			scope = name[:i+1+j]
		}
	}
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(scope); i++ {
		h = (h ^ uint32(scope[i])) * 16777619
	}
	return d.shards[h%uint32(len(d.shards))]
}

// begin starts a record for (op, name) in the write buffer and returns
// its offset; the caller appends the rest of the payload and calls end.
// Caller holds s.mu.
//
//windar:hotpath
func (s *walShard) begin(op byte, name string) int {
	start := len(s.buf)
	s.buf = appendRecordStart(s.buf, op, name) //windar:allow hotpath — the buffer keeps its capacity across flushes
	return start
}

// end frames the record begun at start — the checksum is taken over the
// payload where it lies — and hands the buffer to the kernel once it is
// full. Caller holds s.mu.
//
//windar:hotpath
func (d *Disk) end(s *walShard, start int) error {
	sealRecord(s.buf[start:])
	n := int64(len(s.buf) - start)
	s.headBytes += n
	s.dirty = true
	d.bytesAppended.Add(n)
	if len(s.buf) < flushBytes {
		return nil
	}
	return s.flush()
}

// flush writes the buffered records to the head segment. Caller holds
// s.mu.
func (s *walShard) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.f.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// cache copies data into the shard's arena and returns the copy, so that
// recovery inside this process reads no file. Chunks are shared by the
// shard's streams and freed by the collector when no live entry points
// into them.
//
//windar:hotpath
func (s *walShard) cache(data []byte) []byte {
	if cap(s.arena)-len(s.arena) < len(data) {
		s.arena = make([]byte, 0, max(arenaBytes, len(data))) //windar:allow hotpath — amortised: one chunk per arenaBytes of entries
	}
	n := len(s.arena)
	s.arena = append(s.arena, data...) //windar:allow hotpath — capacity was reserved above
	return s.arena[n:len(s.arena):len(s.arena)]
}

// appendEntry is Put and PutLazy on a stream: one record in the buffer,
// one cached entry, under the shard lock alone.
//
//windar:hotpath
func (d *Disk) appendEntry(s *walShard, name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	st := s.streams.get(name) //windar:allow hotpath — once per stream, not per entry
	seq := st.tail + 1
	start := s.begin(opAppend, name)
	s.buf = binary.AppendUvarint(s.buf, uint64(seq)) //windar:allow hotpath — the buffer keeps its capacity across flushes
	s.buf = append(s.buf, data...)                   //windar:allow hotpath — the buffer keeps its capacity across flushes
	if seq > st.lo {
		st.push(seq, s.head, s.cache(data)) //windar:allow hotpath — amortised: the cache's next chunk
	} else {
		st.tail = seq
	}
	if err := d.end(s, start); err != nil {
		return err
	}
	return d.maybeRotate(s)
}

// putKey is Put and PutLazy on a key: one record holding the whole value.
// The cached copy is overwritten in place, so a key rewritten with values
// of one size, as a checkpoint slot is, allocates nothing after its first
// write.
func (d *Disk) putKey(s *walShard, key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errClosed
	}
	val := append(s.index[key][:0], data...)
	s.index[key] = val
	if err := d.logKey(s, key, val); err != nil {
		return err
	}
	return d.maybeRotate(s)
}

// logKey writes the record binding key to val. Caller holds s.mu.
func (d *Disk) logKey(s *walShard, key string, val []byte) error {
	start := s.begin(opPut, key)
	s.buf = append(s.buf, val...)
	return d.end(s, start)
}

func (d *Disk) put(name string, data []byte, durable bool) error {
	s := d.shardFor(name)
	var err error
	if IsStream(name) {
		err = d.appendEntry(s, name, data)
	} else {
		err = d.putKey(s, name, data)
	}
	if err != nil || !durable {
		return err
	}
	return d.Sync()
}

// Put implements Backend.
func (d *Disk) Put(key string, data []byte) error { return d.put(key, data, true) }

// PutLazy implements Backend.
//
//windar:hotpath
func (d *Disk) PutLazy(key string, data []byte) error { return d.put(key, data, false) }

// Get implements Backend.
func (d *Disk) Get(key string) ([]byte, bool) {
	s := d.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	val, ok := s.index[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), val...), true
}

// Delete implements Backend. The tombstone is durable at the next Sync.
func (d *Disk) Delete(key string) error {
	s := d.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return d.unbind(s, key)
}

// unbind tombstones key if it is bound. Caller holds s.mu.
func (d *Disk) unbind(s *walShard, key string) error {
	if s.f == nil {
		return errClosed
	}
	if _, ok := s.index[key]; !ok {
		return nil
	}
	delete(s.index, key)
	if err := d.end(s, s.begin(opDelete, key)); err != nil {
		return err
	}
	return d.maybeRotate(s)
}

// Rename implements Backend as a record binding newKey to a copy of
// oldKey's value followed by a tombstone on oldKey, the first durable
// before the second is written. Crash atomicity: a crash leaves the old
// binding, both bindings, or only the new one — never a torn value and
// never neither. (It is not isolated: a concurrent reader can observe the
// intermediate state.)
func (d *Disk) Rename(oldKey, newKey string) error {
	if IsStream(newKey) {
		return errRenameToStream(newKey)
	}
	from, to := d.shardFor(oldKey), d.shardFor(newKey)
	val, ok := d.Get(oldKey) // a copy: values are overwritten in place
	if !ok {
		return fmt.Errorf("stable: rename %q: no such key", oldKey)
	}
	if oldKey == newKey {
		return d.Sync()
	}
	if err := d.putKey(to, newKey, val); err != nil {
		return err
	}
	if from != to {
		// The two records lie in different files, which a commit round
		// syncs one after the other.
		if err := d.Sync(); err != nil {
			return err
		}
	}
	from.mu.Lock()
	err := d.unbind(from, oldKey)
	from.mu.Unlock()
	if err != nil {
		return err
	}
	return d.Sync()
}

// Keys implements Backend.
func (d *Disk) Keys(prefix string) []string {
	var out []string
	for _, s := range d.shards {
		s.mu.Lock()
		for k := range s.index {
			if strings.HasPrefix(k, prefix) {
				out = append(out, k)
			}
		}
		s.mu.Unlock()
	}
	return sortedKeys(out)
}

// Len implements Backend.
func (d *Disk) Len() int {
	n := 0
	for _, s := range d.shards {
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}

// Truncate implements Backend.
func (d *Disk) Truncate(name string, upTo int64) error {
	if err := checkStream(name); err != nil {
		return err
	}
	s := d.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.streams.get(name)
	if upTo <= st.lo {
		return nil
	}
	st.trim(upTo, st.tail)
	return d.logWindow(s, name, st)
}

// Rewind implements Backend.
func (d *Disk) Rewind(name string, tail int64) error {
	if err := checkStream(name); err != nil {
		return err
	}
	s := d.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.streams.get(name)
	if changed, err := st.rewind(name, tail); !changed {
		return err
	}
	return d.logWindow(s, name, st)
}

// logWindow records st's just narrowed window — one record, whatever was
// dropped — and queues the segments that emptied. Caller holds s.mu.
func (d *Disk) logWindow(s *walShard, name string, st *stream) error {
	if s.f == nil {
		return errClosed
	}
	s.sweep()
	start := s.begin(opTrim, name)
	s.buf = appendWindow(s.buf, st.lo, st.tail)
	if err := d.end(s, start); err != nil {
		return err
	}
	return d.maybeRotate(s)
}

// sweep moves the sealed segments no live entry points at to the unlink
// queue. Caller holds s.mu.
func (s *walShard) sweep() {
	kept := s.sealed[:0]
	for _, seg := range s.sealed {
		if seg.live == 0 {
			s.emptied = append(s.emptied, seg)
		} else {
			kept = append(kept, seg)
		}
	}
	clear(s.sealed[len(kept):])
	s.sealed = kept
}

// Scan implements Backend.
func (d *Disk) Scan(name string, fn func(seq int64, data []byte) error) error {
	if err := checkStream(name); err != nil {
		return err
	}
	s := d.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.streams[name]; st != nil {
		return st.scan(fn)
	}
	return nil
}

// maybeRotate starts a new head segment once the current one has taken
// segmentBytes of records beyond what it was opened with — or, if more
// than that was carried in, as much again, so that carrying stays under
// half of all bytes written. Caller holds s.mu.
//
//windar:hotpath
func (d *Disk) maybeRotate(s *walShard) error {
	if s.headBytes-s.carried < max(segmentBytes, s.carried) {
		return nil
	}
	return d.rotate(s)
}

// rotate seals the head and opens the next segment with everything that
// is not a stream entry: every live key record and every stream's window.
// From then on the older segments are needed only for their live entries.
// The sealed file stays open until the committer has fsynced it. Caller
// holds s.mu; nothing here waits for the disk.
func (d *Disk) rotate(s *walShard) error {
	if s.f != nil {
		if err := s.flush(); err != nil {
			return err
		}
		s.retired = append(s.retired, s.f)
		s.sealed = append(s.sealed, s.head)
		d.rotations.Add(1)
	}
	seg := &segment{path: filepath.Join(d.dir, segmentName(s.id, s.nextSeg))}
	s.nextSeg++
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		s.f = nil
		return err
	}
	s.f, s.head = f, seg
	s.dirty, s.newFile = true, true
	s.headBytes = 0
	start := s.begin(opCarry, "")
	s.buf = binary.AppendUvarint(s.buf, uint64(len(s.index)))
	if err := d.end(s, start); err != nil {
		return err
	}
	for key, val := range s.index {
		if err := d.logKey(s, key, val); err != nil {
			return err
		}
	}
	for name, st := range s.streams {
		start := s.begin(opTrim, name)
		s.buf = appendWindow(s.buf, st.lo, st.tail)
		if err := d.end(s, start); err != nil {
			return err
		}
	}
	s.carried = s.headBytes
	s.sweep()
	return nil
}

func segmentName(shard int, n uint64) string {
	return fmt.Sprintf("wal-%03d-%010d.seg", shard, n)
}

// parseSegmentName is segmentName's inverse.
func parseSegmentName(base string) (shard int, n uint64, ok bool) {
	rest, found := strings.CutPrefix(base, "wal-")
	rest, isSeg := strings.CutSuffix(rest, ".seg")
	a, b, dash := strings.Cut(rest, "-")
	if !found || !isSeg || !dash {
		return 0, 0, false
	}
	shard, err1 := strconv.Atoi(a)
	n, err2 := strconv.ParseUint(b, 10, 64)
	return shard, n, err1 == nil && err2 == nil && shard >= 0
}

// Commits returns how many group-commit fsync rounds have run.
func (d *Disk) Commits() int64 {
	d.gmu.Lock()
	defer d.gmu.Unlock()
	return d.commits
}

// Sync implements Backend: the group-commit barrier. It blocks until the
// committer has completed a round that started after the call, and
// surfaces a failed round's error to every later barrier.
func (d *Disk) Sync() error {
	d.gmu.Lock()
	defer d.gmu.Unlock()
	d.requested++
	ticket := d.requested
	select {
	case d.kick <- struct{}{}:
	default:
	}
	for d.committed < ticket && d.commitErr == nil && !d.closed {
		d.gcond.Wait()
	}
	if d.commitErr != nil {
		return d.commitErr
	}
	if d.committed < ticket {
		return errClosed
	}
	return nil
}

// committer is the group-commit loop: it parks until a barrier kicks it,
// optionally lingers one FsyncInterval so neighbouring writes join the
// batch, then commits every dirty shard and releases the waiters.
func (d *Disk) committer() {
	defer d.wg.Done()
	defer d.stopWorkers()
	for {
		select {
		case <-d.done:
			d.commit()
			return
		case <-d.kick:
		}
		if d.interval > 0 {
			d.timer.Reset(d.interval) // the previous round drained it
			select {
			case <-d.timer.C:
			case <-d.done:
			}
		}
		d.commit()
	}
}

// fsyncWorker is shard s's durable I/O: one job per commit round in
// which s was dirty, run in parallel with the other shards' workers.
func (d *Disk) fsyncWorker(s *walShard) {
	defer d.wg.Done()
	for range s.syncReq {
		j := &s.job
		for _, f := range j.retired {
			j.err = errors.Join(j.err, d.fsync(f), f.Close())
		}
		j.err = errors.Join(j.err, d.fsync(j.head))
		d.syncs.Done()
	}
}

// stopWorkers ends the fsync workers: the committer on its way out, or a
// failed Open in its stead.
func (d *Disk) stopWorkers() {
	for _, s := range d.shards {
		close(s.syncReq)
	}
}

// commit makes every record buffered so far durable. First, per dirty
// shard and under its lock, it flushes the buffer and takes the shard's
// pending work. Then — holding no lock, and all shards at once, so that a
// barrier waits for the slowest file rather than for their sum — the
// shards' fsync workers sync their files, and finally it unlinks the
// segments whose superseding records this round covered. Only the
// committer goroutine (and Open, before it starts) runs it. Every slice
// it fills is kept for the next round, so a round allocates nothing.
func (d *Disk) commit() {
	d.gmu.Lock()
	ticket := d.requested
	d.gmu.Unlock()

	newFile := false
	for _, s := range d.shards {
		s.mu.Lock()
		if s.f == nil || !s.dirty {
			s.mu.Unlock()
			continue
		}
		j := &s.job
		j.head, j.err = s.f, s.flush()
		j.retired, s.retired = s.retired, j.retired
		for _, seg := range s.emptied {
			d.unlink = append(d.unlink, seg.path)
		}
		clear(s.emptied)
		s.emptied = s.emptied[:0]
		newFile = newFile || s.newFile
		s.dirty, s.newFile = false, false
		s.mu.Unlock()
		d.dirty = append(d.dirty, s)
	}

	d.syncs.Add(len(d.dirty))
	for _, s := range d.dirty {
		s.syncReq <- struct{}{}
	}
	d.syncs.Wait()
	var err error
	for _, s := range d.dirty {
		err = errors.Join(err, s.job.err)
		clear(s.job.retired) // fsynced and closed
		s.job.head, s.job.retired = nil, s.job.retired[:0]
	}
	clear(d.dirty)
	d.dirty = d.dirty[:0]
	if newFile {
		err = errors.Join(err, d.syncDir())
	}
	if err == nil {
		for _, p := range d.unlink {
			d.hook("unlink")
			if os.Remove(p) == nil {
				d.unlinked.Add(1)
			}
		}
	}
	clear(d.unlink)
	d.unlink = d.unlink[:0]

	d.gmu.Lock()
	if err != nil && d.commitErr == nil {
		d.commitErr = err
	}
	if err == nil {
		d.committed = ticket
	}
	d.commits++
	d.gcond.Broadcast()
	d.gmu.Unlock()
}

// Close implements Backend: final commit, then release the files.
func (d *Disk) Close() error {
	d.gmu.Lock()
	if d.closed {
		d.gmu.Unlock()
		return nil
	}
	d.closed = true
	d.gmu.Unlock()
	close(d.done)
	d.wg.Wait() // the committer's last round flushed and fsynced everything

	err := d.closeFiles()
	d.gmu.Lock()
	if d.commitErr == nil {
		d.commitErr = errClosed
	} else if err == nil && d.commitErr != errClosed {
		err = d.commitErr
	}
	d.gcond.Broadcast()
	d.gmu.Unlock()
	return err
}

// closeFiles flushes and closes every shard's files; used by Close and by
// a failed Open.
func (d *Disk) closeFiles() error {
	var err error
	for _, s := range d.shards {
		s.mu.Lock()
		files := s.retired
		if s.f != nil {
			err = errors.Join(err, s.flush())
			files = append(files, s.f)
		}
		for _, f := range files {
			// The fsync covers records a writer slipped in behind the last
			// commit round.
			err = errors.Join(err, d.fsync(f), f.Close())
		}
		s.f, s.retired = nil, nil
		s.mu.Unlock()
	}
	return err
}

func (d *Disk) hook(op string) {
	if d.ioHook != nil {
		d.ioHook(op)
	}
}

func (d *Disk) fsync(f *os.File) error {
	d.hook("fsync")
	d.fsyncs.Add(1)
	return f.Sync()
}

func (d *Disk) syncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return err
	}
	err = d.fsync(f)
	f.Close()
	return err
}

// publish writes the meta file crash-atomically: temp file, fsync, rename
// into place, fsync the directory.
func (d *Disk) publish(name string, data []byte) error {
	tmp := filepath.Join(d.dir, "tmp-"+name)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := d.fsync(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	d.hook("rename")
	if err := os.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
		return err
	}
	return d.syncDir()
}

// recover reads (or pins) the shard count from the meta file, replays
// every shard's segments, rebuilds the in-memory state and opens a fresh
// head segment per shard.
func (d *Disk) recover(wantShards int) error {
	nShards, err := d.loadOrInitMeta(wantShards)
	if err != nil {
		return err
	}
	d.shards = make([]*walShard, nShards)
	for i := range d.shards {
		s := &walShard{
			id:      i,
			buf:     make([]byte, 0, flushBytes+4096),
			index:   make(map[string][]byte),
			streams: make(streamSet),
			syncReq: make(chan struct{}),
		}
		d.shards[i] = s
		d.wg.Add(1)
		go d.fsyncWorker(s)
	}

	names, err := filepath.Glob(filepath.Join(d.dir, "wal-*.seg"))
	if err != nil {
		return err
	}
	for _, p := range names { // Glob sorts, so each shard's segments come oldest first
		if shard, n, ok := parseSegmentName(filepath.Base(p)); ok && shard < nShards {
			s := d.shards[shard]
			s.sealed = append(s.sealed, &segment{path: p})
			s.nextSeg = n + 1
		}
	}
	for _, s := range d.shards {
		if err := s.replay(); err != nil {
			return err
		}
	}

	// A fresh head per shard restates what the replayed segments said, so
	// those are kept only for their live entries; the commit makes the
	// heads durable and unlinks the rest.
	for _, s := range d.shards {
		if err := d.rotate(s); err != nil {
			return err
		}
	}
	d.commit()
	return d.commitErr
}

// replay rebuilds s's index and streams from its segment files, oldest
// first. The first segment with a torn or corrupt record is cut at its
// last whole record and every later segment is removed: what they hold
// was written after the torn bytes, so after the last completed barrier.
func (s *walShard) replay() error {
	// A segment's opening restatement of the keys replaces the index only
	// once all of it has been read: staged collects it until then.
	var staged map[string][]byte
	pending := int64(0)
	apply := func(seg *segment, r walRecord) {
		if pending > 0 && r.op != opPut {
			staged, pending = nil, 0 // not a restatement this build wrote: ignore its header
		}
		switch r.op {
		case opCarry:
			staged, pending = make(map[string][]byte), r.a
		case opPut:
			val := append([]byte(nil), r.rest...)
			if pending == 0 {
				s.index[string(r.name)] = val
				return
			}
			staged[string(r.name)] = val
			pending--
		case opDelete:
			delete(s.index, string(r.name))
		case opAppend:
			st := s.streams[string(r.name)] // a lookup converts without allocating
			if st == nil {
				st = s.streams.get(string(r.name))
			}
			if st.push(r.a, seg, nil) {
				st.entries[len(st.entries)-1].data = s.cache(r.rest)
			}
		case opTrim:
			s.streams.get(string(r.name)).trim(r.a, r.b)
		}
		if pending == 0 && staged != nil {
			s.index, staged = staged, nil
		}
	}
	for i, seg := range s.sealed {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		staged, pending = nil, 0 // a restatement never spans segments
		good := replayRecords(data, func(r walRecord) { apply(seg, r) })
		if good == len(data) {
			continue
		}
		if err := os.Truncate(seg.path, int64(good)); err != nil {
			return err
		}
		for _, later := range s.sealed[i+1:] {
			if err := os.Remove(later.path); err != nil {
				return err
			}
		}
		s.sealed = s.sealed[:i+1]
		break
	}
	return nil
}

// loadOrInitMeta returns the pinned shard count, writing the meta file
// on first open of the directory.
func (d *Disk) loadOrInitMeta(wantShards int) (int, error) {
	path := filepath.Join(d.dir, metaName)
	data, err := os.ReadFile(path)
	if err == nil {
		version, rest, _ := strings.Cut(string(data), "\n")
		if version != metaVersion {
			return 0, fmt.Errorf("stable: %s holds a %q directory; this build reads only %q — remove the directory to start afresh", d.dir, version, metaVersion)
		}
		for _, line := range strings.Split(rest, "\n") {
			if count, ok := strings.CutPrefix(line, "shards "); ok {
				n, err := strconv.Atoi(strings.TrimSpace(count))
				if err != nil || n <= 0 {
					return 0, fmt.Errorf("stable: corrupt meta file %s: %q", path, line)
				}
				return n, nil
			}
		}
		return 0, fmt.Errorf("stable: meta file %s has no shard count", path)
	}
	if !os.IsNotExist(err) {
		return 0, err
	}
	body := fmt.Sprintf("%s\nshards %d\n", metaVersion, wantShards)
	if err := d.publish(metaName, []byte(body)); err != nil {
		return 0, err
	}
	return wantShards, nil
}
