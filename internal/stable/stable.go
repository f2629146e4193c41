// Package stable is the durable medium that survives process failures.
// Checkpoints (all protocols), the TEL event logger, and — in durable
// mode — sender logs write here.
//
// The package splits policy from mechanism. A Backend is the mechanism:
// an atomic key/value medium with an explicit durability contract. Two
// are provided: the simulated in-memory backend ("sim", the default,
// whose contents survive rank failures because only volatile rank state
// is dropped on a simulated crash) and a real disk backend ("disk",
// per-shard parallel write-ahead log files with group commit, which
// survives SIGKILL of the whole process). The Store is the policy
// wrapper every caller goes through: it charges the configured
// read/write latencies so that protocols which lean on stable storage
// (TEL) are charged realistically relative to protocols that do not
// (TDI, TAG), and it counts every operation for the figures.
package stable

import (
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"windar/internal/clock"
)

// Backend is a pluggable durable medium holding two kinds of object:
// keys, each bound to one value, and streams, each a FIFO of numbered
// entries that is appended at the tail and released as a prefix (the
// shape of a sender log). A name ending in '/' names a stream, any
// other name a key; the two namespaces do not overlap.
//
// Contract:
//
//   - Every mutation is atomic: after a crash at any instant, a later
//     Open observes for each key either the previous value or the new
//     one, never a torn mix. Backends achieve this with whole-record
//     checksums (disk) or plain memory writes (sim).
//   - Put and Rename are durable when they return: the mutation has
//     been flushed and fsynced (possibly as part of a group commit that
//     batches neighbouring mutations into one fsync).
//   - PutLazy and Delete are durable by the completion of the next
//     Sync, Put, or Rename that follows them; until then a crash may
//     lose (but never tear) them. They exist so hot paths can append
//     without waiting a full fsync round-trip.
//   - Sync is the group-commit barrier: when it returns, every mutation
//     that returned before Sync was called is durable.
//   - Get and Keys observe all completed mutations, durable or not.
//
// Streams: Put and PutLazy on a stream name append data as the entry
// numbered one past the stream's tail (the first entry of a fresh stream
// is 1) instead of replacing a value. Truncate releases a prefix and
// Rewind discards a suffix and repositions the tail; both are lazy like
// Delete, and each costs one log record however many entries it drops.
// An entry appended at or below the truncation point is dead on arrival.
// Scan reads the live entries back in order. Get, Delete, Rename, Keys
// and Len see keys only.
//
// All methods are safe for concurrent use.
type Backend interface {
	// Kind identifies the backend ("sim", "disk") for wiring and stats.
	Kind() string
	// Put atomically and durably stores data under key.
	Put(key string, data []byte) error
	// PutLazy atomically stores data under key; durable at next Sync.
	PutLazy(key string, data []byte) error
	// Get returns the value stored under key. The returned slice is a
	// copy the caller may retain.
	Get(key string) ([]byte, bool)
	// Delete removes key if present; durable at next Sync.
	Delete(key string) error
	// Rename atomically and durably moves the value at oldKey to
	// newKey, overwriting newKey and removing oldKey. Renaming a
	// missing key is an error.
	Rename(oldKey, newKey string) error
	// Keys returns the stored keys with the given prefix, sorted.
	Keys(prefix string) []string
	// Len returns the number of stored keys.
	Len() int
	// Truncate releases every entry of stream numbered upTo or below;
	// durable at next Sync. Releasing an already released prefix is a
	// no-op; upTo may lie past the tail.
	Truncate(stream string, upTo int64) error
	// Rewind discards every entry of stream numbered above tail and makes
	// tail the number the next append counts on from; durable at next
	// Sync. Rewinding to beyond the current tail is an error. A rank that
	// rolls back to a checkpoint rewinds its streams to the checkpoint's
	// send frontier before it re-executes the sends.
	Rewind(stream string, tail int64) error
	// Scan calls fn for every live entry of stream in ascending order and
	// stops at fn's first error, which it returns. data is only valid
	// during the call, and fn must not call back into the backend.
	Scan(stream string, fn func(seq int64, data []byte) error) error
	// Sync flushes: on return every prior mutation is durable.
	Sync() error
	// Close flushes and releases resources. Idempotent.
	Close() error
}

// IsStream reports whether name names a stream rather than a key.
func IsStream(name string) bool { return strings.HasSuffix(name, "/") }

// Stats reports a Store's cumulative usage counters. Writes counts
// Put+PutLazy+Rename, Deletes counts Delete+Truncate+Rewind (charged like
// a write since a real log must durably record the tombstone), Syncs
// counts explicit Sync barriers.
type Stats struct {
	Writes       int64
	Reads        int64
	Deletes      int64
	Syncs        int64
	BytesWritten int64
}

// Store is the latency-charging, counting front of a Backend. It is
// safe for concurrent use by every rank in the cluster.
type Store struct {
	clk          clock.Clock
	writeLatency time.Duration
	readLatency  time.Duration
	backend      Backend

	writes, reads, deletes, syncs, bytesWritten atomic.Int64
}

// Options configures a Store.
type Options struct {
	// Clock used to charge latency. Defaults to the real clock.
	Clock clock.Clock
	// WriteLatency is paid by every Put, Delete, and Rename before it
	// becomes durable. PutLazy pays nothing: it models an asynchronous
	// buffered log append whose cost is charged at the Sync barrier.
	WriteLatency time.Duration
	// ReadLatency is paid by every Get.
	ReadLatency time.Duration
	// Backend is the durable medium. Defaults to a fresh sim backend.
	Backend Backend
}

// NewStore returns a store with the given options.
func NewStore(opts Options) *Store {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.Backend == nil {
		opts.Backend = NewSim()
	}
	return &Store{
		clk:          opts.Clock,
		writeLatency: opts.WriteLatency,
		readLatency:  opts.ReadLatency,
		backend:      opts.Backend,
	}
}

// Backend returns the underlying medium.
func (s *Store) Backend() Backend { return s.backend }

// Durable reports whether the backend survives process death (anything
// but the simulated in-memory backend).
func (s *Store) Durable() bool { return s.backend.Kind() != "sim" }

func (s *Store) chargeWrite() {
	if s.writeLatency > 0 {
		s.clk.Sleep(s.writeLatency)
	}
}

func (s *Store) chargeRead() {
	if s.readLatency > 0 {
		s.clk.Sleep(s.readLatency)
	}
}

// Put durably stores data under key, overwriting any previous value.
// The stored bytes are copied, so the caller may reuse its buffer.
func (s *Store) Put(key string, data []byte) error {
	s.chargeWrite()
	err := s.backend.Put(key, data)
	s.writes.Add(1)
	s.bytesWritten.Add(int64(len(data)))
	return err
}

// PutLazy stores data under key — or appends it to the stream key names
// — without waiting for durability (or charging write latency): the
// write is durable at the next Sync, Put, or Rename. Hot paths use it
// for log appends that a checkpoint's Sync barrier later makes durable
// in one batch.
//
//windar:hotpath
func (s *Store) PutLazy(key string, data []byte) error {
	err := s.backend.PutLazy(key, data)
	s.writes.Add(1)
	s.bytesWritten.Add(int64(len(data)))
	return err
}

// Get returns a copy of the value stored under key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.chargeRead()
	s.reads.Add(1)
	return s.backend.Get(key)
}

// Delete removes key if present. A real log must durably record the
// tombstone, so Delete pays the write latency and is counted like a
// write.
func (s *Store) Delete(key string) error {
	s.chargeWrite()
	err := s.backend.Delete(key)
	s.deletes.Add(1)
	return err
}

// Truncate releases stream's entries numbered upTo or below. Like Delete
// it pays the write latency once and is counted once, however many
// entries it releases.
func (s *Store) Truncate(stream string, upTo int64) error {
	s.chargeWrite()
	err := s.backend.Truncate(stream, upTo)
	s.deletes.Add(1)
	return err
}

// Rewind discards stream's entries numbered above tail and repositions
// the stream there; charged and counted like Truncate.
func (s *Store) Rewind(stream string, tail int64) error {
	s.chargeWrite()
	err := s.backend.Rewind(stream, tail)
	s.deletes.Add(1)
	return err
}

// Scan reads stream's live entries in order, paying the read latency
// once.
func (s *Store) Scan(stream string, fn func(seq int64, data []byte) error) error {
	s.chargeRead()
	s.reads.Add(1)
	return s.backend.Scan(stream, fn)
}

// Rename atomically and durably moves oldKey to newKey.
func (s *Store) Rename(oldKey, newKey string) error {
	s.chargeWrite()
	err := s.backend.Rename(oldKey, newKey)
	s.writes.Add(1)
	return err
}

// Keys returns the stored keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string { return s.backend.Keys(prefix) }

// Sync is the group-commit barrier: on return, every previously
// completed mutation (including lazy puts and deletes) is durable.
func (s *Store) Sync() error {
	s.chargeWrite()
	err := s.backend.Sync()
	s.syncs.Add(1)
	return err
}

// Close flushes and closes the backend. Idempotent.
func (s *Store) Close() error { return s.backend.Close() }

// Stats reports cumulative usage counters.
func (s *Store) Stats() Stats {
	return Stats{
		Writes:       s.writes.Load(),
		Reads:        s.reads.Load(),
		Deletes:      s.deletes.Load(),
		Syncs:        s.syncs.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

// Len returns the number of stored objects.
func (s *Store) Len() int { return s.backend.Len() }

// sortedKeys is a small shared helper for backends' Keys.
func sortedKeys(out []string) []string {
	sort.Strings(out)
	return out
}
