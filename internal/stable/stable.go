// Package stable is the durable medium that survives process failures.
// Checkpoints (all protocols), the TEL event logger, and — in durable
// mode — sender logs write here.
//
// A Backend is an atomic key/value medium with an explicit durability
// contract, and it is the one interface every caller holds. Two are
// provided: the simulated in-memory backend ("sim", the default, whose
// contents survive rank failures because only volatile rank state is
// dropped on a simulated crash) and a real disk backend ("disk", per-shard
// parallel write-ahead log files with group commit, which survives
// SIGKILL of the whole process). No latency is modelled on top: a write
// costs what the backend really costs.
package stable

import (
	"sort"
	"strings"
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
//   - No method retains the data it is handed: the caller may reuse the
//     buffer once the call returns.
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

// sortedKeys is a small shared helper for backends' Keys.
func sortedKeys(out []string) []string {
	sort.Strings(out)
	return out
}
