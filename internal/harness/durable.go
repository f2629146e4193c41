package harness

import (
	"fmt"

	"windar/internal/ckpt"
	"windar/internal/proto"
	"windar/internal/wire"
)

// Durable sender logs (Config.DurableLogs): every log append is mirrored
// into the stable store's stream slog/<rank>/<dest>/, one stream per
// channel, so a process that dies with SIGKILL can rebuild its retained
// sender log from them. The store numbers a stream's entries from 1 as
// they are appended, exactly as the rank numbers its sends to one
// destination, so an entry's number is its send index: the release that
// CHECKPOINT_ADVANCE triggers is one Truncate to the peer's delivered
// index and recovery is one Scan up to the checkpoint's send frontier.
// Appends ride the WAL's lazy path (PutLazy — no fsync wait on the send
// path); the next checkpoint Save is the group-commit barrier that makes
// them durable, which is exactly the coverage the checkpoint's
// LogExternal restore relies on: items with
// SendIndex <= cp.LastSendIndex[dest] were appended before the snapshot
// and are therefore durable once the Save that published cp completed.
// Items appended after the checkpoint may be lost with the process; a
// full-cluster restart regenerates them by replaying from the
// checkpointed step, which is why every incarnation first rewinds its
// streams to the frontier it starts from.

// slogStreams names rank's streams once, at cluster construction: the
// send path must not build a string per message. The entry for rank
// itself is unused.
func slogStreams(rank, n int) []string {
	names := make([]string, n)
	for dest := range names {
		names[dest] = fmt.Sprintf("slog/%03d/%03d/", rank, dest)
	}
	return names
}

// slogAppend mirrors one just-logged item into its channel's stream,
// encoded into the rank's scratch buffer. Called under the rank lock on
// the send path; PutLazy never sleeps, so the lock is safe to hold
// across it.
//
//windar:hotpath
func (r *rankRuntime) slogAppend(it *proto.LogItem) {
	r.slogBuf = proto.AppendLogItem(r.slogBuf[:0], it) //windar:allow hotpath — the scratch buffer keeps its capacity
	if err := r.c.store.PutLazy(r.c.slogNames[r.id][it.Dest], r.slogBuf); err != nil {
		panicSlog(r.id, "append", err)
	}
}

// panicSlog keeps the fmt boxing out of the hot callers.
//
//go:noinline
func panicSlog(rank int, op string, err error) {
	panic(fmt.Sprintf("harness: rank %d slog %s: %v", rank, op, err))
}

// slogRelease drops rank's mirrored items for dest up to and including
// upTo — the stable-store half of the CHECKPOINT_ADVANCE log release,
// one record whatever the number of items. Runs outside the rank lock:
// Truncate charges the store's write latency.
func (c *Cluster) slogRelease(rank, dest int, upTo int64) {
	if err := c.store.Truncate(c.slogNames[rank][dest], upTo); err != nil {
		panicSlog(rank, "release", err)
	}
}

// slogRewind positions every stream of r at the send frontier the
// incarnation starts from, discarding what a previous incarnation (or a
// previous process) appended beyond it: r re-executes those sends and
// appends them afresh under the same numbers.
func (r *rankRuntime) slogRewind() error {
	for dest, name := range r.c.slogNames[r.id] {
		if dest == r.id {
			continue
		}
		if err := r.c.store.Rewind(name, r.lastSendIndex[dest]); err != nil {
			return fmt.Errorf("harness: rank %d: durable sender log for rank %d: %w", r.id, dest, err)
		}
	}
	return nil
}

// restoreLog rebuilds r's sender log from checkpoint cp: the inline
// items, or — for an incremental (LogExternal) checkpoint — the rank's
// streams, filtered to the checkpoint's send frontier. Entries beyond
// the frontier belong to sends after the snapshot: a same-process
// recovery regenerates them deterministically, and a process restart may
// have lost them anyway (they were lazy), so start rewinds them away.
func (r *rankRuntime) restoreLog(cp *ckpt.Checkpoint) error {
	if !cp.LogExternal {
		r.log.RestoreAll(cp.Log)
		return nil
	}
	// The streams are scanned destination by destination, each in entry
	// (= send index) order, so items come out in the order RestoreAll
	// adopts in place, and one arena holds every entry's bytes.
	var items []proto.LogItem
	var arena wire.Arena
	for dest, name := range r.c.slogNames[r.id] {
		if dest == r.id {
			continue
		}
		frontier := cp.LastSendIndex[dest]
		err := r.c.store.Scan(name, func(seq int64, data []byte) error {
			if seq > frontier {
				return nil
			}
			// Scan lends data for the call only; the item keeps the copy.
			var it proto.LogItem
			n, err := proto.DecodeLogItem(&it, arena.Copy(data))
			if err == nil && n != len(data) {
				err = proto.ErrCorruptLogItem
			}
			if err == nil && (it.SendIndex != seq || it.Dest != dest) {
				err = fmt.Errorf("holds send %d to rank %d", it.SendIndex, it.Dest)
			}
			if err != nil {
				return fmt.Errorf("harness: rank %d: stream %s entry %d: %w", r.id, name, seq, err)
			}
			items = append(items, it)
			return nil
		})
		if err != nil {
			return err
		}
	}
	r.log.RestoreAll(items)
	return nil
}
