package harness

import (
	"fmt"

	"windar/internal/ckpt"
	"windar/internal/proto"
)

// Durable sender logs (Config.DurableLogs): every log record is also
// appended, as it is, to the stable store's stream slog/<rank>/<dest>/,
// so a process that dies with SIGKILL can rebuild its retained sender log
// from them. The store numbers a stream's entries from 1 as they are
// appended, exactly as the rank numbers its sends to one destination, so
// an entry's number is its send index: CHECKPOINT_ADVANCE's release is
// one Truncate and recovery one Scan up to the checkpoint's send frontier.
// Appends ride the WAL's lazy path (PutLazy, no fsync wait); the next
// checkpoint Save is the group-commit barrier that makes them durable,
// which is exactly the coverage a LogExternal restore relies on: items
// with SendIndex <= cp.LastSendIndex[dest] were appended before the
// snapshot and are durable once the Save that published cp completed.
// Items appended later may be lost with the process; a full-cluster
// restart regenerates them by replaying from the checkpointed step, which
// is why every incarnation first rewinds its streams to its frontier.

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

// slogAppend mirrors one just-logged record into its channel's stream.
// Called under the rank lock on the send path; PutLazy never sleeps, so
// the lock is safe to hold across it.
//
//windar:hotpath
func (r *rankRuntime) slogAppend(dest int, rec []byte) {
	if err := r.c.store.PutLazy(r.c.slogNames[r.id][dest], rec); err != nil {
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
// appends them afresh under the same numbers. It runs before the
// incarnation starts; without durable logs it does nothing.
func (r *rankRuntime) slogRewind() error {
	if !r.c.durableLogs {
		return nil
	}
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

// restoreLog rebuilds r's empty sender log from checkpoint cp: it adopts
// the checkpoint's log view or, for a LogExternal checkpoint, appends the
// rank's stream entries up to the checkpoint's send frontier. Later
// entries are sends after the snapshot, which the incarnation redoes (a
// restart may have lost them anyway: they were lazy), so restore rewinds
// them away.
func (r *rankRuntime) restoreLog(cp *ckpt.Checkpoint) error {
	if !cp.LogExternal {
		r.log.Adopt(cp.LogView)
		return nil
	}
	for dest, name := range r.c.slogNames[r.id] {
		if dest == r.id {
			continue
		}
		frontier := cp.LastSendIndex[dest]
		err := r.c.store.Scan(name, func(seq int64, data []byte) error {
			if seq > frontier {
				return nil
			}
			var it proto.LogItem
			n, err := proto.DecodeLogItem(&it, data)
			if err == nil && n != len(data) {
				err = proto.ErrCorruptLogItem
			}
			if err == nil && (it.SendIndex != seq || it.Dest != dest) {
				err = fmt.Errorf("holds send %d to rank %d", it.SendIndex, it.Dest)
			}
			if err != nil {
				return fmt.Errorf("harness: rank %d: stream %s entry %d: %w", r.id, name, seq, err)
			}
			r.log.Append(it) // in seq = SendIndex order; copies what Scan lends
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
