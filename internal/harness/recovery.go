package harness

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"windar/internal/ckpt"
	"windar/internal/wire"
	"windar/layer"
)

// errNoRecovery is what Kill, Recover and StartFromStable return under
// protocol None, which keeps nothing to recover from.
var errNoRecovery = errors.New("harness: protocol none cannot kill, recover or restart a rank")

// Kill injects a failure: rank's volatile state (receiving queue, sender
// log, protocol state, unsent queue-A messages, application memory) is
// lost; its goroutines unwind; messages already in its inbox are dropped;
// in-flight messages park at the transport until an incarnation revives the
// rank. Other ranks' collections keep counting it: it answers their
// ROLLBACKs once it revives (see restore).
func (c *Cluster) Kill(rank int) error {
	if c.cfg.Protocol == None {
		return errNoRecovery
	}
	c.ranksMu.Lock()
	r := c.ranks[rank]
	c.ranksMu.Unlock()
	if r == nil {
		return fmt.Errorf("harness: rank %d was never started", rank)
	}
	if r.isKilled() {
		return fmt.Errorf("harness: rank %d is already dead", rank)
	}
	// The abort channel closes before the transport kill wakes every
	// sender blocked on a full link: woken before the close, a sender of
	// this rank would sleep on until the link drained — never, toward a
	// dead destination — and Recover would wait on it forever.
	r.kill()
	c.tr.Kill(rank) // the inbox content is lost

	// The failure point is read only after the rank is stopped: the app
	// goroutine may deliver between an earlier read and the kill, and an
	// incarnation rolling forward to a stale count would silently lose
	// those deliveries.
	r.mu.Lock()
	pre := r.deliveredCount
	r.mu.Unlock()

	c.ranksMu.Lock()
	// High-water, not overwrite: a crash during roll-forward reads a
	// deliveredCount below the previous failure point, but the incarnation
	// replays deterministically through the same prefix, so the original
	// target still bounds the roll.
	if pre > c.failedAt[rank] {
		c.failedAt[rank] = pre
	}
	c.finished[rank] = false
	c.ranksMu.Unlock()

	c.observer().OnKill(rank)
	return nil
}

// Recover creates rank's incarnation on a "spare node": restore({rank}).
func (c *Cluster) Recover(rank int) error {
	c.ranksMu.Lock()
	old := c.ranks[rank]
	c.ranksMu.Unlock()
	if old == nil {
		return fmt.Errorf("harness: rank %d was never started", rank)
	}
	return c.restore([]int{rank})
}

// restore starts a new incarnation of every rank in dead — ranks killed
// in this process, or never started in it (a restart) — and is the one
// recovery procedure for any failure set (Algorithm 1 lines 40-46). Each
// rank restores its last checkpoint, or the initial state when it has
// none, broadcasts a ROLLBACK carrying the restored frontier (zero
// without a checkpoint), and re-executes the application from the
// restored step while peers resend what it lost.
//
// Each rank awaits a RESPONSE to its ROLLBACK from every peer; a death
// never shrinks the count. A peer that is down answers after it revives:
// the open collections (respAwait) are the only record of who still owes
// a RESPONSE, and a revived rank is sent every ROLLBACK whose collection
// still counts it. Only a proto.Replayer holds deliveries until its
// collection closes, so TDI never waits on a down peer.
//
// Everything that can fail runs before any incarnation is published or
// started: on an error every rank in dead stays down.
func (c *Cluster) restore(dead []int) error {
	if c.cfg.Protocol == None {
		return errNoRecovery
	}
	rs := make([]*rankRuntime, len(dead))
	from := make([]int, len(dead))
	for i, rank := range dead {
		c.ranksMu.Lock()
		old := c.ranks[rank]
		c.ranksMu.Unlock()
		var inc int32
		if old != nil {
			if !old.isKilled() {
				return fmt.Errorf("harness: rank %d is still alive", rank)
			}
			// The dead incarnation may still be inside a send it began
			// before the kill, and its sender loop and resends may still
			// be draining into links that have room. Wait them all out:
			// its last durable-log append must not land behind this
			// incarnation's rewind, and nothing it sends may follow this
			// incarnation's ROLLBACK, which a peer's resync floor
			// (handleRollback) relies on.
			old.senders.Wait()
			inc = old.incarnation + 1
		}
		r, err := c.newRuntime(rank, inc)
		if err != nil {
			return err
		}
		r.restarted = old == nil // only StartFromStable restores a never-started rank
		cp, ok, err := c.ckpts.Load(rank)
		if err != nil {
			return fmt.Errorf("harness: rank %d restore: %w", rank, err)
		}
		if ok {
			if err := r.restoreCheckpoint(cp); err != nil {
				return err
			}
			from[i] = cp.Step
			// A restart begins mid-history: seed trace baselines (the
			// recorder, when it is the observer) so invariant checking
			// measures the resumed run against the restored frontier
			// instead of zero.
			if s, ok := c.cfg.Observer.(interface {
				SeedCheckpoint(rank, step int, lastSend, lastDeliver []int64, delivered int64)
			}); ok && old == nil {
				s.SeedCheckpoint(cp.Rank, cp.Step, cp.LastSendIndex, cp.LastDeliverIndex, cp.DeliveredCount)
			}
		}
		if err := r.slogRewind(); err != nil {
			return err
		}
		r.rollback = encodeRollback(r.deliveredCount, r.lastDeliverIndex, r.lastSendIndex)
		r.beginRecovery()
		rs[i] = r
	}

	// Publish every incarnation before any starts: each must be able to
	// serve the others' ROLLBACKs from its first instant.
	now := c.clk.Now()
	c.ranksMu.Lock()
	for _, r := range rs {
		// collect-demands spans the ROLLBACK broadcast (which start fires
		// before the application resumes) to the last peer RESPONSE.
		r.recoveryStart, r.collectStart = now, now
		r.recoveryTarget = c.failedAt[r.id]
		r.recovering = r.recoveryTarget > r.deliveredCount
		r.collectPending = r.recovering
		c.ranks[r.id] = r
	}
	c.ranksMu.Unlock()

	for i, r := range rs {
		c.observer().OnRollback(r.id, r.n-1)
		if !r.recovering {
			// The failure lost no deliveries (it struck right after a
			// checkpoint, or this is a restart): rolling forward is
			// trivially complete. All four phase spans are emitted at
			// zero duration so phase summaries stay symmetric across
			// runs.
			c.coll.Rank(r.id).RecoveryDone(0)
			c.observer().OnRecoveryComplete(r.id, 0)
			for _, phase := range RecoveryPhases {
				c.emitPhase(r.id, phase, 0)
			}
		}
		r.mu.Lock()
		r.collectedLocked() // a one-rank cluster awaits no one
		r.mu.Unlock()
		// The restore notification precedes start: once the application
		// runs, its first deliveries must already belong to an
		// incarnation the observers know about (the trace checker ignores
		// a dead rank's events until it sees the recover).
		info := layer.RestoreInfo{Rank: r.id, FromStep: from[i], Incarnation: int(r.incarnation)}
		r.chain.Restore(&info)
		c.tr.Revive(r.id)
		r.start(from[i])
	}
	c.sendOwedRollbacks(rs)
	return nil
}

// sendOwedRollbacks sends each revived incarnation every ROLLBACK whose
// open collection still counts its rank. The broadcast may have been lost
// with a dead incarnation's inbox, or received by one that died before
// answering; without the resend a recoverer could wait forever for
// determinants or log resends only this rank holds. A rank restored in
// the same set needs none: its own broadcast reached the others. A
// duplicate ROLLBACK is harmless: the rank answers twice, and the
// collection counts it once.
func (c *Cluster) sendOwedRollbacks(revived []*rankRuntime) {
	c.ranksMu.Lock()
	peers := append([]*rankRuntime(nil), c.ranks...)
	c.ranksMu.Unlock()
	for _, o := range peers {
		if o == nil || o.isKilled() || slices.Contains(revived, o) {
			continue
		}
		for _, p := range revived {
			o.mu.Lock()
			owed := o.respAwait != nil && o.respAwait[p.id]
			o.mu.Unlock()
			if !owed {
				continue
			}
			env := &wire.Envelope{Kind: wire.KindRollback, From: o.id, To: p.id,
				Incarnation: o.incarnation, Payload: o.rollback}
			if c.tr.Send(env, transportSendOpts(false, o.killed)) == nil {
				c.coll.Rank(o.id).ControlMsg()
			}
		}
	}
}

// restoreCheckpoint applies checkpoint cp to a not-yet-started runtime:
// application image, protocol state, counter vectors, sender log (inline
// or rebuilt from the slog streams for incremental checkpoints), and
// the delivery shards' ingest-side duplicate bound — the shard mirror is
// what the receiver consults, and a zero mirror would re-admit messages
// the checkpoint already covers. No locks are needed: the runtime's
// goroutines have not launched.
func (r *rankRuntime) restoreCheckpoint(cp *ckpt.Checkpoint) error {
	if err := r.theApp.Restore(cp.AppImage); err != nil {
		return fmt.Errorf("harness: rank %d app restore: %w", r.id, err)
	}
	if err := r.prot.Restore(cp.ProtoState); err != nil {
		return fmt.Errorf("harness: rank %d protocol restore: %w", r.id, err)
	}
	r.lastSendIndex.CopyFrom(cp.LastSendIndex)
	r.lastDeliverIndex.CopyFrom(cp.LastDeliverIndex)
	// Peers were last told about the checkpointed delivery state; the
	// new checkpoint baseline is exactly that.
	r.lastCkptDeliverIndex.CopyFrom(cp.LastDeliverIndex)
	r.deliveredCount = cp.DeliveredCount
	if err := r.restoreLog(cp); err != nil {
		return err
	}
	for i := range r.shards {
		r.shards[i].delivered = r.lastDeliverIndex[i]
	}
	return nil
}

// StartFromStable launches the cluster with every rank restored from its
// durable checkpoint — the full-cluster restart path after the whole
// process was SIGKILLed under a durable backend (Config.Stable): it is
// restore of every rank. Call it instead of Start on a cluster whose
// stable backend holds a previous run's state.
//
// Each rank broadcasts a ROLLBACK exactly as a single-rank recovery
// would, with a zero frontier when it has no durable checkpoint: peers
// answer with RESPONSEs that re-establish repetitive-send suppression
// bounds and resync floors, and resend the retained log items beyond the
// restored delivery frontier. Nothing below any checkpoint was lost, so
// every roll is trivially complete (the restart analogue of a failure
// striking right after a checkpoint); deliveries the restart rolled back
// are re-produced by peers' deterministic replay, and the regenerated
// duplicates of already-delivered messages are absorbed by receiver-side
// duplicate discard.
//
// The restart sets the reorder flag before any rank starts: an earlier
// process may have logged records regenerated by a reordered AnySource
// replay, and a rank that redelivers one from a peer's log diverges from
// the sends its own peers merged, although it names every source.
func (c *Cluster) StartFromStable() error {
	c.replayReordered.Store(true)
	all := make([]int, c.cfg.N)
	for rank := range all {
		all[rank] = rank
	}
	if err := c.restore(all); err != nil {
		return err
	}
	if c.cfg.StallTimeout > 0 {
		go c.stallWatchdog()
	}
	return nil
}

// KillAndRecover kills rank, waits detectDelay (the failure-detection
// latency), then starts the incarnation.
func (c *Cluster) KillAndRecover(rank int, detectDelay time.Duration) error {
	if err := c.Kill(rank); err != nil {
		return err
	}
	if detectDelay > 0 {
		c.clk.Sleep(detectDelay)
	}
	return c.Recover(rank)
}
