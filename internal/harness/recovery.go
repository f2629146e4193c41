package harness

import (
	"fmt"
	"sort"
	"time"

	"windar/internal/ckpt"
	"windar/internal/transport"
	"windar/internal/wire"
	"windar/layer"
)

// Kill injects a failure: rank's volatile state (receiving queue, sender
// log, protocol state, unsent queue-A messages, application memory) is
// lost; its goroutines unwind; messages already in its inbox are dropped;
// in-flight messages park at the transport until an incarnation revives the
// rank.
func (c *Cluster) Kill(rank int) error {
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
	others := append([]*rankRuntime(nil), c.ranks...)
	c.ranksMu.Unlock()

	// A crashed recoverer's demand collection dies with it; its next
	// incarnation re-registers a fresh ROLLBACK.
	c.dropRollback(rank)

	// Any rank still collecting demands must stop waiting for this one:
	// its RESPONSE will never arrive from the dead incarnation. If the
	// rank revives, the replayed ROLLBACK yields an uncounted late
	// RESPONSE instead.
	for p, o := range others {
		if p != rank && o != nil && !o.isKilled() {
			o.mu.Lock()
			o.responderDoneLocked(rank)
			o.mu.Unlock()
		}
	}

	c.observer().OnKill(rank)
	return nil
}

// Recover creates rank's incarnation on a "spare node": it restores the
// last checkpoint from stable storage (or the initial state if none was
// ever taken), broadcasts the ROLLBACK notification, and rolls forward by
// re-executing the application from the checkpointed step while peers
// resend the lost messages (Algorithm 1 lines 40-46).
func (c *Cluster) Recover(rank int) error {
	c.ranksMu.Lock()
	old := c.ranks[rank]
	c.ranksMu.Unlock()
	if old == nil {
		return fmt.Errorf("harness: rank %d was never started", rank)
	}
	if !old.isKilled() {
		return fmt.Errorf("harness: rank %d is still alive", rank)
	}

	// The dead incarnation may still be inside a send it began before
	// the kill, and its sender loop and resends may still be draining
	// into links that have room. Wait them all out: its last durable-log
	// append must not land behind this incarnation's rewind, and nothing
	// it sends may follow this incarnation's ROLLBACK, which a peer's
	// resync floor (handleRollback) relies on.
	old.senders.Wait()

	r, err := c.newRuntime(rank, old.incarnation+1)
	if err != nil {
		return err
	}
	cp, ok, err := c.ckpts.Load(rank)
	if err != nil {
		return err
	}
	fromStep := 0
	if ok {
		if err := r.restoreCheckpoint(cp); err != nil {
			return err
		}
		fromStep = cp.Step
	}

	r.recoveryStart = c.clk.Now()
	// collect-demands spans the ROLLBACK broadcast (which start fires
	// before the application resumes) to the last peer RESPONSE.
	r.collectStart = r.recoveryStart

	payload := encodeRollback(r.deliveredCount, r.lastDeliverIndex.Clone())

	// Only peers live right now can answer the ROLLBACK; a dead peer's
	// RESPONSE arrives late — after it revives and serves the replayed
	// ROLLBACK — and must not be waited for (the old N-1 count hung the
	// collection phase forever whenever a peer was down). The live-peer
	// snapshot and the publication are one ranksMu section: Kill takes its
	// snapshot of the runtimes under the same lock after stopping its
	// victim, so a peer that dies around now is either seen dead here and
	// not counted, or counted here and reported to this runtime by Kill —
	// never counted and then lost.
	c.ranksMu.Lock()
	r.recoveryTarget = c.failedAt[rank]
	recovering := r.recoveryTarget > r.deliveredCount
	r.recovering, r.collectPending = recovering, recovering
	r.beginRecovery(func(p int) bool { o := c.ranks[p]; return o != nil && !o.isKilled() })
	expect := r.respExpect
	c.ranks[rank] = r
	c.ranksMu.Unlock()

	if recovering {
		c.registerRollback(rank, r.incarnation, payload)
	}
	c.observer().OnRollback(rank, expect)
	if !recovering {
		// The failure lost no deliveries (it struck right after a
		// checkpoint): rolling forward is trivially complete. All four
		// phase spans are emitted at zero duration so phase summaries
		// stay symmetric across runs.
		c.coll.Rank(rank).RecoveryDone(0)
		c.observer().OnRecoveryComplete(rank, 0)
		for _, phase := range RecoveryPhases {
			c.emitPhase(rank, phase, 0)
		}
	}
	// No live peer to collect from (every other rank is down): the
	// collection phase is empty and the roll proceeds on replayed
	// ROLLBACKs alone. The runtime is published, so a concurrent Kill of
	// its last awaited peer may already have closed the phase: decide
	// under the rank lock.
	r.mu.Lock()
	r.collectedLocked()
	r.mu.Unlock()

	// The restore notification precedes start: once the application
	// runs, its first deliveries must already belong to an incarnation
	// the observers know about (the trace checker ignores a dead rank's
	// events until it sees the recover).
	info := layer.RestoreInfo{Rank: rank, FromStep: fromStep, Incarnation: int(r.incarnation)}
	r.chain.Restore(&info)
	c.tr.Revive(rank)
	r.start(fromStep, payload)
	// Serve this incarnation any ROLLBACK it slept through: peers still
	// collecting demands get their late RESPONSE and log resends.
	c.replayPendingRollbacks(rank)
	return nil
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
// process was SIGKILLed under a durable backend (Config.Stable). Ranks
// without a durable checkpoint start from the initial state. Call it
// instead of Start on a cluster whose stable backend holds a previous
// run's state.
//
// Each restored rank broadcasts a ROLLBACK exactly as a single-rank
// recovery would: peers answer with RESPONSEs that re-establish
// repetitive-send suppression bounds and resend the retained log items
// beyond the restored delivery frontier. Nothing below any checkpoint
// was lost, so every roll is trivially complete (the restart analogue of
// a failure striking right after a checkpoint); deliveries the restart
// rolled back are re-produced by peers' deterministic replay, and the
// regenerated duplicates of already-delivered messages are absorbed by
// receiver-side duplicate discard.
func (c *Cluster) StartFromStable() error {
	type boot struct {
		r        *rankRuntime
		fromStep int
		rollback []byte
	}
	boots := make([]boot, c.cfg.N)
	for rank := 0; rank < c.cfg.N; rank++ {
		r, err := c.newRuntime(rank, 0)
		if err != nil {
			return err
		}
		cp, ok, err := c.ckpts.LoadDurable(rank)
		if err != nil {
			return fmt.Errorf("harness: rank %d restart: %w", rank, err)
		}
		boots[rank] = boot{r: r}
		if ok {
			if err := r.restoreCheckpoint(cp); err != nil {
				return err
			}
			boots[rank].fromStep = cp.Step
			boots[rank].rollback = encodeRollback(r.deliveredCount, r.lastDeliverIndex.Clone())
			// Seed trace baselines (the recorder, when it is the
			// observer) so invariant checking measures the resumed run
			// against the restored frontier instead of zero.
			if s, ok := c.cfg.Observer.(interface {
				SeedCheckpoint(rank, step int, lastSend, lastDeliver []int64, delivered int64)
			}); ok {
				s.SeedCheckpoint(cp.Rank, cp.Step, cp.LastSendIndex, cp.LastDeliverIndex, cp.DeliveredCount)
			}
		}
	}
	// Register every runtime before any starts: each rank must be able
	// to serve the others' ROLLBACKs from its first instant.
	c.ranksMu.Lock()
	for rank := range boots {
		c.ranks[rank] = boots[rank].r
	}
	c.ranksMu.Unlock()
	for rank := range boots {
		b := &boots[rank]
		r := b.r
		if b.rollback != nil {
			// Expect a RESPONSE from every peer, exactly like a trivial
			// single-rank recovery; the protocol may gate deliveries on
			// the collected recovery data.
			r.beginRecovery(func(int) bool { return true })
			r.mu.Lock()
			r.collectedLocked() // a one-rank cluster awaits no one
			r.mu.Unlock()
		}
		// Before start, as in Recover: no delivery may precede it.
		info := layer.RestoreInfo{Rank: rank, FromStep: b.fromStep, Incarnation: int(r.incarnation)}
		r.chain.Restore(&info)
		r.start(b.fromStep, b.rollback)
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

// registerRollback records an incarnation's outstanding ROLLBACK so ranks
// that revive mid-collection can be served it (every peer starts in
// awaiting — dead ones must answer after they come back).
func (c *Cluster) registerRollback(rank int, inc int32, payload []byte) {
	awaiting := make(map[int]bool, c.cfg.N-1)
	for p := 0; p < c.cfg.N; p++ {
		if p != rank {
			awaiting[p] = true
		}
	}
	c.pendingMu.Lock()
	c.pendingRec[rank] = &pendingRollback{incarnation: inc, payload: payload, awaiting: awaiting}
	c.pendingMu.Unlock()
}

// rollbackServed marks responder's RESPONSE to recoverer's current
// incarnation as received; once served, a revival of responder no longer
// replays the ROLLBACK to it.
func (c *Cluster) rollbackServed(recoverer, responder int, inc int32) {
	c.pendingMu.Lock()
	if pr := c.pendingRec[recoverer]; pr != nil && pr.incarnation == inc {
		delete(pr.awaiting, responder)
	}
	c.pendingMu.Unlock()
}

// clearRollback drops rank's outstanding ROLLBACK once its roll-forward
// completed (only for the incarnation that registered it — a newer
// incarnation's entry must survive).
func (c *Cluster) clearRollback(rank int, inc int32) {
	c.pendingMu.Lock()
	if pr := c.pendingRec[rank]; pr != nil && pr.incarnation == inc {
		delete(c.pendingRec, rank)
	}
	c.pendingMu.Unlock()
}

// dropRollback unconditionally discards rank's outstanding ROLLBACK (its
// incarnation died; the next one registers afresh).
func (c *Cluster) dropRollback(rank int) {
	c.pendingMu.Lock()
	delete(c.pendingRec, rank)
	c.pendingMu.Unlock()
}

// replayPendingRollbacks re-sends to the just-revived rank every ROLLBACK
// it has not yet served. The original broadcast to it died in its dead
// window; without the replay a recoverer could wait forever for log
// resends only this rank holds.
func (c *Cluster) replayPendingRollbacks(revived int) {
	c.pendingMu.Lock()
	var envs []*wire.Envelope
	for rank, pr := range c.pendingRec {
		if rank == revived || !pr.awaiting[revived] {
			continue
		}
		envs = append(envs, &wire.Envelope{
			Kind:        wire.KindRollback,
			From:        rank,
			To:          revived,
			Incarnation: pr.incarnation,
			Payload:     append([]byte(nil), pr.payload...),
		})
	}
	c.pendingMu.Unlock()
	sort.Slice(envs, func(i, j int) bool { return envs[i].From < envs[j].From })
	for _, env := range envs {
		c.coll.Rank(env.From).ControlMsg()
		if err := c.tr.Send(env, transport.SendOpts{}); err != nil {
			// The recoverer died between the snapshot and the send; its
			// next incarnation re-registers and re-broadcasts.
			continue
		}
	}
}
