// Package app defines the application model the rollback-recovery harness
// executes: deterministic, step-structured message-passing programs.
//
// An application runs as a sequence of steps. Within a step it exchanges
// messages through an Env; between steps the harness may take a
// checkpoint (the paper's protocols checkpoint "before delivering a
// message", which step boundaries satisfy). On recovery the harness
// re-creates the application, restores the checkpointed snapshot, and
// re-executes from the checkpointed step; the application must therefore
// be deterministic given its state and the messages delivered to it. If
// it uses AnySource receives, its computation must be insensitive to the
// arrival order of the matched messages — the exact property Section II.C
// of the paper observes in real MPI programs and that the TDI protocol
// exploits.
package app

// AnySource, passed as the source of Recv, matches a message from any
// rank — the MPI_ANY_SOURCE of the paper's discussion, introducing
// non-deterministic delivery. Under TDI an app that uses it must be
// insensitive to the arrival order of the matched messages: TDI does not
// log that order, and a recovering rank may deliver them in another one.
// TAG and TEL replay the logged order. A restored rank's first AnySource
// delivery also costs TDI piggyback bytes: from then on, regenerated
// sends at or below a peer's resync floor carry full vectors. A replay
// that names every source sends the deltas of the original run, except
// after a whole-cluster restart, which gates every rank.
const AnySource = -1

// AnyTag, passed as the tag of Recv, matches any tag on the candidate
// message.
const AnyTag = -1

// Env is the communication interface the harness hands an application.
// All methods are invoked from the application's own goroutine only.
//
// Delivery is strictly FIFO per sender channel (stronger than MPI, and
// what Algorithm 1 line 19 assumes): a Recv naming a specific source
// must request messages in the order that source sent them.
type Env interface {
	// Rank returns this process's id (0-based).
	Rank() int
	// N returns the number of processes.
	N() int
	// Send transmits data to dest with the given tag. In the harness's
	// non-blocking mode it returns immediately (Fig. 4(b)); in blocking
	// mode it returns when the destination has accepted the message
	// (Fig. 4(a)). Either way data is copied before Send returns, so the
	// application may reuse the buffer for its next message.
	Send(dest int, tag int32, data []byte)
	// Recv blocks until a message matching (source, tag) is deliverable
	// under the logging protocol's constraints, delivers it, and returns
	// its payload and actual source. source may be AnySource, tag may be
	// AnyTag.
	//
	// data is lent until the application's next Recv, as the buffer of
	// an MPI_Recv is the caller's: until then it is the receiver's alone
	// — it never aliases the sender's logged bytes or any other delivery —
	// and the application may overwrite it or append to it (its capacity
	// is clipped to its length, so an append copies out). The next Recv
	// takes it back for a later message, so whoever keeps the bytes past
	// that copies them, just as Send copies the application's buffer.
	// A payload kept anyway reads wire.Poison until the memory carries a
	// later message.
	Recv(source int, tag int32) (data []byte, from int)
}

// App is a deterministic step-structured application. One instance exists
// per rank per incarnation; the harness never shares an instance across
// goroutines.
type App interface {
	// Steps returns the total number of steps the application executes.
	// It must be a constant for a given configuration.
	Steps() int
	// Step executes step s (0-based), exchanging messages via env.
	Step(env Env, s int)
	// Snapshot serializes the application state between steps. The
	// harness reads the result only before the application's next Step,
	// so the application may reuse one buffer for every snapshot.
	Snapshot() []byte
	// Restore replaces the application state with a prior Snapshot.
	Restore(data []byte) error
}

// Factory creates the rank-th application instance of an n-process run.
// It is called for the initial launch and again for every incarnation.
type Factory func(rank, n int) App
