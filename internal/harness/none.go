package harness

import (
	"windar/internal/proto"
	"windar/internal/wire"
	"windar/layer"
)

// unprotected is the None protocol: no piggyback, no state, and every
// FIFO head whose tag matches is deliverable. It exists so that the
// delivery scan and the control paths need no branch of their own; the
// chain of a None rank (buildChain) never calls the piggyback hooks.
type unprotected struct{}

func (unprotected) Name() string                              { return string(None) }
func (unprotected) PiggybackForSend(int, int64) ([]byte, int) { return nil, 0 }
func (unprotected) Deliverable(*wire.Envelope, int64) (proto.Verdict, error) {
	return proto.Deliver, nil
}
func (unprotected) OnDeliver(*wire.Envelope, int64) error { return nil }
func (unprotected) AppendSnapshot(dst []byte) []byte      { return dst }
func (unprotected) Restore([]byte) error                  { return nil }
func (unprotected) BeginRecovery()                        {}
func (unprotected) OnPeerRollback(int, int64)             {}

// bareHandler is a None rank's innermost layer in place of coreHandler:
// no sender log, so the send copies its payload into the rank's arena —
// queue A may hold it after Send returns, and the application may then
// reuse its buffer.
type bareHandler struct {
	arena *wire.Arena
}

// Send implements layer.Handler.
func (h bareHandler) Send(m *layer.Msg) { m.Payload = h.arena.Copy(m.Payload) }

// Deliver implements layer.Handler.
func (bareHandler) Deliver(*layer.Msg) {}

// Checkpoint implements layer.Handler.
func (bareHandler) Checkpoint(*layer.CheckpointInfo) {}

// Restore implements layer.Handler.
func (bareHandler) Restore(*layer.RestoreInfo) {}
