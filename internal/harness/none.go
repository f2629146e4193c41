package harness

import (
	"windar/internal/proto"
	"windar/internal/wire"
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
