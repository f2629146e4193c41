// Package mem adapts the in-process simulated fabric
// (internal/fabric) to the transport.Transport interface. The fabric
// keeps its latency/bandwidth/jitter model and crash semantics; this
// package only translates types, so the mem transport is byte-for-byte
// the substrate the paper-figure experiments always ran on.
package mem

import (
	"errors"

	"windar/internal/fabric"
	"windar/internal/transport"
	"windar/internal/wire"
)

// Transport is the fabric-backed transport.
type Transport struct {
	fab *fabric.Fabric
}

var _ transport.Transport = (*Transport)(nil)

// New builds a mem transport over a fresh fabric configured by cfg.
func New(cfg fabric.Config) *Transport {
	return &Transport{fab: fabric.New(cfg)}
}

// N implements transport.Transport.
func (t *Transport) N() int { return t.fab.N() }

// Kind implements transport.Transport.
func (t *Transport) Kind() transport.Kind { return transport.Mem }

// Send implements transport.Transport.
func (t *Transport) Send(env *wire.Envelope, opts transport.SendOpts) error {
	err := t.fab.Send(env, fabric.SendOpts{Rendezvous: opts.Rendezvous, Abort: opts.Abort})
	if errors.Is(err, fabric.ErrAborted) {
		return transport.ErrAborted
	}
	return err
}

// TrySend implements transport.InlineSender: on an instant fabric the
// envelope is decoded straight into the destination inbox.
func (t *Transport) TrySend(env *wire.Envelope) bool { return t.fab.TrySend(env) }

// Inbox implements transport.Transport: the fabric's inbox is a
// transport.Queue.
func (t *Transport) Inbox(rank int) transport.Inbox { return t.fab.Inbox(rank) }

// Kill implements transport.Transport.
func (t *Transport) Kill(rank int) { t.fab.Kill(rank) }

// Revive implements transport.Transport.
func (t *Transport) Revive(rank int) { t.fab.Revive(rank) }

// Stall implements transport.Transport.
func (t *Transport) Stall(rank int) { t.fab.Stall(rank) }

// Unstall implements transport.Transport.
func (t *Transport) Unstall(rank int) { t.fab.Unstall(rank) }

// Alive implements transport.Transport.
func (t *Transport) Alive(rank int) bool { return t.fab.Alive(rank) }

// InFlight implements transport.Transport.
func (t *Transport) InFlight() int { return t.fab.InFlight() }

// Close implements transport.Transport.
func (t *Transport) Close() { t.fab.Close() }
