// Package mem names the in-process simulated fabric as a transport:
// *fabric.Fabric implements transport.Transport itself, with its
// latency/bandwidth/jitter model and crash semantics, so the mem
// transport is byte-for-byte the substrate the paper-figure experiments
// always ran on.
package mem

import "windar/internal/fabric"

// New builds a mem transport: a fresh fabric configured by cfg.
func New(cfg fabric.Config) *fabric.Fabric { return fabric.New(cfg) }
