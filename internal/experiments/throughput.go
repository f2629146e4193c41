package experiments

import (
	"fmt"
	"runtime"
	"time"

	"windar/internal/fabric"
	"windar/internal/harness"
	"windar/internal/metrics"
	"windar/internal/transport"
	"windar/internal/workload"
)

// UnshardedBaselineMsgsPerSec is the mem-transport delivery rate of the
// pre-sharding delivery manager (one rank-wide mutex serializing every
// Deliverable probe, piggyback decode and FIFO-head scan), measured with
// the default ThroughputOptions on the commit that introduced this bench.
// It is the fixed reference the throughput figure reports its speedup
// against; the CI gate compares fresh runs against the committed
// BENCH_throughput.json instead, so this constant never fails a build on
// a slower machine.
const UnshardedBaselineMsgsPerSec = 520000

// ThroughputRow is one transport's cell of the delivery-throughput
// figure.
type ThroughputRow struct {
	Transport string `json:"transport"`
	Procs     int    `json:"procs"`
	// Msgs is the number of application messages delivered cluster-wide.
	Msgs      int64 `json:"msgs"`
	ElapsedNS int64 `json:"elapsed_ns"`
	// MsgsPerSec is the figure's headline: delivered messages per second
	// of wall time across the whole cluster.
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// AllocsPerMsg is total heap allocations during the run divided by
	// delivered messages — a whole-system companion to the per-probe
	// alloc gate (it includes startup, checkpoints and the app itself,
	// so it is small but not zero).
	AllocsPerMsg float64 `json:"allocs_per_delivered_msg"`
}

// ThroughputOptions configures the delivery-throughput bench.
type ThroughputOptions struct {
	// Procs is the rank count; default 16 (the acceptance cell).
	Procs int
	// Steps per rank; default 60.
	Steps int
	// Window is the flood app's in-flight window; default
	// workload.DefaultFloodWindow.
	Window int
	// Transports to measure; default mem then tcp.
	Transports []string
	// Seed for the (latency-free) mem fabric.
	Seed int64
}

func (o ThroughputOptions) withDefaults() ThroughputOptions {
	if o.Procs == 0 {
		o.Procs = 16
	}
	if o.Steps == 0 {
		o.Steps = 400
	}
	if o.Window == 0 {
		o.Window = 2 * workload.DefaultFloodWindow
	}
	if len(o.Transports) == 0 {
		o.Transports = []string{transport.Mem, transport.TCP}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunThroughput measures end-to-end delivery throughput of the flood
// workload on each requested transport. The mem fabric runs with zero
// modelled latency so the software path — enqueue, Deliverable scan,
// piggyback decode, chain delivery — is the bottleneck being measured,
// not the network model.
func RunThroughput(o ThroughputOptions) ([]ThroughputRow, error) {
	o = o.withDefaults()
	rows := make([]ThroughputRow, 0, len(o.Transports))
	for _, tr := range o.Transports {
		row, err := runThroughputOnce(o, tr)
		if err != nil {
			return nil, fmt.Errorf("experiments: throughput on %s: %w", tr, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runThroughputOnce(o ThroughputOptions, tr string) (ThroughputRow, error) {
	cfg := harness.Config{
		N:        o.Procs,
		Protocol: harness.TDI,
		// No checkpoints: the figure isolates steady-state delivery,
		// and the unsharded baseline was measured the same way. The run
		// is short enough that unreleased sender logs stay small.
		Transport: transport.Kind(tr),
		Fabric: fabric.Config{
			// Zero latency and unbounded bandwidth: messages appear at
			// the destination inbox as fast as the sender can encode
			// them, so the delivery manager is the measured bottleneck.
			Seed: o.Seed,
		},
		StallTimeout: 60 * time.Second,
	}
	factory := workload.NewFlood(o.Steps, o.Window)
	c, err := harness.NewCluster(cfg, factory)
	if err != nil {
		return ThroughputRow{}, err
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now() //windar:allow directclock — throughput is a true wall-clock measurement
	if err := c.Start(); err != nil {
		return ThroughputRow{}, err
	}
	c.Wait()
	elapsed := time.Since(start) //windar:allow directclock — true wall-clock measurement
	runtime.ReadMemStats(&after)
	if h := c.Health(); !h.Finished {
		return ThroughputRow{}, fmt.Errorf("cluster did not finish cleanly")
	}
	tot := c.Metrics().Total()
	row := ThroughputRow{
		Transport: tr,
		Procs:     o.Procs,
		Msgs:      tot.MsgsDelivered,
		ElapsedNS: int64(elapsed),
	}
	if elapsed > 0 {
		row.MsgsPerSec = float64(tot.MsgsDelivered) / elapsed.Seconds()
	}
	if tot.MsgsDelivered > 0 {
		row.AllocsPerMsg = float64(after.Mallocs-before.Mallocs) / float64(tot.MsgsDelivered)
	}
	return row, nil
}

// ThroughputTable renders the throughput figure.
func ThroughputTable(rows []ThroughputRow) *metrics.Table {
	t := &metrics.Table{
		Title:  "Delivery throughput — flood workload, delivered msgs/sec",
		Header: []string{"transport", "procs", "msgs", "elapsed", "msgs/sec", "allocs/msg"},
	}
	for _, r := range rows {
		t.AddRow(r.Transport, fmt.Sprint(r.Procs), fmt.Sprint(r.Msgs),
			time.Duration(r.ElapsedNS).Round(time.Millisecond).String(),
			metrics.F(r.MsgsPerSec), metrics.F(r.AllocsPerMsg))
	}
	return t
}
