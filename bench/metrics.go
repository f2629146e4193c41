package main

import (
	"sort"
	"time"

	"windar/internal/harness"
	"windar/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the gated
// end-to-end ones (those defined on every workload) and the per-layer
// ones; bench_test.go holds the two lists together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the first set's median by which the second
	// may be worse before -selfcheck fails; 0 for ungated metrics.
	Bound float64
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. The first five exist on every workload and are what
// BENCHMARK.json gates; recovery_ms_p50 exists only where ranks are
// killed, and failed_ops_share is 0 on a correct run, so those two are
// reported in the document and gated by -selfcheck only.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"msgs_per_s", "msgs/s", "higher", 0.25},
	{"cpu_us_per_msg", "us/msg", "lower", 0.25},
	{"allocs_per_msg", "allocs/msg", "lower", 0.05},
	{"pig_bytes_per_msg", "B/msg", "lower", 0.01},
	{"recovery_ms_p50", "ms", "lower", 0.25},
	{"failed_ops_share", "fraction", "lower", 0},
}

// driverEndToEnd is how many leading entries of endToEnd the driver's
// result line carries.
const driverEndToEnd = 5

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer are the single-layer metrics, named <module>.<metric>: the
// layer probes first, then what the traced run yields. A metric reads 0
// on a workload that does not exercise its layer.
var perLayer = []metricDef{
	// (A) layer probes.
	lower("wire.frame_append_ns", "ns"),
	lower("wire.frame_read_ns", "ns"),
	lower("wire.frame_read_allocs", "allocs"),
	lower("wire.vecdelta_encode_ns", "ns"),
	lower("wire.vecdelta_decode_ns", "ns"),
	lower("wire.envelope_copy_ns", "ns"),
	lower("core.pig_encode_delta_ns", "ns"),
	lower("core.pig_encode_full_ns", "ns"),
	lower("core.deliverable_ns", "ns"),
	lower("core.on_deliver_ns", "ns"),
	lower("core.pig_bytes_per_msg_n32", "B/msg"),
	lower("tag.pig_encode_ns", "ns"),
	lower("tag.on_deliver_ns", "ns"),
	lower("tel.pig_encode_ns", "ns"),
	lower("tel.on_deliver_ns", "ns"),
	lower("proto.log_append_ns", "ns"),
	lower("proto.log_release_ns_per_item", "ns"),
	lower("proto.log_items_for_ns_per_item", "ns"),
	lower("ckpt.encode_ns", "ns"),
	lower("ckpt.decode_ns", "ns"),
	lower("stable.sim_put_ns", "ns"),
	lower("stable.disk_put_durable_us_p50", "us"),
	lower("stable.disk_putlazy_ns", "ns"),
	higher("stable.disk_replay_keys_per_s", "1/s"),
	lower("transport.mem_hop_ns_per_msg", "ns"),
	lower("transport.tcp_hop_ns_per_msg", "ns"),
	lower("transport.tcp_hop_allocs_per_msg", "allocs"),
	lower("obs.hist_record_ns", "ns"),
	lower("harness.delivery_scan_allocs", "allocs"),
	lower("harness.delivery_scan_chain_allocs", "allocs"),
	lower("harness.delivery_scan_traced_allocs", "allocs"),
	// (B) traced run: app wrapper.
	lower("harness.send_call_ns_p50", "ns"),
	lower("harness.send_call_ns_p99", "ns"),
	lower("harness.recv_wait_share", "fraction"),
	// interceptor.
	lower("harness.send_to_deliver_us_p50", "us"),
	lower("harness.send_to_deliver_us_p99", "us"),
	// stable decorator.
	lower("stable.put_calls_per_msg", "1/msg"),
	lower("stable.bytes_per_msg", "B/msg"),
	lower("stable.put_wait_us_p99", "us"),
	lower("stable.busy_share", "fraction"),
	lower("stable.sync_calls", "count"),
	lower("stable.disk_group_commits", "count"),
	// observer.
	lower("harness.recovery_ms_p50", "ms"),
	lower("harness.recovery_ms_p75", "ms"),
	lower("harness.recovery_restore_ms_p50", "ms"),
	lower("harness.recovery_collect_demands_ms_p50", "ms"),
	lower("harness.recovery_replay_logged_ms_p50", "ms"),
	lower("harness.recovery_roll_forward_ms_p50", "ms"),
	lower("harness.recovery_rollforward_msgs_p50", "msgs"),
	higher("harness.checkpoints", "count"),
	// metrics.Snapshot and the obs registry.
	lower("core.send_track_ns_per_msg", "ns"),
	lower("core.deliver_track_ns_per_msg", "ns"),
	lower("core.pig_full_share", "fraction"),
	lower("harness.shard_contended_per_kmsg", "1/kmsg"),
	higher("harness.recv_batch_envelopes_p50", "count"),
	higher("transport.send_batch_frames_p50", "count"),
	lower("harness.resent_per_cycle", "msgs"),
	lower("harness.repetitive_discarded_per_cycle", "msgs"),
	lower("harness.control_msgs_per_kmsg", "1/kmsg"),
	lower("proto.log_items_live_peak", "count"),
	lower("ckpt.stall_us_p50", "us"),
	lower("ckpt.stall_us_p99", "us"),
	// Go runtime.
	lower("runtime.gc_cpu_share", "fraction"),
	lower("runtime.heap_inuse_peak_mb", "MB"),
	// derived.
	lower("trace.overhead_pct", "%"),
	lower("harness.unattributed_ns_per_msg", "ns"),
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics turns one timed run and its set-up time into the
// end-to-end metrics.
func endToEndMetrics(m measurement, setup time.Duration) map[string]float64 {
	msgs := float64(m.Msgs)
	out := map[string]float64{
		"setup_s":           setup.Seconds(),
		"msgs_per_s":        m.SegmentMsgs / m.SegmentWall.Seconds(),
		"cpu_us_per_msg":    float64(m.SegmentCPU) / 1e3 / m.SegmentMsgs,
		"allocs_per_msg":    float64(m.Mallocs) / msgs,
		"pig_bytes_per_msg": ratio(m.Total.PiggybackBytes, m.Total.MsgsSent),
		"failed_ops_share":  float64(m.Failed) / float64(m.attempted()),
	}
	if len(m.Cycles) > 0 {
		out["recovery_ms_p50"] = quantile(cycleMS(m.Cycles, func(c cycle) time.Duration { return c.Recovery }), 0.5)
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func cycleMS(cycles []cycle, f func(cycle) time.Duration) []float64 {
	var out []float64
	for _, c := range cycles {
		if c.Completed {
			out = append(out, float64(f(c))/1e6)
		}
	}
	return out
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// tracedMetrics reads the per-layer metrics of one traced run off the
// bench-side decorators, the cluster counters and the obs registry.
func tracedMetrics(g *rig, m measurement) map[string]float64 {
	t, out := g.tr, make(map[string]float64)
	msgs := float64(m.Msgs)

	var sendCall, flight obs.HistSnapshot
	var recvNS, stepNS int64
	for r := range t.ranks {
		sendCall = sendCall.Add(t.ranks[r].sendCall.Snapshot())
		flight = flight.Add(t.ranks[r].flight.Snapshot())
		recvNS += t.ranks[r].recvNS.Load()
		stepNS += t.ranks[r].stepNS.Load()
	}
	out["harness.send_call_ns_p50"] = float64(sendCall.Quantile(0.5))
	out["harness.send_call_ns_p99"] = float64(sendCall.Quantile(0.99))
	out["harness.recv_wait_share"] = ratio(recvNS, stepNS)
	out["harness.send_to_deliver_us_p50"] = float64(flight.Quantile(0.5)) / 1e3
	out["harness.send_to_deliver_us_p99"] = float64(flight.Quantile(0.99)) / 1e3

	st := t.store
	out["stable.put_calls_per_msg"] = float64(st.puts.Load()+st.lazyPuts.Load()) / msgs
	out["stable.bytes_per_msg"] = float64(st.bytes.Load()) / msgs
	out["stable.put_wait_us_p99"] = float64(st.putWait.Snapshot().Quantile(0.99)) / 1e3
	out["stable.busy_share"] = float64(st.busyNS.Load()) / float64(t.wall)
	out["stable.sync_calls"] = float64(st.syncs.Load())
	out["stable.disk_group_commits"] = float64(t.groupCommits)

	rec := g.rec
	recovery := cycleMS(m.Cycles, func(c cycle) time.Duration { return c.Recovery })
	out["harness.recovery_ms_p50"] = quantile(recovery, 0.5)
	out["harness.recovery_ms_p75"] = quantile(recovery, 0.75)
	out["harness.recovery_restore_ms_p50"] = quantile(cycleMS(m.Cycles, func(c cycle) time.Duration { return c.Restore }), 0.5)
	out["harness.recovery_collect_demands_ms_p50"] = quantile(durationsMS(rec.phases[harness.PhaseCollectDemands]), 0.5)
	out["harness.recovery_replay_logged_ms_p50"] = quantile(durationsMS(rec.phases[harness.PhaseReplayLogged]), 0.5)
	out["harness.recovery_roll_forward_ms_p50"] = quantile(durationsMS(rec.phases[harness.PhaseRollForward]), 0.5)
	var rolled []float64
	for _, c := range m.Cycles {
		if c.Completed {
			rolled = append(rolled, float64(c.RollForward))
		}
	}
	out["harness.recovery_rollforward_msgs_p50"] = quantile(rolled, 0.5)
	out["harness.checkpoints"] = float64(rec.checkpoints)

	tot := m.Total
	out["core.send_track_ns_per_msg"] = ratio(tot.SendTrackNanos, tot.MsgsSent)
	out["core.deliver_track_ns_per_msg"] = ratio(tot.DeliverTrackNanos, tot.MsgsDelivered)
	out["core.pig_full_share"] = ratio(tot.PigFullMsgs, tot.PigFullMsgs+tot.PigDeltaMsgs)
	out["harness.shard_contended_per_kmsg"] = 1e3 * float64(tot.ShardContended) / msgs
	out["harness.control_msgs_per_kmsg"] = 1e3 * float64(tot.ControlMsgs) / msgs
	if n := int64(len(m.Cycles)); n > 0 {
		out["harness.resent_per_cycle"] = ratio(tot.ResentMsgs, n)
		out["harness.repetitive_discarded_per_cycle"] = ratio(tot.RepetitiveDiscarded, n)
	}
	out["proto.log_items_live_peak"] = float64(t.logPeak)
	for _, f := range g.reg.Snapshot() {
		switch f.Name {
		case "recv_batch_envelopes":
			out["harness.recv_batch_envelopes_p50"] = float64(f.Total.Quantile(0.5))
		case "send_batch_frames":
			out["transport.send_batch_frames_p50"] = float64(f.Total.Quantile(0.5))
		case "ckpt_stall_ns":
			out["ckpt.stall_us_p50"] = float64(f.Total.Quantile(0.5)) / 1e3
			out["ckpt.stall_us_p99"] = float64(f.Total.Quantile(0.99)) / 1e3
		}
	}

	out["runtime.gc_cpu_share"] = t.gcCPU / m.CPU.Seconds()
	out["runtime.heap_inuse_peak_mb"] = float64(t.heapPeak) / (1 << 20)
	return out
}

// attributed sums the probe cost, in CPU ns per message, of the layers a
// message crosses on workload s. The hop probes already contain their
// framing or envelope copy, so wire.* is not added again.
func attributed(s spec, probes map[string]float64) float64 {
	sum := probes["core.pig_encode_delta_ns"] + probes["core.deliverable_ns"] + probes["core.on_deliver_ns"] +
		probes["proto.log_append_ns"] + probes["proto.log_release_ns_per_item"]
	if s.Transport == "tcp" {
		sum += probes["transport.tcp_hop_ns_per_msg"]
	} else {
		sum += probes["transport.mem_hop_ns_per_msg"]
	}
	if s.Deployed {
		// One lazy WAL append per logged message, and the five histograms
		// the obs registry feeds per message (piggyback ids and bytes,
		// send and deliver tracking, deliver latency).
		sum += probes["stable.disk_putlazy_ns"] + 5*probes["obs.hist_record_ns"]
	}
	return sum
}

// quantile is the q-quantile of values (nearest rank on a sorted copy);
// 0 for an empty sample.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 {
		if len(s) == 1 {
			return s[0]
		}
		j := k * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := k*(len(s)+1) - 4*j // taken after the clamp, so the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
