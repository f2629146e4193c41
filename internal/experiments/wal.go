package experiments

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"windar/internal/fabric"
	"windar/internal/harness"
	"windar/internal/metrics"
	"windar/internal/obs"
	"windar/internal/stable"
	"windar/internal/workload"
)

// WalOptions configures the durable-WAL bench: one ring run over the
// disk stable backend with durable sender logs, measuring what the
// concurrent checkpointer costs the delivery path and how fast a cold
// process replays the surviving WAL.
type WalOptions struct {
	// Procs is the cluster size; default 8.
	Procs int
	// Steps is the ring step count; default 600 (enough checkpoints for
	// a meaningful stall distribution).
	Steps int
	// CheckpointEvery in steps; default 5.
	CheckpointEvery int
	// FsyncEvery is the disk backend's group-commit interval; default
	// 2ms. This is also the stall gate's reference scale: a checkpoint
	// that blocked delivery on durability would stall for at least one
	// group-commit interval.
	FsyncEvery time.Duration
	// Dir is the stable directory. Empty means a fresh temp dir removed
	// on return (the replay measurement happens before cleanup).
	Dir string
	// Seed for the fabric jitter.
	Seed int64
}

func (o WalOptions) withDefaults() WalOptions {
	if o.Procs == 0 {
		o.Procs = 8
	}
	if o.Steps == 0 {
		o.Steps = 600
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 5
	}
	if o.FsyncEvery == 0 {
		o.FsyncEvery = 2 * time.Millisecond
	}
	return o
}

// WalReport is the BENCH_wal.json payload: the checkpoint-stall
// distribution (the price delivery pays while a checkpoint is staged —
// NOT written; the durable save happens on the background writer) and
// the cold-start recovery replay of the directory the run left behind.
type WalReport struct {
	App             string `json:"app"`
	Procs           int    `json:"procs"`
	Steps           int    `json:"steps"`
	CheckpointEvery int    `json:"checkpoint_every"`
	FsyncEveryNS    int64  `json:"fsync_every_ns"`
	ElapsedNS       int64  `json:"elapsed_ns"`
	MsgsDelivered   int64  `json:"msgs_delivered"`

	// CkptStall is the synchronous portion of every checkpoint: drain
	// in-flight sends, snapshot, stage. Its P99 staying far below
	// FsyncEveryNS is the "checkpointing never blocks delivery" claim in
	// machine-readable form.
	CkptStall obs.HistStat `json:"ckpt_stall_ns"`

	// GroupCommits counts WAL fsync batches; LiveKeys and DiskBytes
	// describe the directory the run left behind (log release, which
	// lets emptied segments be unlinked, keeps both bounded).
	GroupCommits int64 `json:"group_commits"`
	LiveKeys     int   `json:"live_keys"`
	DiskBytes    int64 `json:"disk_bytes"`
	// Disk is what the backend did to get there: fsyncs, segment
	// rotations and unlinks, bytes of records appended.
	Disk stable.DiskStats `json:"disk"`

	// Replay* measure a cold OpenDisk of the populated directory — the
	// recovery path a restarted process pays before any rank starts.
	ReplayNS         int64   `json:"replay_ns"`
	ReplayKeys       int     `json:"replay_keys"`
	ReplayKeysPerSec float64 `json:"replay_keys_per_sec"`
}

// RunWal runs the durable-WAL bench: a TDI ring over the disk backend
// with durable logs and an obs registry attached, then a cold reopen of
// the resulting directory to time WAL replay.
func RunWal(o WalOptions) (WalReport, error) {
	o = o.withDefaults()
	dir := o.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "windar-wal-*")
		if err != nil {
			return WalReport{}, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	disk, err := stable.OpenDisk(stable.DiskOptions{Dir: dir, FsyncInterval: o.FsyncEvery})
	if err != nil {
		return WalReport{}, err
	}
	reg := obs.NewRegistry(o.Procs)
	cfg := harness.Config{
		N:               o.Procs,
		Protocol:        harness.TDI,
		CheckpointEvery: o.CheckpointEvery,
		Stable:          disk,
		DurableLogs:     true,
		Obs:             reg,
		Fabric: fabric.Config{
			BaseLatency:    20 * time.Microsecond,
			BytesPerSecond: 1 << 30,
			JitterFraction: 0.5,
			Seed:           o.Seed,
		},
		StallTimeout: 60 * time.Second,
	}
	c, err := harness.NewCluster(cfg, workload.NewRing(o.Steps))
	if err != nil {
		disk.Close()
		return WalReport{}, err
	}
	start := time.Now() //windar:allow directclock — the disk backend paces fsync off the wall clock, so the run is a true wall-clock measurement
	if err := c.Start(); err != nil {
		c.Close()
		return WalReport{}, err
	}
	c.Wait()
	elapsed := time.Since(start) //windar:allow directclock — true wall-clock measurement
	rep := WalReport{
		App: "ring", Procs: o.Procs, Steps: o.Steps,
		CheckpointEvery: o.CheckpointEvery,
		FsyncEveryNS:    int64(o.FsyncEvery),
		ElapsedNS:       int64(elapsed),
		MsgsDelivered:   c.Metrics().Total().MsgsDelivered,
	}
	if h := c.Health(); !h.Finished {
		c.Close()
		return WalReport{}, fmt.Errorf("experiments: wal bench run did not finish")
	}
	for _, f := range reg.Snapshot() {
		if f.Name == "ckpt_stall_ns" {
			rep.CkptStall = obs.StatOf(f.Total)
		}
	}
	// Close flushes the background checkpoint writers and closes the
	// backend (the cluster owns it), so read the backend counters first.
	rep.GroupCommits = disk.Commits()
	rep.LiveKeys = disk.Len()
	rep.Disk = disk.Stats()
	c.Close()
	if rep.CkptStall.Count == 0 {
		return WalReport{}, fmt.Errorf("experiments: wal bench recorded no checkpoint stalls")
	}

	rep.DiskBytes, err = dirBytes(dir)
	if err != nil {
		return WalReport{}, err
	}
	replayStart := time.Now() //windar:allow directclock — replay reads real files; wall clock is the only honest measure
	replay, err := stable.OpenDisk(stable.DiskOptions{Dir: dir, FsyncInterval: o.FsyncEvery})
	if err != nil {
		return WalReport{}, fmt.Errorf("experiments: wal bench replay: %w", err)
	}
	rep.ReplayNS = int64(time.Since(replayStart)) //windar:allow directclock — true wall-clock measurement
	rep.ReplayKeys = replay.Len()
	if err := replay.Close(); err != nil {
		return WalReport{}, err
	}
	if rep.ReplayKeys == 0 {
		return WalReport{}, fmt.Errorf("experiments: wal bench replay recovered no keys")
	}
	if rep.ReplayNS > 0 {
		rep.ReplayKeysPerSec = float64(rep.ReplayKeys) / (float64(rep.ReplayNS) / float64(time.Second))
	}
	return rep, nil
}

// dirBytes sums regular-file sizes under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// WalTable renders the wal bench.
func WalTable(r WalReport) *metrics.Table {
	t := &metrics.Table{
		Title: "Durable WAL — checkpoint stall and recovery replay (disk backend)",
		Header: []string{"procs", "steps", "stall_p50_us", "stall_p99_us", "fsync_ms",
			"commits", "fsyncs", "appended_KiB", "rotations", "segs_live", "segs_unlinked",
			"disk_KiB", "replay_ms", "replay_keys"},
	}
	t.AddRow(fmt.Sprint(r.Procs), fmt.Sprint(r.Steps),
		metrics.F(float64(r.CkptStall.P50)/float64(time.Microsecond)),
		metrics.F(float64(r.CkptStall.P99)/float64(time.Microsecond)),
		metrics.F(float64(r.FsyncEveryNS)/float64(time.Millisecond)),
		fmt.Sprint(r.GroupCommits),
		fmt.Sprint(r.Disk.Fsyncs),
		metrics.F(float64(r.Disk.BytesAppended)/1024),
		fmt.Sprint(r.Disk.Rotations),
		fmt.Sprint(r.Disk.LiveSegments),
		fmt.Sprint(r.Disk.UnlinkedSegments),
		metrics.F(float64(r.DiskBytes)/1024),
		metrics.F(float64(r.ReplayNS)/float64(time.Millisecond)),
		fmt.Sprint(r.ReplayKeys))
	return t
}
