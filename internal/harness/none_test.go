package harness

import (
	"errors"
	"testing"

	"windar/internal/app"
	"windar/internal/npb"
	"windar/internal/stable"
	"windar/internal/transport"
	"windar/internal/workload"
	"windar/layer"
)

// TestNoneMatchesProtocols: every workload and NPB kernel reaches
// bit-identical final states unprotected and under each logging
// protocol, on both transports — logging changes what a run costs,
// never what it computes. The None runs must also carry no piggyback
// and keep no sender log.
func TestNoneMatchesProtocols(t *testing.T) {
	apps := map[string]app.Factory{}
	for _, name := range []string{"ring", "halo", "masterworker", "pairs", "flood"} {
		f, err := workload.ByName(name, 24)
		if err != nil {
			t.Fatal(err)
		}
		apps[name] = f
	}
	for _, name := range []string{"lu", "bt", "sp", "cg"} {
		f, err := npb.Benchmark(name, npb.Params{N: 6, Iterations: 8, NormEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		apps[name] = f
	}
	for _, tk := range []transport.Kind{transport.Mem, transport.TCP} {
		for name, factory := range apps {
			tk, factory := tk, factory
			t.Run(string(tk)+"/"+name, func(t *testing.T) {
				t.Parallel()
				cfg := testConfig(4, None)
				// A backend of its own keeps WINDAR_STABLE=disk's durable
				// logs, which None refuses, off this run.
				cfg.Transport, cfg.CheckpointEvery, cfg.Stable = tk, 0, stable.NewSim()
				var none *Cluster
				want := run(t, cfg, factory, func(c *Cluster) { none = c })
				tot := none.Metrics().Total()
				if tot.MsgsDelivered == 0 || tot.PiggybackBytes != 0 || tot.PiggybackIDs != 0 || none.LogItemsLive() != 0 {
					t.Errorf("none: %d delivered, %d piggyback bytes, %d ids, %d log items; want deliveries and nothing else",
						tot.MsgsDelivered, tot.PiggybackBytes, tot.PiggybackIDs, none.LogItemsLive())
				}
				for _, p := range allProtocols {
					cfg := testConfig(4, p)
					cfg.Transport = tk
					assertSameStates(t, want, run(t, cfg, factory, nil), string(p)+" against none")
				}
			})
		}
	}
}

// TestNoneIsFaultFreeOnly: None refuses everything that needs a log or
// a checkpoint — at construction and at Kill, Recover and
// StartFromStable.
func TestNoneIsFaultFreeOnly(t *testing.T) {
	for name, mod := range map[string]func(*Config){
		"checkpoint-every":  func(c *Config) { c.CheckpointEvery = 3 },
		"checkpoint-policy": func(c *Config) { c.CheckpointPolicy = layer.EveryKSteps(3) },
		"durable-logs":      func(c *Config) { c.DurableLogs = true },
	} {
		cfg := testConfig(2, None)
		cfg.CheckpointEvery = 0
		mod(&cfg)
		if c, err := NewCluster(cfg, ringFactory(4)); err == nil {
			c.Close()
			t.Errorf("%s: NewCluster accepted protocol none", name)
		}
	}
	cfg := testConfig(2, None)
	cfg.CheckpointEvery = 0
	c, err := NewCluster(cfg, ringFactory(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	for op, f := range map[string]func() error{
		"Kill": func() error { return c.Kill(1) }, "Recover": func() error { return c.Recover(1) },
		"StartFromStable": c.StartFromStable,
	} {
		if err := f(); !errors.Is(err, errNoRecovery) {
			t.Errorf("%s under protocol none: %v, want errNoRecovery", op, err)
		}
	}
	c.Wait()
}
