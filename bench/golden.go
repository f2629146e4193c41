package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"windar/internal/harness"
	"windar/internal/npb"
)

// golden is the committed reference of one LU instance: the digest of
// every rank's final snapshot, from a bare run — mem fabric, no
// checkpoints, no disk, no tracing — so that the deployed configuration
// is checked against a run that shares none of its optional layers.
type golden struct {
	Digests []string `json:"digests"`
}

//go:embed golden.json
var goldenJSON []byte

// luGolden returns the reference for LU on n ranks after iterations,
// from override (tests) or the committed file; a size the file does not
// hold — a -seconds other than the calibrated one — is computed on the
// spot, the same way -write-golden would.
func luGolden(override map[string]golden, n, iterations int) (golden, error) {
	table := override
	if table == nil {
		if err := json.Unmarshal(goldenJSON, &table); err != nil {
			return golden{}, fmt.Errorf("golden.json: %w", err)
		}
	}
	if g, ok := table[goldenKey(n, iterations)]; ok {
		return g, nil
	}
	return bareLU(n, iterations)
}

// bareLU runs LU with nothing optional switched on and digests the
// final snapshots.
func bareLU(n, iterations int) (golden, error) {
	factory, err := npb.LU(npb.Params{N: luGrid, Iterations: iterations, NormEvery: luNormEvery})
	if err != nil {
		return golden{}, err
	}
	c, err := harness.NewCluster(harness.Config{N: n, Protocol: harness.TDI, StallTimeout: stallTimeout}, factory)
	if err != nil {
		return golden{}, err
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		return golden{}, err
	}
	c.Wait()
	if !c.Health().Finished {
		return golden{}, fmt.Errorf("bare LU run did not finish")
	}
	g := golden{Digests: make([]string, n)}
	for r := range g.Digests {
		g.Digests[r] = digest(c.AppSnapshot(r))
	}
	return g, nil
}

// writeGoldenFile regenerates golden.json for every LU size the
// benchmark runs at the given scale: timed, warm-up, traced and the
// traced run's warm-up.
func writeGoldenFile(scale float64) error {
	table := make(map[string]golden)
	for _, f := range []float64{1, warmupShare, tracedShare, tracedShare * warmupShare} {
		for _, s := range specs(scale * f) {
			if !s.LU {
				continue
			}
			g, err := bareLU(ranks, s.Steps)
			if err != nil {
				return err
			}
			table[goldenKey(ranks, s.Steps)] = g
		}
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("bench", "golden.json"), append(data, '\n'), 0o644)
}
