package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck is the tool behind the agreement criterion: it runs two
// complete sets of `runs` runs per workload, each run a fresh process
// with its own seed (as the driver does), the sets interleaved run by run
// so machine drift lands on both alike. Per (workload, metric) it prints
// both medians, each set's spread (interquartile range over median), the
// relative difference of the medians and the bound, and fails if a
// difference exceeds its bound.
func selfCheck(selected []spec, o options, seconds float64, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type sets [2]map[string][]float64
	observed := make(map[string]*sets)
	for _, s := range selected {
		observed[s.Name] = &sets{{}, {}}
		for i := 0; i < runs; i++ {
			for set := 0; set < 2; set++ {
				r, err := runChild(self, s.Name, o.OutDir, o.Seed+int64(i), seconds)
				if err != nil {
					return fmt.Errorf("%s run %d of set %d: %w", s.Name, i, set, err)
				}
				for name, m := range r.Metrics {
					observed[s.Name][set][name] = append(observed[s.Name][set][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "%s set %d run %d/%d done\n", s.Name, set+1, i+1, runs)
			}
		}
	}

	fmt.Printf("%-13s %-18s %14s %14s %8s %8s %8s %7s\n",
		"workload", "metric", "median_1", "median_2", "iqr_1", "iqr_2", "diff", "bound")
	failed := false
	for _, s := range selected {
		for _, d := range endToEnd {
			a, b := observed[s.Name][0][d.Name], observed[s.Name][1][d.Name]
			if len(a) == 0 {
				continue // not defined on this workload
			}
			q1a, medA, q3a := quartiles(a)
			q1b, medB, q3b := quartiles(b)
			diff := 0.0
			if medA != 0 {
				diff = (medB - medA) / medA
			} else if medB != 0 {
				diff = 1
			}
			verdict := ""
			if diff > d.Bound || -diff > d.Bound {
				verdict, failed = "  EXCEEDS BOUND", true
			}
			fmt.Printf("%-13s %-18s %14.6g %14.6g %7.2f%% %7.2f%% %+7.2f%% %6.0f%%%s\n",
				s.Name, d.Name, medA, medB, 100*spread(q1a, medA, q3a), 100*spread(q1b, medB, q3b),
				100*diff, 100*d.Bound, verdict)
		}
	}
	if failed {
		return fmt.Errorf("selfcheck: two sets of the same code disagree by more than a bound")
	}
	return nil
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// runChild runs one workload once in a fresh process and returns the
// document entry it printed.
func runChild(self, workload, outDir string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(self, "-workload", workload, "-out", outDir,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var doc document
	// The document precedes the driver's one-line result object.
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&doc); err != nil {
		return result{}, err
	}
	if len(doc.Workloads) != 1 {
		return result{}, fmt.Errorf("child printed %d workloads", len(doc.Workloads))
	}
	return doc.Workloads[0], nil
}
