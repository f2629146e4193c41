// Command windar-trace turns a per-rank JSONL trace (windar-run
// -trace-out, a flight-recorder dump, or windar-chaos's failure
// artifacts) into a cross-rank causal DAG and exports it for standard
// tooling:
//
//	windar-trace -in trace.jsonl -summary
//	windar-trace -in trace.jsonl -format chrome -out trace.chrome.json
//	windar-trace -in trace.jsonl -format otlp   -out trace.otlp.json
//	windar-trace -in trace.jsonl -check
//
// -check audits the DAG against the causal-tracing invariants (every
// delivered span was sent, parent edges are causally possible and
// acyclic, traces are inherited) and additionally replays the trace
// through trace.Validate (FIFO delivery, no duplicates, demand
// satisfaction, ...; every rule but no-loss, since the file does not
// record whether the run finished); any violation exits nonzero. The
// Chrome export opens directly in chrome://tracing or ui.perfetto.dev;
// the OTLP export is the OpenTelemetry JSON file encoding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"windar/internal/trace"
)

func main() {
	var (
		in      = flag.String("in", "", "input JSONL trace file (required; - for stdin)")
		format  = flag.String("format", "", "export format: chrome or otlp (omit to export nothing)")
		out     = flag.String("out", "", "output file (default stdout)")
		check   = flag.Bool("check", false, "audit causal-DAG and trace invariants; exit 1 on violations")
		summary = flag.Bool("summary", false, "print DAG summary statistics")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "windar-trace: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	rec, err := importTrace(*in)
	if err != nil {
		fatal(err)
	}
	lin := trace.BuildLineage(rec)

	if *summary {
		fmt.Print(trace.FormatLineageSummary(lin.Summary()))
	}

	ok := true
	if *check {
		if lin.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "windar-trace: warning: bounded trace dropped %d events; dangling references are tolerated\n", lin.Dropped)
		}
		problems := lin.Check()
		// The classic per-channel invariants still apply to the same
		// event stream; a span DAG over a FIFO-violating trace is lying.
		// The file does not say whether the run finished, so no-loss is
		// not judged.
		problems = append(problems, rec.Validate(false)...)
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "windar-trace: VIOLATION %s\n", p)
			ok = false
		}
		if ok {
			fmt.Fprintf(os.Stderr, "windar-trace: %d spans, %d traces: all invariants hold\n",
				len(lin.Spans), lin.Traces)
		}
	}

	if *format != "" {
		w := io.Writer(os.Stdout)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		switch *format {
		case "chrome":
			err = lin.WriteChrome(w)
		case "otlp":
			err = lin.WriteOTLP(w)
		default:
			err = fmt.Errorf("unknown format %q (want chrome or otlp)", *format)
		}
		if err != nil {
			fatal(err)
		}
	}

	if !ok {
		os.Exit(1)
	}
}

func importTrace(path string) (*trace.Recorder, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.Import(r)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "windar-trace: %v\n", err)
	os.Exit(1)
}
