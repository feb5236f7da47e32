// Command perfbench is the repository's serving benchmark. It starts a
// real servehd per workload, drives /predict with labeled rows of the
// PAMAP test split over two connections, checks every answer, and
// prints the end-to-end metrics (-trace 0) or the per-layer table
// (-trace 1) as one JSON line after a readable table.
//
// Run it through run.sh, which builds servehd and this program first:
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//
// The traced run (-trace 1) measures the same workload twice, each for
// half of -seconds: once against servehd for the server's counters and
// the client's own cost, and once against a server built in this
// process from the constructors servehd calls, with its handler
// wrapped in a span. It then replays the recorded rows through each
// layer's public calls, one span per call, and writes every span to
// -spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/dataset"
)

func main() {
	name := flag.String("workload", "", "workload: bulk, interactive, heal, fleet, or all")
	seed := flag.Uint64("seed", 1, "workload seed: server seed, row order and grouping, burst seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics")
	bin := flag.String("servehd", "", "servehd binary to benchmark")
	spans := flag.String("spans", "", "directory the traced run writes its spans to")
	noRecover := flag.Bool("norecover", false, "start servehd with -norecover (shows what post_burst_accuracy detects)")
	flag.Parse()

	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -servehd, -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var run []workload
	if *name == "all" {
		run = workloads
	} else if w, ok := workloadByName(*name); ok {
		run = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// The PAMAP spec servehd trains on; its test split is the traffic.
	ds, err := dataset.Generate(dataset.PAMAP())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := options{
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		servehd:   *bin,
		spans:     *spans,
		noRecover: *noRecover,
	}
	code := 0
	for _, w := range run {
		var r report
		var err error
		if *trace == 1 {
			r, err = runTraced(w, ds, o)
		} else {
			r, err = runE2E(w, ds, o)
		}
		for _, n := range r.notes {
			fmt.Println(n)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
			// A malformed answer is a wrong output: say so in the result
			// line. Any other failure prints no result.
			if !errors.Is(err, errMalformed) {
				continue
			}
			r.Correct, r.Metrics, r.names = false, map[string]metric{}, nil
		}
		for _, n := range r.names {
			m := r.Metrics[n]
			fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
		}
		line, err := json.Marshal(r.result)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	os.Exit(code)
}
