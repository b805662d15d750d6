// Command benchcheck guards the gated sections of BENCH_smoke.json.
//
// It re-runs the pinned-seed smoke benchmark with the exact configuration
// recorded in the committed snapshot (seed, datasets, machines, threads),
// writes the fresh result next to it, and checks all eight sections against
// the committed rows: batching, rebalance, backend, pipeline, locality,
// adaptive ownership, chaos and serving.  A row fails when it goes missing,
// when its outputs stop being byte-identical to the reference run (or
// another of its invariants breaks), or when a gated metric crosses its
// bound: a fractional tolerance against the committed value for the
// deterministic ratios, the committed variance-derived floor or ceiling for
// the noisy means.  The gate table in internal/bench (smokeSections, checked
// by bench.CheckSmoke) is the source of truth for every section's
// invariants, metrics and bounds.  CI runs it as the bench-regression job
// (`make bench-check`) and uploads the fresh JSON as an artifact.
//
// Usage:
//
//	benchcheck [-baseline BENCH_smoke.json] [-out BENCH_fresh.json] [-tolerance 0.10] [-runs 2]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ampcgraph/internal/bench"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_smoke.json", "committed benchmark snapshot to compare against")
		outPath      = flag.String("out", "BENCH_fresh.json", "where to write the freshly measured snapshot")
		tolerance    = flag.Float64("tolerance", 0.10, "maximum allowed fractional regression per metric (0.10 = 10%)")
		runs         = flag.Int("runs", 2, "measurement runs; each metric keeps its best run, damping scheduler noise")
	)
	flag.Parse()
	if *runs < 1 {
		*runs = 1
	}

	baseline, err := readSmoke(*baselinePath)
	if err != nil {
		fatalf("reading baseline: %v", err)
	}

	// Re-run with the exact pinned configuration of the committed snapshot.
	// The metrics depend slightly on goroutine scheduling (racy cache fills
	// change which lookups reach the store), so CheckSmoke keeps each
	// metric's best value over the -runs measurements: noise cannot fail the
	// gate, while a real regression persists across every run.
	var fresh []bench.Smoke
	for attempt := 0; attempt < *runs; attempt++ {
		run, _, err := bench.BatchSmoke(bench.Options{
			Seed:     baseline.Seed,
			Datasets: baseline.Datasets,
			Scale:    baseline.Scale,
			Machines: baseline.Machines,
			Threads:  baseline.Threads,
		})
		if err != nil {
			fatalf("running smoke benchmark: %v", err)
		}
		if attempt == 0 {
			// The artifact records one representative measurement.
			if err := bench.WriteSmokeJSON(*outPath, run); err != nil {
				fatalf("writing %s: %v", *outPath, err)
			}
			fmt.Printf("wrote %s\n", *outPath)
		}
		fresh = append(fresh, run)
	}

	lines, failures := bench.CheckSmoke(baseline, fresh, *tolerance)
	for _, line := range lines {
		fmt.Println(line)
	}
	if failures > 0 {
		fatalf("%d metric(s) regressed more than %.0f%% against %s", failures, *tolerance*100, *baselinePath)
	}
	fmt.Println("bench-check: no regression")
}

func readSmoke(path string) (bench.Smoke, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return bench.Smoke{}, err
	}
	var s bench.Smoke
	if err := json.Unmarshal(data, &s); err != nil {
		return bench.Smoke{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Rows) == 0 {
		return bench.Smoke{}, fmt.Errorf("%s: no benchmark rows", path)
	}
	return s, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
