// Command ampcbench regenerates the tables and figures of the paper's
// evaluation (Section 5) on the synthetic stand-in datasets.
//
// Usage:
//
//	ampcbench -experiment table3
//	ampcbench -experiment figure5 -datasets OK,TW -machines 16
//	ampcbench -experiment all
//	ampcbench -experiment batch -json BENCH_smoke.json
//	ampcbench -experiment figure5 -batch
//	ampcbench -experiment locality -datasets OK,TW
//
// Each experiment prints a text table whose rows mirror the corresponding
// table or figure of the paper; the README's "Benchmarks and experiments"
// section records how the shapes compare with the published numbers.  Every experiment accepts the same flag set,
// registered once by benchFlags: -batch runs the AMPC algorithms through the
// shard-grouped batch pipeline, -placement selects the shard placement policy
// (hash, owner, or weighted), -pipeline runs the rounds through the
// dependency-aware pipelined scheduler, -backend selects the shard storage
// engine (mem, disk or rpc), and -adaptive switches the "rebalance"
// experiment to its adaptive arm (online ownership rebalancing between
// pipeline segments).  An experiment whose comparison axis IS
// one of those flags (batch, locality, rebalance, pipeline, backend, chaos,
// serving) rejects an explicit setting of that flag instead of silently
// ignoring it
// (see bench.UnsupportedFlags).  The dedicated "batch" experiment with -json
// writes the batched-vs-unbatched comparison as a machine-readable snapshot
// (the BENCH_smoke.json of `make bench-smoke`).
//
// The "chaos" experiment runs all five core algorithms fault-free and under
// the pinned deterministic fault schedule (bench.ChaosFaultPlan: transient
// errors, latency spikes, shard crash windows, torn disk tails, rpc
// connection drops), verifying byte-identical outputs with zero failed jobs
// and reporting the recovery overhead:
//
//	ampcbench -experiment chaos -datasets OK
//
// The "serving" experiment measures the Plan/Session/Job split: N concurrent
// query jobs (MIS, MM, connectivity) sharing one session — one worker pool,
// one frozen copy of each input table, one compiled-plan cache — against the
// same queries as serialized one-shot runs, at byte-identical outputs:
//
//	ampcbench -experiment serving
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ampcgraph/internal/bench"
)

// benchFlags is the shared flag set: every experiment sees the same flags,
// registered in one place, so no experiment grows a private dialect.
type benchFlags struct {
	experiment string
	datasets   string
	scale      int
	seed       int64
	machines   int
	threads    int
	threshold  int
	batch      bool
	placement  string
	pipeline   bool
	backend    string
	adaptive   bool
	jsonPath   string
}

func (f *benchFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.experiment, "experiment", "all", "experiment to run: "+strings.Join(bench.AllExperiments(), ", ")+", or 'all'")
	fs.StringVar(&f.datasets, "datasets", "", "comma-separated dataset names (default: all of OK,TW,FS,CW,HL)")
	fs.IntVar(&f.scale, "scale", 1, "dataset scale multiplier")
	fs.Int64Var(&f.seed, "seed", 1, "random seed")
	fs.IntVar(&f.machines, "machines", 8, "number of AMPC machines")
	fs.IntVar(&f.threads, "threads", 4, "threads per AMPC machine")
	fs.IntVar(&f.threshold, "mpc-threshold", 2000, "in-memory switch-over threshold (edges) for the MPC baselines")
	fs.BoolVar(&f.batch, "batch", false, "run the AMPC algorithms with the shard-grouped batch pipeline")
	fs.StringVar(&f.placement, "placement", "", "shard placement policy for the AMPC runs: hash (default), owner, or weighted (degree-balanced ownership)")
	fs.BoolVar(&f.pipeline, "pipeline", false, "run the AMPC algorithms with dependency-aware round pipelining")
	fs.StringVar(&f.backend, "backend", "", "shard storage backend for the AMPC runs: mem (default), disk, or rpc")
	fs.BoolVar(&f.adaptive, "adaptive", false, "run the 'rebalance' experiment's adaptive arm: online ownership rebalancing between pipeline segments")
	fs.StringVar(&f.jsonPath, "json", "", "write the 'batch' experiment's comparison to this path as JSON")
}

func (f *benchFlags) options() bench.Options {
	opts := bench.Options{
		Scale:        f.scale,
		Seed:         f.seed,
		Machines:     f.machines,
		Threads:      f.threads,
		MPCThreshold: f.threshold,
		Batch:        f.batch,
		Placement:    f.placement,
		Pipeline:     f.pipeline,
		Backend:      f.backend,
		Adaptive:     f.adaptive,
	}
	if f.datasets != "" {
		opts.Datasets = strings.Split(f.datasets, ",")
	}
	return opts
}

// rejectUnsupported returns an error when one of the explicitly set flags is
// fixed internally by an experiment about to run — the flag is that
// experiment's comparison axis, so accepting it would silently ignore it.
func rejectUnsupported(names []string, set map[string]bool) error {
	for _, name := range names {
		for _, fl := range bench.UnsupportedFlags(name) {
			if set[fl] {
				return fmt.Errorf("experiment %s sweeps -%s itself (it is the comparison axis); drop -%s or pick another experiment", name, fl, fl)
			}
		}
	}
	return nil
}

func main() {
	var f benchFlags
	f.register(flag.CommandLine)
	flag.Parse()
	opts := f.options()

	explicit := make(map[string]bool)
	flag.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })

	names := []string{f.experiment}
	if f.experiment == "all" {
		names = bench.AllExperiments()
	}
	if err := rejectUnsupported(names, explicit); err != nil {
		fmt.Fprintf(os.Stderr, "ampcbench: %v\n", err)
		os.Exit(2)
	}
	if explicit["adaptive"] {
		found := false
		for _, name := range names {
			if name == "rebalance" {
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "ampcbench: -adaptive is the rebalance experiment's axis; run -experiment rebalance -adaptive\n")
			os.Exit(2)
		}
	}
	wroteJSON := false
	for _, name := range names {
		if name == "batch" && f.jsonPath != "" {
			wroteJSON = true
			smoke, rep, err := bench.BatchSmoke(opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ampcbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			if err := bench.WriteSmokeJSON(f.jsonPath, smoke); err != nil {
				fmt.Fprintf(os.Stderr, "ampcbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println(rep.String())
			fmt.Printf("wrote %s\n", f.jsonPath)
			continue
		}
		rep, err := bench.RunByName(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ampcbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
	}
	if f.jsonPath != "" && !wroteJSON {
		fmt.Fprintf(os.Stderr, "ampcbench: -json only applies to the 'batch' experiment; %s was not written\n", f.jsonPath)
		os.Exit(1)
	}
}
