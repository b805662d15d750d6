package ampcgraph

// This file is the benchmark harness that regenerates every table and figure
// of the paper's evaluation (Section 5).  Each benchmark drives the
// corresponding experiment in internal/bench on the smallest Table 2 stand-in
// (so that `go test -bench=.` finishes quickly) and reports the headline
// quantity of the experiment as a custom metric.  The cmd/ampcbench tool runs
// the same experiments on all stand-ins and prints the full tables; see the
// README's "Benchmarks and experiments" section for the comparison against
// the published numbers.

import (
	"testing"

	"ampcgraph/internal/bench"
)

func benchOpts() bench.Options {
	return bench.Options{Datasets: []string{"OK"}, Seed: 1, Machines: 8, Threads: 4, MPCThreshold: 2000}
}

// BenchmarkTable2DatasetStats regenerates the dataset statistics of Table 2.
func BenchmarkTable2DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Shuffles regenerates the shuffle-count comparison of Table 3.
func BenchmarkTable3Shuffles(b *testing.B) {
	var rows []bench.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Table3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[0].AMPCMSF), "ampc-msf-shuffles")
		b.ReportMetric(float64(rows[0].MPCMSF), "mpc-msf-shuffles")
		b.ReportMetric(float64(rows[0].MPCMIS), "mpc-mis-shuffles")
	}
}

// BenchmarkFigure3ShuffleBytes regenerates the bytes-shuffled comparison of
// Figure 3.
func BenchmarkFigure3ShuffleBytes(b *testing.B) {
	var rows []bench.Figure3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Figure3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].MPCOverAMPC, "mpc-over-ampc-bytes")
	}
}

// BenchmarkFigure4Optimizations regenerates the caching/multithreading
// ablation of Figure 4.
func BenchmarkFigure4Optimizations(b *testing.B) {
	var rows []bench.Figure4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Figure4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 && rows[0].Both > 0 {
		b.ReportMetric(float64(rows[0].Unoptimized)/float64(rows[0].Both), "both-opts-speedup")
		b.ReportMetric(float64(rows[0].KVBytesNoOpt)/float64(rows[0].KVBytesCache), "cache-kv-byte-reduction")
	}
}

// BenchmarkFigure5MISRuntime regenerates the MIS running-time comparison of
// Figure 5.
func BenchmarkFigure5MISRuntime(b *testing.B) {
	var rows []bench.RuntimeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Figure5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].SpeedupSim, "ampc-over-mpc-speedup")
	}
}

// BenchmarkFigure6MMRuntime regenerates the maximal matching running-time
// comparison of Figure 6.
func BenchmarkFigure6MMRuntime(b *testing.B) {
	var rows []bench.RuntimeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].SpeedupSim, "ampc-over-mpc-speedup")
	}
}

// BenchmarkFigure7MSFRuntime regenerates the MSF running-time comparison of
// Figure 7.
func BenchmarkFigure7MSFRuntime(b *testing.B) {
	var rows []bench.RuntimeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Figure7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].SpeedupSim, "ampc-over-mpc-speedup")
	}
}

// BenchmarkFigure8SelfSpeedup regenerates the machine-scaling experiment of
// Figure 8.
func BenchmarkFigure8SelfSpeedup(b *testing.B) {
	var rows []bench.Figure8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Figure8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[len(rows)-1].Speedup, "speedup-at-100-machines")
	}
}

// BenchmarkFigure9KVCommunication regenerates the key-value communication
// plot of Figure 9.
func BenchmarkFigure9KVCommunication(b *testing.B) {
	var rows []bench.Figure9Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Figure9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[0].KVBytes), "mis-kv-bytes")
	}
}

// BenchmarkTable4LatencyModels regenerates the RDMA vs TCP/IP vs MPC
// comparison of Table 4.
func BenchmarkTable4LatencyModels(b *testing.B) {
	var rows []bench.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Table4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Problem == "2-Cyc" {
			b.ReportMetric(r.TCPNorm, "cycle-tcp-over-rdma")
			b.ReportMetric(r.MPCNorm, "cycle-mpc-over-rdma")
			break
		}
	}
}

// BenchmarkSection56Cycle regenerates the 1-vs-2-Cycle comparison of
// Section 5.6.
func BenchmarkSection56Cycle(b *testing.B) {
	var rows []bench.CycleRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Section56Cycle(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[len(rows)-1].Speedup, "ampc-over-mpc-speedup")
	}
}

// BenchmarkSection57Connectivity regenerates the connectivity discussion of
// Section 5.7 (contraction dominates the pipeline).
func BenchmarkSection57Connectivity(b *testing.B) {
	var rows []bench.Section57Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = bench.Section57Connectivity(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(100*rows[0].ContractShare, "contraction-share-pct")
	}
}

// Ablation benches for the engine's design choices: truncation budget, cycle
// sampling rate, KKT sampling and the MPC threshold.

// BenchmarkAblationTruncationBudget sweeps the per-search truncation budget
// of the truncated MIS variant.
func BenchmarkAblationTruncationBudget(b *testing.B) {
	for _, budget := range []int{16, 64, 256} {
		budget := budget
		b.Run(byBudgetName(budget), func(b *testing.B) {
			g := benchGraph()
			for i := 0; i < b.N; i++ {
				cfg := Config{Machines: 8, Threads: 4, EnableCache: true, Seed: 1, SpacePerMachine: budget}
				if _, err := misTruncated(g, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCycleSampling sweeps the 1-vs-2-Cycle sampling probability
// (the paper uses 1/1024).
func BenchmarkAblationCycleSampling(b *testing.B) {
	for _, denom := range []int{64, 1024, 4096} {
		denom := denom
		b.Run(byBudgetName(denom), func(b *testing.B) {
			g := benchCycleGraph()
			for i := 0; i < b.N; i++ {
				res, err := cycleWithProbability(g, Config{Machines: 8, Threads: 4, Seed: 1}, 1.0/float64(denom))
				if err != nil {
					b.Fatal(err)
				}
				if res.SingleCycle {
					b.Fatal("misclassified")
				}
			}
		})
	}
}

// BenchmarkAblationKKTSampling compares the plain MSF pipeline with the
// Karger-Klein-Tarjan sampling reduction on the same input.
func BenchmarkAblationKKTSampling(b *testing.B) {
	g := benchWeightedGraph()
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MinimumSpanningForest(g, Config{Machines: 8, Threads: 4, EnableCache: true, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kkt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MinimumSpanningForestKKT(g, Config{Machines: 8, Threads: 4, EnableCache: true, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMPCThreshold sweeps the in-memory switch-over threshold of
// the MPC MIS baseline (the paper uses 5x10^7 edges).
func BenchmarkAblationMPCThreshold(b *testing.B) {
	for _, threshold := range []int{500, 5_000, 50_000} {
		threshold := threshold
		b.Run(byBudgetName(threshold), func(b *testing.B) {
			opts := benchOpts()
			opts.MPCThreshold = threshold
			for i := 0; i < b.N; i++ {
				if _, _, err := bench.Table3(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
