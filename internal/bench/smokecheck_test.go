package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

func smokeWith(rows ...BatchRow) Smoke {
	return Smoke{Seed: 1, Datasets: []string{"OK"}, Scale: 1, Machines: 8, Threads: 4, Rows: rows}
}

// check runs CheckSmoke over the given fresh runs at 10% tolerance.
func check(base Smoke, runs ...Smoke) ([]string, int) {
	return CheckSmoke(base, runs, 0.10)
}

// with returns s with the section whose rows have type R set to rows.
func with[R any](s Smoke, rows ...R) Smoke {
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Type() == reflect.TypeOf(rows) {
			v.Field(i).Set(reflect.ValueOf(rows))
			return s
		}
	}
	panic("Smoke has no section of type " + reflect.TypeOf(rows).String())
}

func TestCheckSmokeZeroBaselineNeverFails(t *testing.T) {
	// A zero (or negative) baseline metric has nothing to regress from:
	// whatever the fresh run measures, the gate must not fail on it.
	base := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 0, SimSpeedup: 0})
	fresh := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 0, SimSpeedup: 0})
	lines, failures := check(base, fresh)
	if failures != 0 {
		t.Fatalf("zero-baseline metrics failed the gate: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func TestCheckSmokeMissingRowFails(t *testing.T) {
	base := smokeWith(
		BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5},
		BatchRow{Graph: "TW", Algo: "MM", Identical: true, VisitReduction: 2, SimSpeedup: 1.5},
	)
	fresh := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})
	lines, failures := check(base, fresh)
	if failures != 1 {
		t.Fatalf("missing row: %d failures, want 1\n%s", failures, strings.Join(lines, "\n"))
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "TW/MM") || !strings.Contains(joined, "missing from fresh run") {
		t.Fatalf("missing-row line absent:\n%s", joined)
	}
}

func TestCheckSmokeExactlyAtThresholdPasses(t *testing.T) {
	// With 10% tolerance the floor is 0.90 x baseline; a fresh value
	// landing exactly on the floor must pass, one epsilon below must fail.
	base := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2.0, SimSpeedup: 1.0})
	atFloor := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 1.8, SimSpeedup: 0.9})
	if lines, failures := check(base, atFloor); failures != 0 {
		t.Fatalf("exactly-at-threshold failed the gate: %d\n%s", failures, strings.Join(lines, "\n"))
	}
	below := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 1.79, SimSpeedup: 0.9})
	lines, failures := check(base, below)
	if failures != 1 {
		t.Fatalf("below-threshold regression not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
	if !strings.Contains(strings.Join(lines, "\n"), "REGRESSED") {
		t.Fatalf("regressed marker absent:\n%s", strings.Join(lines, "\n"))
	}
}

func TestCheckSmokeNonIdenticalFails(t *testing.T) {
	base := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})
	fresh := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: false, VisitReduction: 2, SimSpeedup: 1.5})
	_, failures := check(base, fresh)
	if failures != 1 {
		t.Fatalf("non-identical row: %d failures, want 1", failures)
	}
}

func TestCheckSmokeRunsKeepBestPerMetric(t *testing.T) {
	// Each metric keeps its best value across runs, independently: the
	// first run carries the best speedup, the second the best reduction.
	base := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2.5, SimSpeedup: 2.0})
	runs := []Smoke{
		smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 1.5, SimSpeedup: 2.0}),
		smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2.5, SimSpeedup: 1.0}),
	}
	if lines, failures := CheckSmoke(base, runs, 0); failures != 0 {
		t.Fatalf("best-of-runs metrics failed the gate: %d\n%s", failures, strings.Join(lines, "\n"))
	}
	// Identical must hold in EVERY run, not just the best one.
	runs = append(runs, smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: false, VisitReduction: 3, SimSpeedup: 3}))
	lines, failures := CheckSmoke(base, runs, 0)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "results differ") {
		t.Fatalf("a non-identical run did not poison the row: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func rebalanceRow(graph string, reduction float64, zeroKeys int) RebalanceSmokeRow {
	return RebalanceSmokeRow{
		Graph:                  graph,
		RangeLoad:              LoadStats{MaxMean: 2 * reduction, ZeroKeyMachines: zeroKeys},
		WeightedLoad:           LoadStats{MaxMean: 2},
		LoadImbalanceReduction: reduction,
	}
}

func TestCheckSmokeRebalanceGate(t *testing.T) {
	base := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})
	base.Rebalance = []RebalanceSmokeRow{rebalanceRow("CW", 2.0, 0)}
	fresh := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})

	// At the floor (0.90 x baseline) passes; below fails.
	ok := with(fresh, rebalanceRow("CW", 1.8, 0))
	if lines, failures := check(base, ok); failures != 0 {
		t.Fatalf("at-floor rebalance row failed the gate: %d\n%s", failures, strings.Join(lines, "\n"))
	}
	regressed := with(fresh, rebalanceRow("CW", 1.79, 0))
	lines, failures := check(base, regressed)
	if failures != 1 {
		t.Fatalf("regressed rebalance row: %d failures, want 1\n%s", failures, strings.Join(lines, "\n"))
	}
	if !strings.Contains(strings.Join(lines, "\n"), "load_imbalance_reduction") {
		t.Fatalf("rebalance metric line absent:\n%s", strings.Join(lines, "\n"))
	}

	// A zero-key machine is an outright failure, whatever the reduction.
	starved := with(fresh, rebalanceRow("CW", 3.0, 1))
	lines, failures = check(base, starved)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "zero keys") {
		t.Fatalf("zero-key machine not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A baseline rebalance row missing from the fresh computation fails.
	lines, failures = check(base, fresh)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "CW/rebalance") {
		t.Fatalf("missing rebalance row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func TestCheckSmokeBackendGate(t *testing.T) {
	base := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})
	base.Backend = []BackendSmokeRow{
		{Graph: "OK", Backend: "disk", Identical: true, SpillRatio: 2.0},
		{Graph: "OK", Backend: "rpc", Identical: true},
	}
	fresh := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})

	ok := with(fresh,
		BackendSmokeRow{Graph: "OK", Backend: "disk", Identical: true, SpillRatio: 1.8},
		BackendSmokeRow{Graph: "OK", Backend: "rpc", Identical: true},
	)
	if lines, failures := check(base, ok); failures != 0 {
		t.Fatalf("healthy backend rows failed the gate: %d\n%s", failures, strings.Join(lines, "\n"))
	}

	// A backend whose output diverged from the in-memory reference fails,
	// whatever the ratios say.
	diverged := with(fresh,
		BackendSmokeRow{Graph: "OK", Backend: "disk", Identical: true, SpillRatio: 2.0},
		BackendSmokeRow{Graph: "OK", Backend: "rpc", Identical: false},
	)
	lines, failures := check(base, diverged)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "differ from the in-memory reference") {
		t.Fatalf("diverged backend not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A collapsed spill ratio (the disk backend stopped spilling) fails.
	collapsed := with(fresh,
		BackendSmokeRow{Graph: "OK", Backend: "disk", Identical: true, SpillRatio: 1.0},
		BackendSmokeRow{Graph: "OK", Backend: "rpc", Identical: true},
	)
	lines, failures = check(base, collapsed)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "spill_ratio") {
		t.Fatalf("collapsed spill ratio not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A baseline backend row missing from the fresh run fails.
	lines, failures = check(base, fresh)
	if failures != 2 || !strings.Contains(strings.Join(lines, "\n"), "OK/disk") {
		t.Fatalf("missing backend rows not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func pipelineSmokeRow(graph string, mean, std, advantage float64) PipelineRow {
	return PipelineRow{
		Graph:                      graph,
		Identical:                  true,
		Repeats:                    pipelineRepeats,
		RangedIdleReductionMeanPct: mean,
		RangedIdleReductionStdPct:  std,
		RangedAdvantagePct:         advantage,
		GateFloorPct:               mean - 3*std,
	}
}

func TestCheckSmokePipelineGate(t *testing.T) {
	base := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})
	base.Pipeline = []PipelineRow{pipelineSmokeRow("CW", 40, 2, 5)}
	fresh := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})

	// A fresh mean at (or above) the committed floor (mean - 3 x std = 34)
	// passes, whatever the fractional tolerance would say.
	ok := with(fresh, pipelineSmokeRow("CW", 34, 3, 4))
	if lines, failures := check(base, ok); failures != 0 {
		t.Fatalf("at-floor pipeline row failed the gate: %d\n%s", failures, strings.Join(lines, "\n"))
	}

	// Below the variance-derived floor fails, even within 10% of the mean.
	regressed := with(fresh, pipelineSmokeRow("CW", 33.9, 3, 4))
	lines, failures := check(base, regressed)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "ranged_idle_mean_pct") {
		t.Fatalf("below-floor pipeline row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// Losing the ranged-over-whole advantage fails.
	lost := with(fresh, pipelineSmokeRow("CW", 40, 2, 0))
	lines, failures = check(base, lost)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "advantage") {
		t.Fatalf("lost advantage not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A fused run whose outputs diverged fails, whatever the metrics say.
	diverged := pipelineSmokeRow("CW", 40, 2, 5)
	diverged.Identical = false
	lines, failures = check(base, with(fresh, diverged))
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "differ") {
		t.Fatalf("diverged pipeline row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A baseline pipeline row missing from the fresh run fails.
	lines, failures = check(base, fresh)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "CW/pipeline") {
		t.Fatalf("missing pipeline row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func TestCheckSmokePipelineRunsKeepBest(t *testing.T) {
	// The committed floor of 45 is met only by the second run's mean, and
	// the ranged advantage need only hold in one run.
	base := smokeWith()
	base.Pipeline = []PipelineRow{{Graph: "CW", Identical: true, GateFloorPct: 45}}
	runs := []Smoke{
		with(smokeWith(), pipelineSmokeRow("CW", 30, 5, 2)),
		with(smokeWith(), pipelineSmokeRow("CW", 45, 1, 0)),
	}
	if lines, failures := CheckSmoke(base, runs, 0.10); failures != 0 {
		t.Fatalf("best-of-runs pipeline row failed the gate: %d\n%s", failures, strings.Join(lines, "\n"))
	}
	// An advantage lost in every run fails.
	lost := []Smoke{with(smokeWith(), pipelineSmokeRow("CW", 45, 1, 0)), with(smokeWith(), pipelineSmokeRow("CW", 45, 1, -1))}
	if lines, failures := CheckSmoke(base, lost, 0.10); failures != 1 {
		t.Fatalf("advantage lost in every run: %d failures, want 1\n%s", failures, strings.Join(lines, "\n"))
	}
	// Identical must hold in EVERY run, not just the best one.
	bad := pipelineSmokeRow("CW", 50, 1, 3)
	bad.Identical = false
	runs = append(runs, with(smokeWith(), bad))
	lines, failures := CheckSmoke(base, runs, 0.10)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "differ") {
		t.Fatalf("a non-identical run did not poison the row: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func localitySmokeRow(graph, algo string, reduction float64) LocalitySmokeRow {
	return LocalitySmokeRow{Graph: graph, Algo: algo, Identical: true, RemoteReduction: reduction}
}

func TestCheckSmokeLocalityGate(t *testing.T) {
	base := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})
	base.Locality = []LocalitySmokeRow{localitySmokeRow("OK", "MIS", 2.0)}
	fresh := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})

	// At the fractional floor (0.90 x baseline) passes; below fails.
	ok := with(fresh, localitySmokeRow("OK", "MIS", 1.8))
	if lines, failures := check(base, ok); failures != 0 {
		t.Fatalf("at-floor locality row failed the gate: %d\n%s", failures, strings.Join(lines, "\n"))
	}
	regressed := with(fresh, localitySmokeRow("OK", "MIS", 1.79))
	lines, failures := check(base, regressed)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "remote_reduction") {
		t.Fatalf("regressed locality row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// Divergent hash-vs-owner outputs fail, whatever the reduction says.
	diverged := localitySmokeRow("OK", "MIS", 2.0)
	diverged.Identical = false
	lines, failures = check(base, with(fresh, diverged))
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "differ") {
		t.Fatalf("diverged locality row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A baseline locality row missing from the fresh run fails.
	lines, failures = check(base, fresh)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "OK/MIS/loc") {
		t.Fatalf("missing locality row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func adaptiveSmokeRow(graph string, mean, std float64) AdaptiveRow {
	return AdaptiveRow{
		Graph:              graph,
		Identical:          true,
		Repeats:            adaptiveRepeats,
		ImprovementMeanPct: mean,
		ImprovementStdPct:  std,
		GateFloorPct:       mean - 3*std,
	}
}

func TestCheckSmokeAdaptiveGate(t *testing.T) {
	base := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})
	base.Adaptive = []AdaptiveRow{adaptiveSmokeRow("CW", 60, 4)}
	fresh := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})

	// A fresh improvement at (or above) the committed variance floor
	// (mean - 3 x std = 48) passes; below it fails even within 10%.
	ok := with(fresh, adaptiveSmokeRow("CW", 48, 5))
	if lines, failures := check(base, ok); failures != 0 {
		t.Fatalf("at-floor adaptive row failed the gate: %d\n%s", failures, strings.Join(lines, "\n"))
	}
	regressed := with(fresh, adaptiveSmokeRow("CW", 47.9, 5))
	lines, failures := check(base, regressed)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "improvement_mean_pct") {
		t.Fatalf("below-floor adaptive row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// Adaptive outputs diverging from the static run fail outright.
	diverged := adaptiveSmokeRow("CW", 60, 4)
	diverged.Identical = false
	lines, failures = check(base, with(fresh, diverged))
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "differ") {
		t.Fatalf("diverged adaptive row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A baseline adaptive row missing from the fresh run fails.
	lines, failures = check(base, fresh)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "CW/adaptive") {
		t.Fatalf("missing adaptive row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func TestCheckSmokeAdaptiveRunsKeepBestImprovement(t *testing.T) {
	// The committed floor of 70 is met only by the second run's mean.
	base := with(smokeWith(), AdaptiveRow{Graph: "CW", Identical: true, GateFloorPct: 70})
	runs := []Smoke{
		with(smokeWith(), adaptiveSmokeRow("CW", 50, 8)),
		with(smokeWith(), adaptiveSmokeRow("CW", 70, 2)),
	}
	if lines, failures := CheckSmoke(base, runs, 0.10); failures != 0 {
		t.Fatalf("best improvement not kept: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
	// Identical must hold in EVERY run, not just the best one.
	bad := adaptiveSmokeRow("CW", 80, 1)
	bad.Identical = false
	runs = append(runs, with(smokeWith(), bad))
	lines, failures := CheckSmoke(base, runs, 0.10)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "differ") {
		t.Fatalf("a non-identical run did not poison the row: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func chaosSmokeRow(graph string, mean, std float64) ChaosSmokeRow {
	return ChaosSmokeRow{
		Graph:           graph,
		Identical:       true,
		OverheadMeanPct: mean,
		OverheadStdPct:  std,
		GateCeilingPct:  mean + 3*std + 1,
		Retries:         10,
		Failovers:       5,
		SubroundRetries: 2,
	}
}

func TestCheckSmokeChaosGate(t *testing.T) {
	base := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})
	base.Chaos = []ChaosSmokeRow{chaosSmokeRow("OK", 8, 2)}
	fresh := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})

	// The chaos gate is a ceiling: a fresh overhead mean at (or below) the
	// committed mean + 3 x std + 1 = 15 passes; above it fails.
	ok := with(fresh, chaosSmokeRow("OK", 15, 3))
	if lines, failures := check(base, ok); failures != 0 {
		t.Fatalf("at-ceiling chaos row failed the gate: %d\n%s", failures, strings.Join(lines, "\n"))
	}
	regressed := with(fresh, chaosSmokeRow("OK", 15.1, 3))
	lines, failures := check(base, regressed)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "overhead_mean_pct") {
		t.Fatalf("above-ceiling chaos row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// Chaotic outputs diverging from the clean run fail outright.
	diverged := chaosSmokeRow("OK", 8, 2)
	diverged.Identical = false
	lines, failures = check(base, with(fresh, diverged))
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "differ") {
		t.Fatalf("diverged chaos row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A failed algorithm run under chaos fails the gate.
	failedRun := chaosSmokeRow("OK", 8, 2)
	failedRun.FailedRuns = 1
	lines, failures = check(base, with(fresh, failedRun))
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "failed under chaos") {
		t.Fatalf("failed chaos run not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A recovery tier going unexercised (zero counter) fails the gate.
	unexercised := chaosSmokeRow("OK", 8, 2)
	unexercised.SubroundRetries = 0
	lines, failures = check(base, with(fresh, unexercised))
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "subround_retries = 0") {
		t.Fatalf("unexercised recovery tier not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A baseline chaos row missing from the fresh run fails.
	lines, failures = check(base, fresh)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "OK/chaos") {
		t.Fatalf("missing chaos row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func TestCheckSmokeChaosRunsKeepLowestOverhead(t *testing.T) {
	// The committed ceiling of 7 is met only by the second run's mean.
	ceil := chaosSmokeRow("OK", 0, 0)
	ceil.GateCeilingPct = 7
	base := with(smokeWith(), ceil)
	runs := []Smoke{
		with(smokeWith(), chaosSmokeRow("OK", 12, 4)),
		with(smokeWith(), chaosSmokeRow("OK", 7, 1)),
	}
	if lines, failures := CheckSmoke(base, runs, 0.10); failures != 0 {
		t.Fatalf("lowest overhead not kept: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
	// A recovery tier need only fire in one run.
	quiet := chaosSmokeRow("OK", 7, 1)
	quiet.Retries, quiet.Failovers, quiet.SubroundRetries = 0, 0, 0
	if lines, failures := CheckSmoke(base, append([]Smoke{with(smokeWith(), quiet)}, runs...), 0.10); failures != 0 {
		t.Fatalf("tiers exercised in another run failed the gate: %d\n%s", failures, strings.Join(lines, "\n"))
	}
	// Identical must hold — and no run may fail — in EVERY run.
	bad := chaosSmokeRow("OK", 5, 1)
	bad.Identical = false
	bad.FailedRuns = 1
	runs = append(runs, with(smokeWith(), bad))
	lines, failures := CheckSmoke(base, runs, 0.10)
	if failures != 2 || !strings.Contains(strings.Join(lines, "\n"), "differ") || !strings.Contains(strings.Join(lines, "\n"), "failed under chaos") {
		t.Fatalf("a non-identical, failed run did not poison the row: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func servingSmokeRow(graph string, mean, std float64) ServingRow {
	return ServingRow{
		Graph:           graph,
		Jobs:            4,
		Identical:       true,
		Repeats:         servingRepeats,
		ThroughputMeanX: mean,
		ThroughputStdX:  std,
		ThroughputX:     mean,
		PlanCacheHits:   7,
		PlanCacheMisses: 2,
		GateFloorX:      mean - 3*std,
	}
}

func TestCheckSmokeServingGate(t *testing.T) {
	base := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})
	base.Serving = []ServingRow{servingSmokeRow("CW", 2.0, 0.1)}
	fresh := smokeWith(BatchRow{Graph: "OK", Algo: "MIS", Identical: true, VisitReduction: 2, SimSpeedup: 1.5})

	// The serving gate is an absolute variance-derived floor: a fresh
	// throughput mean at (or above) the committed mean - 3 x std = 1.7
	// passes; below it fails.
	ok := with(fresh, servingSmokeRow("CW", 1.7, 0.2))
	if lines, failures := check(base, ok); failures != 0 {
		t.Fatalf("at-floor serving row failed the gate: %d\n%s", failures, strings.Join(lines, "\n"))
	}
	regressed := with(fresh, servingSmokeRow("CW", 1.69, 0.2))
	lines, failures := check(base, regressed)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "throughput_mean_x") {
		t.Fatalf("below-floor serving row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// Concurrent outputs diverging from the one-shot runs fail outright.
	diverged := servingSmokeRow("CW", 2.0, 0.1)
	diverged.Identical = false
	lines, failures = check(base, with(fresh, diverged))
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "differ") {
		t.Fatalf("diverged serving row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A plan cache that stopped scoring hits fails the gate.
	cold := servingSmokeRow("CW", 2.0, 0.1)
	cold.PlanCacheHits = 0
	lines, failures = check(base, with(fresh, cold))
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "plan cache") {
		t.Fatalf("hitless plan cache not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}

	// A baseline serving row missing from the fresh run fails.
	lines, failures = check(base, fresh)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "CW/serving") {
		t.Fatalf("missing serving row not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func TestCheckSmokeServingRunsKeepBestThroughput(t *testing.T) {
	// The committed floor of 2.2x is met only by the second run's mean.
	base := with(smokeWith(), ServingRow{Graph: "CW", Identical: true, PlanCacheHits: 7, GateFloorX: 2.2})
	runs := []Smoke{
		with(smokeWith(), servingSmokeRow("CW", 1.8, 0.3)),
		with(smokeWith(), servingSmokeRow("CW", 2.2, 0.1)),
	}
	if lines, failures := CheckSmoke(base, runs, 0.10); failures != 0 {
		t.Fatalf("best throughput not kept: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
	// Identical must hold — and the cache must hit — in EVERY run.
	bad := servingSmokeRow("CW", 2.5, 0.1)
	bad.Identical = false
	bad.PlanCacheHits = 0
	runs = append(runs, with(smokeWith(), bad))
	lines, failures := CheckSmoke(base, runs, 0.10)
	if failures != 2 || !strings.Contains(strings.Join(lines, "\n"), "differ") || !strings.Contains(strings.Join(lines, "\n"), "plan cache") {
		t.Fatalf("a non-identical, hitless run did not poison the row: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}

func TestSmokeSectionsCoverEverySmokeSection(t *testing.T) {
	// Every section slice of Smoke has exactly one gate-table entry, so a
	// new section cannot land ungated.
	entries := make(map[string]int)
	for _, sec := range smokeSections {
		entries[sec.field]++
	}
	typ := reflect.TypeOf(Smoke{})
	sections := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Slice || f.Type.Elem().Kind() != reflect.Struct {
			continue
		}
		sections++
		if entries[f.Name] != 1 {
			t.Errorf("Smoke.%s has %d gate-table entries, want 1", f.Name, entries[f.Name])
		}
	}
	if len(smokeSections) != sections {
		t.Errorf("gate table has %d entries for %d Smoke sections", len(smokeSections), sections)
	}
}

func TestCheckSmokeCommittedSnapshotAgainstItself(t *testing.T) {
	// The committed snapshot checked against itself passes, with one line
	// per gated (row, metric) that prints the committed bound next to the
	// committed value.  An entry reading the wrong bound field shows here.
	data, err := os.ReadFile("../../BENCH_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	var s Smoke
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	var want []string
	add := func(label, name string, bound, value float64) {
		want = append(want, fmt.Sprintf("%-10s %-22s %10.3f %10.3f", label, name, bound, value))
	}
	for _, r := range s.Rows {
		add(r.Graph+"/"+r.Algo, "visit_reduction", r.VisitReduction, r.VisitReduction)
		add(r.Graph+"/"+r.Algo, "sim_speedup", r.SimSpeedup, r.SimSpeedup)
	}
	for _, r := range s.Rebalance {
		add(r.Graph+"/rebalance", "load_imbalance_reduction", r.LoadImbalanceReduction, r.LoadImbalanceReduction)
	}
	for _, r := range s.Backend {
		add(r.Graph+"/"+r.Backend, "spill_ratio", r.SpillRatio, r.SpillRatio)
	}
	for _, r := range s.Pipeline {
		add(r.Graph+"/pipeline", "ranged_idle_mean_pct", r.GateFloorPct, r.RangedIdleReductionMeanPct)
	}
	for _, r := range s.Locality {
		add(r.Graph+"/"+r.Algo+"/loc", "remote_reduction", r.RemoteReduction, r.RemoteReduction)
	}
	for _, r := range s.Adaptive {
		add(r.Graph+"/adaptive", "improvement_mean_pct", r.GateFloorPct, r.ImprovementMeanPct)
	}
	for _, r := range s.Chaos {
		add(r.Graph+"/chaos", "overhead_mean_pct", r.GateCeilingPct, r.OverheadMeanPct)
	}
	for _, r := range s.Serving {
		add(r.Graph+"/serving", "throughput_mean_x", r.GateFloorX, r.ThroughputMeanX)
	}
	lines, failures := CheckSmoke(s, []Smoke{s}, 0.10)
	if failures != 0 {
		t.Fatalf("committed snapshot fails against itself: %d\n%s", failures, strings.Join(lines, "\n"))
	}
	if len(lines) != 1+len(want) {
		t.Fatalf("%d lines, want a header plus %d metric lines\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i, prefix := range want {
		if !strings.HasPrefix(lines[i+1], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i+1, lines[i+1], prefix)
		}
	}
}

func TestCheckSmokeInvariantsHoldInEveryRun(t *testing.T) {
	// A backend row identical only in the second run fails: invariants
	// must hold in every run, whichever run comes last.
	base := with(smokeWith(), BackendSmokeRow{Graph: "OK", Backend: "disk", Identical: true, SpillRatio: 2})
	first := with(smokeWith(), BackendSmokeRow{Graph: "OK", Backend: "disk", Identical: false, SpillRatio: 2})
	second := with(smokeWith(), BackendSmokeRow{Graph: "OK", Backend: "disk", Identical: true, SpillRatio: 2})
	lines, failures := check(base, first, second)
	if failures != 1 || !strings.Contains(strings.Join(lines, "\n"), "differ from the in-memory reference") {
		t.Fatalf("first-run divergence not caught: %d failures\n%s", failures, strings.Join(lines, "\n"))
	}
}
