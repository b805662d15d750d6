package bench

import (
	"fmt"
	"reflect"
)

// Smoke-snapshot regression checking.
//
// cmd/benchcheck re-runs the pinned-seed smoke benchmark and checks every
// gated section of BENCH_smoke.json against the committed snapshot: the
// batching, rebalance, backend, pipeline, locality, adaptive-ownership,
// chaos and serving rows.  smokeSections below is the single source of
// truth for what each section measures and how it is gated; BatchSmoke
// fills the snapshot from the same table, so a new section is one Smoke
// field plus one entry.  The comparison logic lives here so it can be
// tested against its edge cases directly — zero baselines, rows missing
// from the fresh run, and regressions landing exactly on the threshold —
// instead of only through the command's exit code.

// smokeSection is one entry of the gate table: the Smoke slice field it
// owns, how BatchSmoke computes its rows, and how one row is gated.
type smokeSection struct {
	field string
	fill  func(opts Options, s *Smoke) error
	rows  func(s Smoke) []gateRow
}

// section builds the table entry for the Smoke field named field, whose
// rows have type R.
func section[R any](field string, run func(Options) ([]R, error), gate func(R) gateRow) smokeSection {
	return smokeSection{
		field: field,
		fill: func(opts Options, s *Smoke) error {
			rows, err := run(opts)
			if err != nil {
				return err
			}
			reflect.ValueOf(s).Elem().FieldByName(field).Set(reflect.ValueOf(rows))
			return nil
		},
		rows: func(s Smoke) []gateRow {
			rows := reflect.ValueOf(s).FieldByName(field).Interface().([]R)
			out := make([]gateRow, len(rows))
			for i, row := range rows {
				out[i] = gate(row)
			}
			return out
		},
	}
}

// pinned runs a section that picks its own datasets, whatever the snapshot's
// dataset list is.
func pinned[R any](run func(Options) ([]R, error)) func(Options) ([]R, error) {
	return func(opts Options) ([]R, error) {
		opts.Datasets = nil
		return run(opts)
	}
}

// gateRow is one smoke row as the gate sees it.  The label both matches a
// row across runs and prefixes its output lines.  The invariant and metric
// lists of every row of a section line up index for index.
type gateRow struct {
	label   string
	always  []invariant // must hold in every run
	once    []invariant // must hold in at least one run
	metrics []gatedMetric
}

// invariant is a pass/fail property of one run's row; msg says what broke.
type invariant struct {
	holds bool
	msg   string
}

type gateKind int

const (
	// gateFractional fails when fresh < (1 - tolerance) x baseline; a
	// baseline <= 0 never fails.  The best run is the largest value.
	gateFractional gateKind = iota
	// gateFloor fails when fresh falls below the committed floor.  The best
	// run is the largest value.
	gateFloor
	// gateCeiling fails when fresh rises above the committed ceiling.  The
	// best run is the smallest value.
	gateCeiling
)

// gatedMetric is one gated quantity of a row.  bound is read from the
// baseline row (the committed value, floor or ceiling); value from a fresh
// row.
type gatedMetric struct {
	name  string
	kind  gateKind
	bound float64
	value float64
}

func fractionalMetric(name string, v float64) gatedMetric {
	return gatedMetric{name: name, kind: gateFractional, bound: v, value: v}
}

// better reports whether a beats b as a best-of-runs value.
func (k gateKind) better(a, b float64) bool {
	if k == gateCeiling {
		return a < b
	}
	return a > b
}

// check formats the comparison of the best fresh value against the baseline
// bound and reports whether it failed.
func (m gatedMetric) check(label string, fresh, tolerance float64) (string, bool) {
	var failed bool
	var ratio string
	switch m.kind {
	case gateFractional:
		r := 0.0
		if m.bound > 0 {
			r = fresh / m.bound
		}
		failed = m.bound > 0 && r < 1-tolerance
		ratio = fmt.Sprintf("%7.2fx", r)
	case gateFloor:
		failed = fresh < m.bound
		ratio = fmt.Sprintf("%8s", "(floor)")
	case gateCeiling:
		failed = fresh > m.bound
		ratio = fmt.Sprintf("%8s", "(ceil)")
	}
	status := ""
	if failed {
		status = "  REGRESSED"
	}
	return fmt.Sprintf("%-10s %-22s %10.3f %10.3f %s%s", label, m.name, m.bound, fresh, ratio, status), failed
}

// smokeSections is the gate table: one entry per Smoke section, in output
// order.
var smokeSections = []smokeSection{
	section("Rows", func(opts Options) ([]BatchRow, error) {
		rows, _, err := BatchComparison(opts)
		return rows, err
	}, func(r BatchRow) gateRow {
		return gateRow{
			label:   r.Graph + "/" + r.Algo,
			always:  []invariant{{r.Identical, "batched and unbatched results differ"}},
			metrics: []gatedMetric{fractionalMetric("visit_reduction", r.VisitReduction), fractionalMetric("sim_speedup", r.SimSpeedup)},
		}
	}),
	// The load-imbalance reduction is a pure function of the pinned
	// graphs; a machine owning zero keys is the empty-tail bug the
	// balanced split fixed.
	section("Rebalance", pinned(func(opts Options) ([]RebalanceSmokeRow, error) {
		return RebalanceSmoke(opts), nil
	}), func(r RebalanceSmokeRow) gateRow {
		zeros := r.RangeLoad.ZeroKeyMachines + r.WeightedLoad.ZeroKeyMachines
		return gateRow{
			label:   r.Graph + "/rebalance",
			always:  []invariant{{zeros == 0, fmt.Sprintf("%d machine(s) own zero keys", zeros)}},
			metrics: []gatedMetric{fractionalMetric("load_imbalance_reduction", r.LoadImbalanceReduction)},
		}
	}),
	section("Backend", pinned(BackendSmoke), func(r BackendSmokeRow) gateRow {
		return gateRow{
			label:   r.Graph + "/" + r.Backend,
			always:  []invariant{{r.Identical, "results differ from the in-memory reference"}},
			metrics: []gatedMetric{fractionalMetric("spill_ratio", r.SpillRatio)},
		}
	}),
	// The floor is the committed variance-derived mean - 3 x std: an
	// absolute bound, because the run-to-run noise is already measured
	// into it.
	section("Pipeline", pinned(PipelineSmoke), func(r PipelineRow) gateRow {
		return gateRow{
			label:   r.Graph + "/pipeline",
			always:  []invariant{{r.Identical, "fused pipelined outputs differ from the standalone runs"}},
			once:    []invariant{{r.RangedAdvantagePct > 0, fmt.Sprintf("ranged declarations lost their advantage over whole-store (%.2f%%)", r.RangedAdvantagePct)}},
			metrics: []gatedMetric{{"ranged_idle_mean_pct", gateFloor, r.GateFloorPct, r.RangedIdleReductionMeanPct}},
		}
	}),
	section("Locality", pinned(LocalitySmoke), func(r LocalitySmokeRow) gateRow {
		return gateRow{
			label:   r.Graph + "/" + r.Algo + "/loc",
			always:  []invariant{{r.Identical, "hash and owner-affine results differ"}},
			metrics: []gatedMetric{fractionalMetric("remote_reduction", r.RemoteReduction)},
		}
	}),
	section("Adaptive", pinned(AdaptiveSmoke), func(r AdaptiveRow) gateRow {
		return gateRow{
			label:   r.Graph + "/adaptive",
			always:  []invariant{{r.Identical, "adaptive outputs differ from the static run"}},
			metrics: []gatedMetric{{"improvement_mean_pct", gateFloor, r.GateFloorPct, r.ImprovementMeanPct}},
		}
	}),
	// The fault budget must absorb every injected failure, and each
	// recovery tier must fire in some run; the overhead gate is a ceiling
	// because smaller is better.
	section("Chaos", pinned(ChaosSmoke), func(r ChaosSmokeRow) gateRow {
		tier := func(name string, n int64) invariant {
			return invariant{n > 0, name + " = 0: the fault schedule no longer exercises this recovery tier"}
		}
		return gateRow{
			label: r.Graph + "/chaos",
			always: []invariant{
				{r.Identical, "chaotic outputs differ from the fault-free run"},
				{r.FailedRuns == 0, fmt.Sprintf("%d algorithm run(s) failed under chaos (the fault budget must absorb every injected failure)", r.FailedRuns)},
			},
			once:    []invariant{tier("retries", r.Retries), tier("failovers", r.Failovers), tier("subround_retries", int64(r.SubroundRetries))},
			metrics: []gatedMetric{{"overhead_mean_pct", gateCeiling, r.GateCeilingPct, r.OverheadMeanPct}},
		}
	}),
	section("Serving", pinned(ServingSmoke), func(r ServingRow) gateRow {
		return gateRow{
			label: r.Graph + "/serving",
			always: []invariant{
				{r.Identical, "concurrent job outputs differ from the one-shot runs"},
				{r.PlanCacheHits > 0, "plan cache scored no hits (repeated queries must reuse compiled plans)"},
			},
			metrics: []gatedMetric{{"throughput_mean_x", gateFloor, r.GateFloorX, r.ThroughputMeanX}},
		}
	}),
}

// CheckSmoke compares one or more fresh measurement runs against the
// committed baseline with the given fractional tolerance (0.10 = a
// fractional metric may fall to 90% of its committed value).  It returns one
// human-readable line per comparison and the number of failures.
//
// The metrics depend slightly on goroutine scheduling, so each gated metric
// keeps its best value across runs: noise cannot fail the gate, while a real
// regression persists across every run.  A baseline row fails when it is
// missing from every run, when one of its every-run invariants (identical
// outputs, among others) breaks in any run, when one of its at-least-once
// invariants holds in no run, or when the best value of a metric crosses its
// bound.  A fractional metric whose baseline is zero or negative cannot fail,
// and a value landing exactly on a bound passes.
func CheckSmoke(baseline Smoke, runs []Smoke, tolerance float64) (lines []string, failures int) {
	fail := func(line string) {
		failures++
		lines = append(lines, line)
	}
	lines = append(lines, fmt.Sprintf("%-10s %-22s %10s %10s %8s", "row", "metric", "baseline", "fresh", "ratio"))
	for _, sec := range smokeSections {
		fresh := make(map[string][]gateRow)
		for _, run := range runs {
			for _, row := range sec.rows(run) {
				fresh[row.label] = append(fresh[row.label], row)
			}
		}
		for _, want := range sec.rows(baseline) {
			got := fresh[want.label]
			if len(got) == 0 {
				fail(fmt.Sprintf("%-10s missing from fresh run", want.label))
				continue
			}
			for i := range want.always {
				for _, row := range got {
					if !row.always[i].holds {
						fail(fmt.Sprintf("%-10s %s", want.label, row.always[i].msg))
						break
					}
				}
			}
			for i := range want.once {
				held := false
				for _, row := range got {
					held = held || row.once[i].holds
				}
				if !held {
					fail(fmt.Sprintf("%-10s %s", want.label, got[0].once[i].msg))
				}
			}
			for i, m := range want.metrics {
				best := got[0].metrics[i].value
				for _, row := range got[1:] {
					if v := row.metrics[i].value; m.kind.better(v, best) {
						best = v
					}
				}
				line, failed := m.check(want.label, best, tolerance)
				lines = append(lines, line)
				if failed {
					failures++
				}
			}
		}
	}
	return lines, failures
}
