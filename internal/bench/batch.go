package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ampcgraph/internal/ampc"
)

// BatchRow is one (dataset, algorithm) point of the batched-vs-unbatched
// comparison: the same computation run with single-key key-value requests
// and with the shard-grouped batch pipeline.
type BatchRow struct {
	Graph string `json:"graph"`
	Algo  string `json:"algo"`
	// Identical reports whether the two runs produced byte-identical
	// results (they must: batching only regroups requests).
	Identical bool `json:"identical"`
	// ShardVisitsOff/On count shard lock acquisitions across all hash
	// tables; their ratio is the contention reduction of batching.
	ShardVisitsOff int64   `json:"shard_visits_off"`
	ShardVisitsOn  int64   `json:"shard_visits_on"`
	VisitReduction float64 `json:"visit_reduction"`
	// BatchesIssued and KeysPerBatch describe the batched run's grouping.
	BatchesIssued int64   `json:"batches_issued"`
	KeysPerBatch  float64 `json:"keys_per_batch"`
	// SimOff/On are the modeled running times of the two runs.
	SimOff time.Duration `json:"sim_off_ns"`
	SimOn  time.Duration `json:"sim_on_ns"`
	// SimSpeedup is SimOff / SimOn.
	SimSpeedup float64 `json:"sim_speedup"`
}

func newBatchRow(graph, algo string, identical bool, off, on ampc.Stats) BatchRow {
	row := BatchRow{
		Graph:          graph,
		Algo:           algo,
		Identical:      identical,
		ShardVisitsOff: off.KVShardVisits,
		ShardVisitsOn:  on.KVShardVisits,
		BatchesIssued:  on.BatchesIssued,
		SimOff:         off.Sim,
		SimOn:          on.Sim,
	}
	if on.KVShardVisits > 0 {
		row.VisitReduction = float64(off.KVShardVisits) / float64(on.KVShardVisits)
	}
	if on.BatchesIssued > 0 {
		row.KeysPerBatch = float64(on.BatchedKeys) / float64(on.BatchesIssued)
	}
	if on.Sim > 0 {
		row.SimSpeedup = float64(off.Sim) / float64(on.Sim)
	}
	return row
}

// BatchComparison runs MIS (the Get-heavy workload), maximal matching and
// MSF with the batch pipeline off and on, verifying that the results are
// identical and measuring the shard-visit and modeled-time reduction.
func BatchComparison(opts Options) ([]BatchRow, Report, error) {
	opts = opts.withDefaults()
	cfgOff := opts.ampcConfig()
	cfgOff.Batch = false
	cfgOn := cfgOff
	cfgOn.Batch = true
	pairs, err := compareConfigs(opts, cfgOff, cfgOn)
	if err != nil {
		return nil, batchReport(nil), err
	}
	var rows []BatchRow
	for _, p := range pairs {
		rows = append(rows, newBatchRow(p.Graph, p.Algo, p.Identical, p.A, p.B))
	}
	return rows, batchReport(rows), nil
}

// batchReport renders the batched-vs-unbatched rows.
func batchReport(rows []BatchRow) Report {
	rep := Report{
		Title: "Batched vs unbatched key-value pipeline (shard lock acquisitions)",
		Header: fmt.Sprintf("%-8s %-5s %10s %12s %12s %10s %10s %9s",
			"graph", "algo", "identical", "visits-off", "visits-on", "reduction", "keys/batch", "speedup"),
		Notes: []string{
			"batching groups fan-out reads and bulk writes by shard, taking each shard lock once per batch instead of once per key (§5.3's per-request overhead amortization)",
			"results are required to be byte-identical with batching on and off",
		},
	}
	for _, row := range rows {
		rep.Rows = append(rep.Rows, fmt.Sprintf("%-8s %-5s %10v %12d %12d %9.2fx %10.1f %8.2fx",
			row.Graph, row.Algo, row.Identical, row.ShardVisitsOff, row.ShardVisitsOn,
			row.VisitReduction, row.KeysPerBatch, row.SimSpeedup))
	}
	return rep
}

// Smoke is the pinned-seed benchmark snapshot emitted as BENCH_smoke.json by
// `make bench-smoke`, tracking the repository's gated wins across its
// history.  Each slice field below is one section with exactly one entry in
// the smokeSections gate table, which both computes and gates it.
type Smoke struct {
	Seed     int64      `json:"seed"`
	Datasets []string   `json:"datasets"`
	Scale    int        `json:"scale"`
	Machines int        `json:"machines"`
	Threads  int        `json:"threads"`
	Rows     []BatchRow `json:"rows"`
	// Rebalance tracks the degree-weighted ownership win on the hub-heavy
	// CW/HL stand-ins (see RebalanceSmoke); the load-imbalance reduction is
	// a pure function of the pinned graphs, so the gate metric carries no
	// run-to-run noise.
	Rebalance []RebalanceSmokeRow `json:"rebalance,omitempty"`
	// Backend tracks the storage-backend seam (see BackendSmoke): the disk
	// and rpc backends must keep producing results byte-identical to the
	// in-memory reference, and the disk backend must keep its spill
	// headroom.  Both gate metrics are deterministic for the pinned seed.
	Backend []BackendSmokeRow `json:"backend,omitempty"`
	// Pipeline tracks the range-declared pipelining win on the hub-heavy
	// CW/HL stand-ins (see PipelineSmoke): the fused MIS+MM segment's
	// straggler-idle reduction under key-range conflict declarations, its
	// advantage over the whole-store declarations, and the variance-derived
	// regression floor.
	Pipeline []PipelineRow `json:"pipeline,omitempty"`
	// Locality tracks the remote-read reduction of the owner-affine
	// placement on the OK stand-in (see LocalitySmoke); identical outputs
	// plus a fractionally-gated reduction ratio.
	Locality []LocalitySmokeRow `json:"locality,omitempty"`
	// Adaptive tracks the online ownership rebalancing win on the hub-heavy
	// CW/HL stand-ins (see AdaptiveSmoke): how much of the second segment's
	// observed query imbalance a between-segment rebalance removes, with a
	// variance-derived regression floor.
	Adaptive []AdaptiveRow `json:"adaptive,omitempty"`
	// Chaos tracks the fault-tolerance acceptance property on the OK
	// stand-in (see ChaosSmoke): the five algorithms under the pinned fault
	// schedule must stay byte-identical to the clean run with zero failed
	// jobs, every recovery tier must stay exercised, and the recovery
	// overhead is gated by a variance-derived ceiling.
	Chaos []ChaosSmokeRow `json:"chaos,omitempty"`
	// Serving tracks the Plan/Session/Job serving layer on the hub-heavy
	// CW/HL stand-ins (see ServingSmoke): N concurrent query jobs on one
	// warm session must stay byte-identical to the serialized one-shot runs
	// while beating them on modeled throughput, with the session plan cache
	// scoring hits; the throughput gate is a variance-derived floor.
	Serving []ServingRow `json:"serving,omitempty"`
}

// BatchSmoke computes every section of the snapshot, one smokeSections
// entry at a time, and returns the batched-vs-unbatched report.  Caller-set
// options are honored; only an unset dataset list is pinned to the small
// OK+TW subset (the `make bench-smoke` configuration).  The batch rows run on
// that list; every other section pins its own datasets (the hub-heavy CW+HL
// pair for rebalance, pipeline, adaptive and serving, OK for the rest).
func BatchSmoke(opts Options) (Smoke, Report, error) {
	opts = opts.smokeDefaults()
	s := Smoke{
		Seed:     opts.Seed,
		Datasets: opts.Datasets,
		Scale:    opts.Scale,
		Machines: opts.Machines,
		Threads:  opts.Threads,
	}
	for _, sec := range smokeSections {
		if err := sec.fill(opts, &s); err != nil {
			return Smoke{}, batchReport(nil), err
		}
	}
	return s, batchReport(s.Rows), nil
}

// smokeDefaults resolves the options BatchSmoke runs with.
func (o Options) smokeDefaults() Options {
	if len(o.Datasets) == 0 {
		o.Datasets = []string{"OK", "TW"}
	}
	return o.withDefaults()
}

// WriteSmokeJSON writes a Smoke snapshot to path as indented JSON.
func WriteSmokeJSON(path string, s Smoke) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
