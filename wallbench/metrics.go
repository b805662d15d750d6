package main

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// metricDef names one reported metric.  bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEndDefs are the metrics a user of the engine sees, measured with
// tracing off.  Each must be non-zero on every workload.
var endToEndDefs = []metricDef{
	{"mis_ms", "ms", "lower", 0.25},
	{"mm_ms", "ms", "lower", 0.25},
	{"msf_ms", "ms", "lower", 0.25},
	{"cc_ms", "ms", "lower", 0.25},
	{"cycle_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_job", "MB", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"sim_ms_per_job", "ms", "lower", 0.05},
	{"rounds_per_job", "count", "lower", 0.05},
	{"ok_frac", "frac", "higher", 0.01},
}

// phaseSegments lists, per algorithm, the phase sequence of a one-shot job
// as recorded in ampc.Stats.Phases.  Each inner list is one staged round
// sequence: at barriers every stage records its own phase, and under
// Config.Pipeline the sequence records one phase named by joining its
// stages with "+" (written "_" in metric names).
var phaseSegments = map[string][][]string{
	algoMIS: {{"DirectGraph"}, {"KV-Write", "IsInMIS", "IsInMIS-spill"}},
	algoMM:  {{"PermuteGraph"}, {"KV-Write", "IsInMM", "IsInMM-spill"}},
	algoMSF: {{"SortGraph"}, {"KV-Write", "PrimSearch"}, {"Combine"}, {"PointerJump"},
		{"Contract"}, {"FinishMSF"}},
	algoCC: {{"SortGraph"}, {"KV-Write", "PrimSearch"}, {"Combine"}, {"PointerJump"},
		{"Contract"}, {"FinishMSF"}, {"PointerJump-cc"}},
	algoCycle: {{"Sample"}, {"Shuffle"}, {"KV-Write", "Walk"}, {"Contract"}},
}

// sharedSegments replaces phaseSegments for the jobs a serving session runs
// on a resident substrate: the graph preparation and KV write happen once,
// in set-up, and a job runs only the searches.
var sharedSegments = map[string][][]string{
	algoMIS: {{"IsInMIS", "IsInMIS-spill"}},
	algoMM:  {{"IsInMM", "IsInMM-spill"}},
}

// expectedPhases returns the phases every job of algo records, in order,
// when rounds are pipelined or not and jobs run on a serving session or
// one-shot.
func expectedPhases(algo string, pipelined, serving bool) []string {
	segs := phaseSegments[algo]
	if sh, ok := sharedSegments[algo]; ok && serving {
		segs = sh
	}
	var out []string
	for _, seg := range segs {
		if pipelined {
			out = append(out, strings.Join(seg, "+"))
		} else {
			out = append(out, seg...)
		}
	}
	return out
}

// corePhases returns every phase algo records under any configuration:
// the names core.<algo>.<phase>_ms are reported for.
func corePhases(algo string) []string {
	var out []string
	add := func(ph string) {
		if !slices.Contains(out, ph) {
			out = append(out, ph)
		}
	}
	for _, segs := range [][][]string{phaseSegments[algo], sharedSegments[algo]} {
		for _, seg := range segs {
			for _, ph := range seg {
				add(ph)
			}
			add(strings.Join(seg, "+"))
		}
	}
	return out
}

// phaseMetric is the metric name of one core phase.
func phaseMetric(algo, phase string) string {
	return "core." + algo + "." + strings.ReplaceAll(phase, "+", "_") + "_ms"
}

// perLayerDefs are the metrics of single layers, reported by the traced
// run; see README.md for which end-to-end metric each should move.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, algo := range algos {
		for _, ph := range corePhases(algo) {
			defs = append(defs, metricDef{name: phaseMetric(algo, ph), unit: "ms", better: "lower"})
		}
	}
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}
	add("ampc.session_open_ms", "ms", "lower")
	add("ampc.session_close_ms", "ms", "lower")
	add("ampc.admit_ms", "ms", "lower")
	add("ampc.round_dispatch_us", "us", "lower")
	add("ampc.subround_dispatch_us", "us", "lower")
	add("ampc.plan_compile_miss_us", "us", "lower")
	add("ampc.plan_compile_hit_us", "us", "lower")
	add("ampc.lookup_ns", "ns", "lower")
	add("ampc.lookup_cached_ns", "ns", "lower")
	add("ampc.readmany_ns_per_key", "ns", "lower")
	add("ampc.shuffle_mb_per_job", "MB", "lower")
	add("ampc.max_machine_queries", "count", "lower")
	add("ampc.plan_cache_hit_frac", "frac", "higher")
	add("ampc.keys_per_batch", "count", "higher")
	add("ampc.pipeline_idle_frac", "frac", "lower")
	add("dht.get_ns", "ns", "lower")
	add("dht.get_allocs", "count", "lower")
	add("dht.batchget_ns_per_key", "ns", "lower")
	add("dht.put_ns", "ns", "lower")
	add("dht.freeze_ms", "ms", "lower")
	add("dht.cache_get_ns", "ns", "lower")
	add("dht.kv_reads", "count", "lower")
	add("dht.shard_visits", "count", "lower")
	add("dht.kv_mb", "MB", "lower")
	add("dht.remote_frac", "frac", "lower")
	add("dht.cache_hit_frac", "frac", "higher")
	add("codec.decode_ns_per_id", "ns", "lower")
	add("codec.decode_allocs_per_call", "count", "lower")
	add("codec.encode_ns_per_id", "ns", "lower")
	add("codec.mb_decoded_per_job", "MB", "lower")
	add("gen.build_s", "s", "lower")
	add("graph.edges", "count", "higher")
	add("go.gc_per_job", "count", "lower")
	add("go.gc_cpu_frac", "frac", "lower")
	for _, l := range cpuLayers {
		add("cpu."+l+".self_frac", "frac", "lower")
	}
	for _, algo := range algos {
		add("simtime.wall_per_sim."+algo, "ratio", "lower")
	}
	add("simtime.phase_rank_corr", "ratio", "higher")
	add("trace_overhead_frac", "frac", "lower")
	return defs
}

// metricSet collects a run's metric values, and for per-layer metrics that
// do not apply to the workload, the reason they are absent.
type metricSet struct {
	vals   map[string]float64
	absent map[string]string
	notes  []string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]float64{}, absent: map[string]string{}}
}

func (m *metricSet) set(name string, v float64) { m.vals[name] = v }

func (m *metricSet) skip(name, reason string) { m.absent[name] = reason }

func (m *metricSet) notef(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// endToEnd computes the end-to-end metrics of an untraced load loop.
func endToEnd(m *metricSet, e *env, recs []jobRecord, elapsed time.Duration, allocBytes uint64, peakRSSMB float64) {
	byAlgo := map[string][]float64{}
	var all, sims, rounds []float64
	correct := 0
	for _, r := range recs {
		if r.correct {
			correct++
		}
		if r.err != nil {
			continue
		}
		byAlgo[r.algo] = append(byAlgo[r.algo], ms(r.latency))
		all = append(all, ms(r.latency))
		sims = append(sims, ms(r.stats.Sim))
		rounds = append(rounds, float64(r.stats.Rounds))
	}
	for _, algo := range algos {
		if xs := byAlgo[algo]; len(xs) > 0 {
			m.set(algo+"_ms", median(xs))
			m.notef("%s_ms: median of %d jobs", algo, len(xs))
		}
	}
	if pct, v, beyond, ok := tailPercentile(all); ok {
		m.set("latency_tail_ms", v)
		m.notef("latency_tail_ms: p%g of %d jobs, %d beyond it", pct, len(all), beyond)
	} else {
		m.notef("latency_tail_ms: %d jobs are too few for a tail with %d beyond it", len(all), minBeyondTail)
	}
	m.set("jobs_per_s", float64(correct)/elapsed.Seconds())
	if len(recs) > 0 {
		m.set("alloc_mb_per_job", float64(allocBytes)/mb/float64(len(recs)))
		m.set("ok_frac", float64(correct)/float64(len(recs)))
	}
	m.set("peak_rss_mb", peakRSSMB)
	m.set("setup_s", median(seconds(e.setupTimes)))
	if len(sims) > 0 {
		m.set("sim_ms_per_job", mean(sims))
		m.set("rounds_per_job", mean(rounds))
	}
	m.notef("%d jobs in %.2fs over %d whole passes of %v, %d client(s) in lock-step",
		len(recs), elapsed.Seconds(), passes(recs), e.wl.mix, e.wl.clients)
}

// passes returns the number of passes the loop ran.
func passes(recs []jobRecord) int {
	most := 0
	for _, r := range recs {
		most = max(most, r.pass+1)
	}
	return most
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
