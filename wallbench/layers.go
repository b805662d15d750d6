package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"ampcgraph/internal/ampc"
)

// snapshot is the process state read around the traced load loop.
type snapshot struct {
	numGC    uint32
	gcCPU    float64
	totalCPU float64
	// Serving only: the store counters and plan-cache counters summed over
	// the instances' sessions.
	sessions   bool
	kv         kvTotals
	planHits   int64
	planMisses int64
}

var cpuSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func takeSnapshot(e *env) (snapshot, error) {
	var s snapshot
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.numGC = ms.NumGC
	samples := make([]metrics.Sample, len(cpuSamples))
	for i, name := range cpuSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU, s.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	for _, in := range e.insts {
		if in.sess == nil {
			continue
		}
		// A probe job's store-derived counters aggregate every store of the
		// session, which the serving jobs share.
		probe, err := in.sess.NewJob()
		if err != nil {
			return s, err
		}
		s.kv.add(kvOf(probe.Stats()))
		probe.Close()
		pc := in.sess.PlanCacheStats()
		s.planHits += pc.Hits
		s.planMisses += pc.Misses
		s.sessions = true
	}
	return s, nil
}

// kvTotals are the store counters of a set of jobs.
type kvTotals struct {
	reads, visits, bytes, bytesRead, local, remote, hits, misses int64
}

func kvOf(st ampc.Stats) kvTotals {
	return kvTotals{st.KVReads, st.KVShardVisits, st.KVBytesTotal, st.KVBytesRead,
		st.LocalReads, st.RemoteReads, st.CacheHits, st.CacheMisses}
}

func (a kvTotals) minus(b kvTotals) kvTotals {
	return kvTotals{a.reads - b.reads, a.visits - b.visits, a.bytes - b.bytes, a.bytesRead - b.bytesRead,
		a.local - b.local, a.remote - b.remote, a.hits - b.hits, a.misses - b.misses}
}

func (a *kvTotals) add(b kvTotals) {
	a.reads += b.reads
	a.visits += b.visits
	a.bytes += b.bytes
	a.bytesRead += b.bytesRead
	a.local += b.local
	a.remote += b.remote
	a.hits += b.hits
	a.misses += b.misses
}

const mb = 1 << 20

// layerCounts sets the per-job counters of the traced loop's jobs.
func layerCounts(m *metricSet, e *env, recs []jobRecord, before, after snapshot) {
	jobs := float64(len(recs))
	var kv kvTotals
	if after.sessions {
		kv = after.kv.minus(before.kv)
	} else {
		// A one-shot job owns its session, so its store counters are its own.
		for _, r := range recs {
			kv.add(kvOf(r.stats))
		}
	}
	var shuffle, maxQueries float64
	var batches, batchedKeys int64
	var barrierIdle, pipelineIdle time.Duration
	var admits []float64
	for _, r := range recs {
		shuffle += float64(r.stats.ShuffleBytes)
		maxQueries += float64(r.stats.MaxMachineQueries)
		batches += r.stats.BatchesIssued
		batchedKeys += r.stats.BatchedKeys
		barrierIdle += r.stats.BarrierIdle
		pipelineIdle += r.stats.PipelineIdle
		if e.wl.serving {
			admits = append(admits, ms(r.admit))
		}
	}
	m.set("ampc.shuffle_mb_per_job", shuffle/mb/jobs)
	m.set("ampc.max_machine_queries", maxQueries/jobs)
	m.set("dht.kv_reads", float64(kv.reads)/jobs)
	m.set("dht.shard_visits", float64(kv.visits)/jobs)
	m.set("dht.kv_mb", float64(kv.bytes)/mb/jobs)
	// Every value read from a store passes through the codec's decoder once.
	m.set("codec.mb_decoded_per_job", float64(kv.bytesRead)/mb/jobs)
	if reads := kv.local + kv.remote; reads > 0 {
		m.set("dht.remote_frac", float64(kv.remote)/float64(reads))
	} else {
		m.skip("dht.remote_frac", "no store reads")
	}
	if lookups := kv.hits + kv.misses; lookups > 0 {
		m.set("dht.cache_hit_frac", float64(kv.hits)/float64(lookups))
	} else {
		m.skip("dht.cache_hit_frac", "read caches are off in this configuration")
	}
	if batches > 0 {
		m.set("ampc.keys_per_batch", float64(batchedKeys)/float64(batches))
	} else {
		m.skip("ampc.keys_per_batch", "unbatched configuration: no batches issued")
	}
	if barrierIdle > 0 {
		m.set("ampc.pipeline_idle_frac", float64(pipelineIdle)/float64(barrierIdle))
	} else {
		m.skip("ampc.pipeline_idle_frac", "no pipelined segments: rounds run at barriers")
	}
	if e.wl.serving {
		m.set("ampc.admit_ms", median(admits))
		hits := after.planHits - before.planHits
		misses := after.planMisses - before.planMisses
		if hits+misses > 0 {
			m.set("ampc.plan_cache_hit_frac", float64(hits)/float64(hits+misses))
		} else {
			m.skip("ampc.plan_cache_hit_frac", "no plans compiled during the traced loop")
		}
	} else {
		m.skip("ampc.admit_ms", "one-shot jobs own a private session and are never admitted")
		m.skip("ampc.plan_cache_hit_frac", "one-shot jobs own a private session, so no plan is reused")
	}
	m.set("go.gc_per_job", float64(after.numGC-before.numGC)/jobs)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m.set("go.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu)
	} else {
		m.skip("go.gc_cpu_frac", "runtime/metrics reported no CPU time")
	}
}

// phaseKey names one phase of one algorithm.
type phaseKey struct{ algo, phase string }

// phaseTimes returns, per algorithm and phase, the per-job wall and modeled
// times in milliseconds (a phase run several times in one job is summed).
func phaseTimes(recs []jobRecord) (wall, sim map[phaseKey][]float64) {
	wall, sim = map[phaseKey][]float64{}, map[phaseKey][]float64{}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		w, s := map[string]time.Duration{}, map[string]time.Duration{}
		for _, ph := range r.stats.Phases {
			w[ph.Name] += ph.Wall
			s[ph.Name] += ph.Sim
		}
		for name := range w {
			k := phaseKey{r.algo, name}
			wall[k] = append(wall[k], ms(w[name]))
			sim[k] = append(sim[k], ms(s[name]))
		}
	}
	return wall, sim
}

// checkPhases fails when a job recorded other phases than its
// configuration runs, so a renamed, merged or new phase in the engine stops
// the traced run instead of reading as an absent metric.
func checkPhases(e *env, pipelined bool, recs []jobRecord) error {
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		var got []string
		for _, ph := range r.stats.Phases {
			if !slices.Contains(got, ph.Name) {
				got = append(got, ph.Name)
			}
		}
		if want := expectedPhases(r.algo, pipelined, e.wl.serving); !slices.Equal(got, want) {
			return fmt.Errorf("a %s job recorded the phases %q; this configuration runs %q", r.algo, got, want)
		}
	}
	return nil
}

// corePhaseMetrics checks the traced jobs' phases and sets
// core.<algo>.<phase>_ms to the median per-job wall time of each phase, and
// the modeled-versus-measured calibration.
func corePhaseMetrics(m *metricSet, e *env, recs []jobRecord) error {
	pipelined := e.insts[0].cfg.Pipeline
	if err := checkPhases(e, pipelined, recs); err != nil {
		return err
	}
	mode := "barrier rounds"
	if pipelined {
		mode = "pipelined rounds"
	}
	if e.wl.serving {
		mode += " on a warm session"
	} else {
		mode += ", one-shot"
	}
	wall, sim := phaseTimes(recs)
	inMix := map[string]bool{}
	for _, a := range e.wl.mix {
		inMix[a] = true
	}
	for _, algo := range algos {
		expected := expectedPhases(algo, pipelined, e.wl.serving)
		for _, ph := range corePhases(algo) {
			name := phaseMetric(algo, ph)
			switch xs := wall[phaseKey{algo, ph}]; {
			case !inMix[algo]:
				m.skip(name, algo+" is not in this workload's mix")
			case !slices.Contains(expected, ph):
				m.skip(name, "not a phase of "+algo+" jobs with "+mode)
			case len(xs) == 0:
				m.skip(name, "no "+algo+" job succeeded")
			default:
				m.set(name, median(xs))
			}
		}
	}

	// Calibration: measured wall per modeled unit, per algorithm, and the
	// rank agreement of the two across every phase of the workload.
	var walls, sims []float64
	for _, algo := range algos {
		var w, s float64
		for k, xs := range wall {
			if k.algo != algo {
				continue
			}
			for i := range xs {
				w += xs[i]
				s += sim[k][i]
			}
			walls = append(walls, median(xs))
			sims = append(sims, median(sim[k]))
		}
		if s > 0 {
			m.set("simtime.wall_per_sim."+algo, w/s)
		} else {
			m.skip("simtime.wall_per_sim."+algo, algo+" charged no modeled time in this workload")
		}
	}
	if r := spearman(walls, sims); r == r {
		m.set("simtime.phase_rank_corr", r)
	} else {
		m.skip("simtime.phase_rank_corr", "too few phases to rank")
	}
	return nil
}
