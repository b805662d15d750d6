package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/core/connectivity"
	"ampcgraph/internal/core/cycle"
	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/core/mis"
	"ampcgraph/internal/core/msf"
	"ampcgraph/internal/gen"
	"ampcgraph/internal/graph"
)

// The algorithms a job may run, as named in metric names.
const (
	algoMIS   = "mis"
	algoMM    = "mm"
	algoMSF   = "msf"
	algoCC    = "cc"
	algoCycle = "cycle"
)

// algos lists every algorithm in the order metrics are reported.
var algos = []string{algoMIS, algoMM, algoMSF, algoCC, algoCycle}

// passMix is one pass of the one-shot workloads: every algorithm once.
var passMix = []string{algoMIS, algoMM, algoMSF, algoCC, algoCycle}

// servingMix is one pass of the serving workload: the repository's serving
// mix [mis, mm, cc, mis] (the serving experiment and examples/concurrent),
// followed by one MSF and one 1-vs-2-cycle job so every algorithm's latency
// is measured on every workload.
var servingMix = []string{algoMIS, algoMM, algoCC, algoMIS, algoMSF, algoCycle}

// workload is one named input set and traffic mix.  Every workload is a
// closed loop: each client waits for its job before it sends the next.
type workload struct {
	name    string
	dataset string // gen stand-in the graph is generated from, at scale 1
	clients int
	mix     []string
	// serving runs every job on one warm session with resident MIS and
	// matching substrates; otherwise every job is a one-shot Run.
	serving bool
	config  func(seed int64) ampc.Config
}

// defaultConfig is the experiment configuration of the repository's
// benchmarks: 8 machines x 4 threads, read caches on, unbatched, barrier
// rounds, hash placement, mem backend.
func defaultConfig(seed int64) ampc.Config {
	return ampc.Config{Machines: 8, Threads: 4, EnableCache: true, Seed: seed}
}

var workloads = []workload{
	{
		name:    "oneshot-social",
		dataset: "TW",
		clients: 1,
		mix:     passMix,
		config:  defaultConfig,
	},
	{
		name:    "batched-web",
		dataset: "CW",
		clients: 1,
		mix:     passMix,
		config: func(seed int64) ampc.Config {
			cfg := defaultConfig(seed)
			cfg.Batch = true
			cfg.Pipeline = true
			cfg.Placement = ampc.PlacementWeighted
			return cfg
		},
	},
	{
		name:    "serving-web",
		dataset: "CW",
		clients: 2,
		mix:     servingMix,
		serving: true,
		// The serving experiment's configuration: pipelined rounds, so
		// plans are compiled and cached, and the session-shared read
		// caches off.
		config: func(seed int64) ampc.Config {
			cfg := defaultConfig(seed)
			cfg.Pipeline = true
			cfg.EnableCache = false
			return cfg
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instancesPerRun is how many independent graphs a run generates from its
// seed.  Pass p runs on instance p mod instancesPerRun, so a run's figures
// average over several graphs instead of resting on one draw of the
// generator's hubs and components.
const instancesPerRun = 4

// instance is one generated input of a workload made ready to run: its
// graphs, configuration and oracle answers and, for serving, its warm
// session with the shared MIS and matching substrates.
type instance struct {
	cfg ampc.Config
	g   *graph.Graph // MIS, matching and connectivity input
	wg  *graph.Graph // MSF input: g with degree-proportional weights
	// cyc is the 1-vs-2-cycle input over 2*|V(g)| vertices: one cycle on
	// even instances, two on odd ones.
	cyc    *graph.Graph
	single bool
	ora    *oracle

	sess  *ampc.Session
	misSh *mis.Shared
	mmSh  *matching.Shared
}

// env is a workload made ready to run.
type env struct {
	wl    workload
	insts []*instance
	// setupTimes are the set-up durations of the instances; genTimes the
	// graph-generation part of each.
	setupTimes []time.Duration
	genTimes   []time.Duration
}

// instanceSeed derives instance i's seed; different run seeds give
// disjoint instance seeds.
func instanceSeed(seed int64, i int) int64 { return seed*instancesPerRun + int64(i) }

// setup generates every instance (and, for serving, opens its session and
// builds the shared substrates), timing each; then it computes the oracle
// answers, untimed.
func setup(wl workload, seed int64, tr *tracer) (*env, error) {
	d, ok := gen.DatasetByName(wl.dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", wl.dataset)
	}
	e := &env{wl: wl}
	for i := 0; i < instancesPerRun; i++ {
		id := tr.newID()
		start := time.Now()
		is := instanceSeed(seed, i)
		in := &instance{cfg: wl.config(is), single: i%2 == 0}
		in.g = d.Build(1, is)
		in.wg = gen.DegreeProportionalWeights(in.g)
		in.cyc = gen.OneOrTwoCycles(in.g.NumNodes(), in.single, is)
		genDone := time.Now()
		if wl.serving {
			var err error
			if in.sess, in.misSh, in.mmSh, err = openServing(in.cfg, in.g); err != nil {
				e.close()
				return nil, err
			}
		}
		end := time.Now()
		e.insts = append(e.insts, in)
		e.setupTimes = append(e.setupTimes, end.Sub(start))
		e.genTimes = append(e.genTimes, genDone.Sub(start))
		tr.add(span{name: "setup", cat: "setup", id: id, start: start, dur: end.Sub(start),
			args: map[string]any{"instance": i, "gen_ms": ms(genDone.Sub(start))}})
	}
	for _, in := range e.insts {
		in.ora = newOracle(in.g, in.wg, in.cfg.Seed)
	}
	return e, nil
}

// openServing opens a session and builds the MIS and matching substrates on
// a preparation job, as a server would before taking queries.
func openServing(cfg ampc.Config, g *graph.Graph) (*ampc.Session, *mis.Shared, *matching.Shared, error) {
	s := ampc.NewSession(cfg)
	prep, err := s.NewJob()
	if err != nil {
		s.Close()
		return nil, nil, nil, fmt.Errorf("opening preparation job: %w", err)
	}
	defer prep.Close()
	misSh, err := mis.NewShared(prep, g)
	if err != nil {
		s.Close()
		return nil, nil, nil, fmt.Errorf("building MIS substrate: %w", err)
	}
	mmSh, err := matching.NewShared(prep, g)
	if err != nil {
		s.Close()
		return nil, nil, nil, fmt.Errorf("building matching substrate: %w", err)
	}
	return s, misSh, mmSh, nil
}

// close releases the serving sessions, if any.
func (e *env) close() {
	for _, in := range e.insts {
		if in.sess != nil {
			in.sess.Close()
		}
	}
}

// jobRecord is what the benchmark saw of one job.
type jobRecord struct {
	algo   string
	client int
	pass   int
	// latency is the client's view of the job, from submission (including
	// admission, for serving) to the result.
	latency time.Duration
	// admit is the NewJob call of a serving job; zero for one-shot jobs.
	admit time.Duration
	stats ampc.Stats
	err   error
	// correct reports that the job returned without error and its output
	// matched the oracle.
	correct bool
}

// runJob runs one job of the given algorithm and checks its output.
func (e *env) runJob(algo string, client, pass int, tr *tracer) jobRecord {
	rec := jobRecord{algo: algo, client: client, pass: pass}
	in := e.insts[pass%len(e.insts)]
	id := tr.newID()
	start := time.Now()
	var out any
	if e.wl.serving {
		out = in.runServing(&rec, algo, tr, id, client)
	} else {
		out = in.runOneShot(&rec, algo)
	}
	if rec.err == nil {
		rec.correct = in.check(algo, out)
	}
	if tr != nil {
		tr.add(span{name: "job", cat: algo, id: id, client: client, start: start, dur: rec.latency,
			args: map[string]any{"algo": algo, "pass": pass, "correct": rec.correct, "sim_ms": ms(rec.stats.Sim)}})
		// Stats.Phases records durations, not start times: the phase spans
		// are laid end to end from the start of the job's run.
		at := start.Add(rec.admit)
		for _, ph := range rec.stats.Phases {
			tr.add(span{name: ph.Name, cat: algo + ".phase", id: id, parent: id, client: client, start: at, dur: ph.Wall,
				args: map[string]any{"sim_ms": ms(ph.Sim)}})
			at = at.Add(ph.Wall)
		}
	}
	return rec
}

// runOneShot runs the job through the algorithm's one-shot entry point and
// returns its result.
func (in *instance) runOneShot(rec *jobRecord, algo string) any {
	t := time.Now()
	switch algo {
	case algoMIS:
		r, err := mis.Run(in.g, in.cfg)
		return fill(rec, t, r, err, func() ampc.Stats { return r.Stats })
	case algoMM:
		r, err := matching.Run(in.g, in.cfg)
		return fill(rec, t, r, err, func() ampc.Stats { return r.Stats })
	case algoMSF:
		r, err := msf.Run(in.wg, in.cfg)
		return fill(rec, t, r, err, func() ampc.Stats { return r.Stats })
	case algoCC:
		r, err := connectivity.Run(in.g, in.cfg)
		return fill(rec, t, r, err, func() ampc.Stats { return r.Stats })
	case algoCycle:
		r, err := cycle.Run(in.cyc, in.cfg)
		return fill(rec, t, r, err, func() ampc.Stats { return r.Stats })
	}
	rec.err = fmt.Errorf("unknown algorithm %q", algo)
	return nil
}

// fill records a one-shot job's latency since t and its error or, on
// success, its statistics, and passes the result through.
func fill[T any](rec *jobRecord, t time.Time, r *T, err error, stats func() ampc.Stats) any {
	rec.latency = time.Since(t)
	if err != nil {
		rec.err = err
		return nil
	}
	rec.stats = stats()
	return r
}

// runServing runs the job as a job of the warm session: admission, the
// query against the shared substrate (or a RunOn for the algorithms without
// one), and the job's Close.
func (in *instance) runServing(rec *jobRecord, algo string, tr *tracer, id int64, client int) any {
	start := time.Now()
	job, err := in.sess.NewJob()
	rec.admit = time.Since(start)
	tr.add(span{name: "admit", cat: "ampc", id: id, parent: id, client: client, start: start, dur: rec.admit})
	if err != nil {
		rec.latency = rec.admit
		rec.err = fmt.Errorf("admitting job: %w", err)
		return nil
	}
	var out any
	switch algo {
	case algoMIS:
		out, err = in.misSh.Run(job)
	case algoMM:
		out, err = in.mmSh.Run(job)
	case algoMSF:
		out, err = msf.RunOn(job, in.wg)
	case algoCC:
		out, err = connectivity.RunOn(job, in.g)
	case algoCycle:
		out, err = cycle.RunOn(job, in.cyc)
	default:
		err = fmt.Errorf("unknown algorithm %q", algo)
	}
	t := time.Now()
	job.Close()
	end := time.Now()
	rec.latency = end.Sub(start)
	tr.add(span{name: "close", cat: "ampc", id: id, parent: id, client: client, start: t, dur: end.Sub(t)})
	if err != nil {
		rec.err = err
		return nil
	}
	// Stats stay readable after Close and are read outside the job's
	// latency; the round, phase and modeled-time counters are the job's own.
	rec.stats = job.Stats()
	return out
}

// check compares a job's result with the oracle.
func (in *instance) check(algo string, out any) bool {
	switch r := out.(type) {
	case *mis.Result:
		return algo == algoMIS && slices.Equal(r.InMIS, in.ora.inMIS)
	case *matching.Result:
		return algo == algoMM && slices.Equal(r.Matching.Mate, in.ora.mate)
	case *msf.Result:
		return algo == algoMSF && sameWeight(r.TotalWeight, in.ora.msfWeight)
	case *connectivity.Result:
		return algo == algoCC && graph.SameComponents(r.Components, in.ora.comps)
	case *cycle.Result:
		wantCycles := 2
		if in.single {
			wantCycles = 1
		}
		return algo == algoCycle && r.SingleCycle == in.single && r.NumCycles == wantCycles
	}
	return false
}

// runLoop drives clients closed-loop clients in lock-step over mix until d
// has passed: every client submits job i of the mix at the same time, and
// each waits for its own job and then for the others' before the next one.
// Lock-step makes every job share the pool with the same concurrent jobs
// (one of the same algorithm per other client) in every run; free-running
// clients drift, and which job a query happens to overlap then swings its
// latency between runs by more than any useful bound.  The clock is checked
// only between passes, so every pass counted is whole, and the loop runs at
// least minPasses passes however long they take.  afterPass, if non-nil,
// runs after each pass.  runLoop returns every job record and the wall time
// of the loop.
func runLoop(clients int, mix []string, d time.Duration, minPasses int, job func(algo string, client, pass int) jobRecord, afterPass func()) ([]jobRecord, time.Duration) {
	var recs []jobRecord
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < d; pass++ {
		for _, algo := range mix {
			step := make([]jobRecord, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					step[c] = job(algo, c, pass)
				}(c)
			}
			wg.Wait()
			recs = append(recs, step...)
		}
		if afterPass != nil {
			afterPass()
		}
	}
	return recs, time.Since(start)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
