// Command wallbench is the repository's wall-clock benchmark.  It drives the
// AMPC engine through its public entry points on one named workload, times
// each job from outside, checks every output against the sequential
// oracles, and prints one JSON result line last:
//
//	wallbench --workload oneshot-social --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// run is repeated with spans and a CPU profile and the result holds the
// per-layer metrics.  `wallbench spread FILE...` prints the quartile spread
// of each metric over several saved runs.  README.md describes the
// workloads and metrics; run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// maxProcs caps GOMAXPROCS and the client count, so a run loads the same
// number of cores on any machine.
const maxProcs = 2

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "wallbench spread:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: oneshot-social, batched-web or serving-web")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	secs := flag.Int("seconds", 20, "how long the load loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "wallbench-out"), "directory for the traced run's span file and CPU profile")
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "wallbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "wallbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	wl.clients = min(wl.clients, procs)
	fmt.Printf("workload %s seed %d: GOMAXPROCS %d, %d closed-loop client(s), nproc %d\n",
		wl.name, *seed, procs, wl.clients, runtime.NumCPU())

	dur := time.Duration(*secs) * time.Second
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(wl, *seed, dur, *out)
	} else {
		res, err = runUntraced(wl, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// tally counts attempted and failed jobs: a job fails when it returns an
// error or its output differs from the oracle's.
func tally(res *result, recs []jobRecord) {
	for _, r := range recs {
		res.Attempted++
		if !r.correct {
			res.Failed++
			if r.err != nil {
				fmt.Printf("job %s (client %d, pass %d) failed: %v\n", r.algo, r.client, r.pass, r.err)
			} else {
				fmt.Printf("job %s (client %d, pass %d) output differs from the oracle\n", r.algo, r.client, r.pass)
			}
		}
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
}

// emit fills res.Metrics with defs from m, printing each with its unit and,
// for an absent per-layer metric, the reason (its value reads 0).
func emit(res *result, m *metricSet, defs []metricDef) error {
	for _, n := range m.notes {
		fmt.Println("note:", n)
	}
	res.Metrics = map[string]metricValue{}
	var missing []string
	for _, d := range defs {
		v, ok := m.vals[d.name]
		if !ok {
			reason, isAbsent := m.absent[d.name]
			if !isAbsent {
				missing = append(missing, d.name)
				continue
			}
			fmt.Printf("%-40s absent: %s\n", d.name, reason)
		} else {
			fmt.Printf("%-40s %14.6g %s\n", d.name, v, d.unit)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("no value and no reason for metrics %v", missing)
	}
	return nil
}

// loop runs the workload's closed loop for d and at least minPasses
// passes, calling afterPass (if non-nil) after each pass.
func loop(e *env, d time.Duration, minPasses int, tr *tracer, afterPass func()) ([]jobRecord, time.Duration) {
	return runLoop(e.wl.clients, e.wl.mix, d, minPasses, func(algo string, client, pass int) jobRecord {
		return e.runJob(algo, client, pass, tr)
	}, afterPass)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(wl workload, seed int64, d time.Duration) (result, error) {
	var res result
	e, err := setup(wl, seed, nil)
	if err != nil {
		return res, err
	}
	defer e.close()
	var before, after runtime.MemStats
	var rss rssPeaks
	rss.start()
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs, elapsed := loop(e, d, rssPasses, nil, rss.sample)
	runtime.ReadMemStats(&after)
	if rss.err != nil {
		return res, rss.err
	}
	tally(&res, recs)
	m := newMetricSet()
	endToEnd(m, e, recs, elapsed, after.TotalAlloc-before.TotalAlloc, median(rss.mb))
	m.notef("peak_rss_mb: median of the peaks of the first %d passes", len(rss.mb))
	return res, emit(&res, m, endToEndDefs)
}

// runTraced runs the load loop untraced for a quarter of d, traced (spans
// and a CPU profile) for half, and untraced for the last quarter, then
// replays each layer in isolation and reports the per-layer metrics.  The
// untraced quarters on both sides cancel a drift in speed over the run
// (the serving sessions grow as they keep each job's stores) out of
// trace_overhead_frac.
func runTraced(wl workload, seed int64, d time.Duration, outDir string) (result, error) {
	var res result
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", wl.name, seed))
	tr := newTracer()
	e, err := setup(wl, seed, tr)
	if err != nil {
		return res, err
	}
	defer e.close()
	m := newMetricSet()

	plain, plainElapsed := loop(e, d/4, 0, nil, nil)

	profPath := base + ".cpu.pprof"
	prof, err := os.Create(profPath)
	if err != nil {
		return res, err
	}
	before, err := takeSnapshot(e)
	if err != nil {
		prof.Close()
		return res, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return res, err
	}
	recs, elapsed := loop(e, d/2, 0, tr, nil)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return res, err
	}
	after, err := takeSnapshot(e)
	if err != nil {
		return res, err
	}
	plain2, plainElapsed2 := loop(e, d/4, 0, nil, nil)
	plain = append(plain, plain2...)
	plainElapsed += plainElapsed2
	tally(&res, plain)
	tally(&res, recs)
	spanPath := base + ".trace.json"
	if err := tr.writeChrome(spanPath); err != nil {
		return res, err
	}
	m.notef("spans: %s (Chrome trace-event JSON); CPU profile: %s", spanPath, profPath)

	okJobs := func(rs []jobRecord) int {
		n := 0
		for _, r := range rs {
			if r.correct {
				n++
			}
		}
		return n
	}
	plainRate := float64(okJobs(plain)) / plainElapsed.Seconds()
	tracedRate := float64(okJobs(recs)) / elapsed.Seconds()
	m.set("trace_overhead_frac", 1-tracedRate/plainRate)
	m.notef("trace_overhead_frac: %.3f jobs/s traced against %.3f untraced (%d and %d jobs)",
		tracedRate, plainRate, len(recs), len(plain))

	layerCounts(m, e, recs, before, after)
	if err := corePhaseMetrics(m, e, recs); err != nil {
		return res, err
	}
	m.set("gen.build_s", median(seconds(e.genTimes)))
	var edges []float64
	for _, in := range e.insts {
		edges = append(edges, float64(in.g.NumEdges()))
	}
	m.set("graph.edges", mean(edges))

	// The replays run over the first instance's graph and configuration.
	in := e.insts[0]
	a := encodeAdjacency(in.g)
	if err := replayCodec(a, m); err != nil {
		return res, err
	}
	if err := replayDHT(a, in.cfg.WithDefaults().Shards, e.wl.clients, seed, m); err != nil {
		return res, err
	}
	if err := replayAMPC(in.cfg, a, seed, m); err != nil {
		return res, err
	}

	goBin, err := exec.LookPath("go")
	if err != nil {
		return res, fmt.Errorf("finding the go command for go tool pprof: %w", err)
	}
	shares, err := summarizeProfile(goBin, profPath)
	if err != nil {
		return res, err
	}
	for _, l := range cpuLayers {
		m.set("cpu."+l+".self_frac", shares[l])
	}
	return res, emit(&res, m, perLayerDefs())
}

// spreadMain reads the result line of each saved run and prints, per
// metric, the median and quartiles over the runs and their spread (the
// quartile distance as a share of the median).
func spreadMain(paths []string) error {
	if len(paths) < 2 {
		return errors.New("need at least two saved runs")
	}
	vals := map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var res result
		if err := json.Unmarshal(lastLine(data), &res); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		for name, v := range res.Metrics {
			vals[name] = append(vals[name], v.Value)
		}
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-40s %4s %12s %12s %12s %8s\n", "metric", "runs", "q1", "median", "q3", "spread")
	for _, n := range names {
		xs := vals[n]
		q1, q2, q3 := quartiles(xs)
		fmt.Printf("%-40s %4d %12.6g %12.6g %12.6g %8.4f\n", n, len(xs), q1, q2, q3, spread(xs))
	}
	return nil
}

// lastLine returns the last non-empty line of data.
func lastLine(data []byte) []byte {
	end := len(data)
	for end > 0 && (data[end-1] == '\n' || data[end-1] == '\r') {
		end--
	}
	start := end
	for start > 0 && data[start-1] != '\n' {
		start--
	}
	return data[start:end]
}
