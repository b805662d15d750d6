package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
)

// Layer replays time one layer's exported operations in isolation, over the
// workload's own graph and configuration.  They run after the load loop of
// a traced run, so they never perturb it.

// Replay sizes: enough operations that each figure is a mean over a few
// hundred milliseconds of work.
const (
	replayCodecPasses = 40      // encode/decode passes over every adjacency list
	replayGets        = 1 << 20 // single-key reads
	replayBatch       = 512     // keys per batch read
	replayStores      = 8       // stores filled to time Put and Freeze
	replaySessions    = 5       // session open/close cycles
	replayRounds      = 200     // no-op rounds through Run
	replayPipelines   = 50      // no-op pipelines through RunPipeline
	replayPipeDepth   = 8       // rounds per no-op pipeline
	replayCompiles    = 200     // plan compilations, each of miss and hit
	replayLookups     = 1 << 18 // Ctx.Lookup calls per timed round
)

// timeOps runs fn(w, i) for i in [0, ops) split across workers goroutines,
// worker w taking every workers-th i, and returns the wall time and the
// number of heap allocations per op.  fn returns a size derived from its
// result, which is kept so the compiler cannot drop the call.
func timeOps(ops, workers int, fn func(w, i int) int) (nsPerOp, allocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 0
			for i := w; i < ops; i += workers {
				n += fn(w, i)
			}
			keep(n)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// adjacency is a graph's encoded adjacency lists, the values the algorithms
// store and read back.
type adjacency struct {
	lists   [][]graph.NodeID
	encoded [][]byte
	ids     int // total list entries
}

func encodeAdjacency(g *graph.Graph) adjacency {
	n := g.NumNodes()
	a := adjacency{lists: make([][]graph.NodeID, n), encoded: make([][]byte, n)}
	for v := 0; v < n; v++ {
		a.lists[v] = g.Neighbors(graph.NodeID(v))
		a.encoded[v] = codec.EncodeNodeIDs(a.lists[v])
		a.ids += len(a.lists[v])
	}
	return a
}

// randomKeys returns count keys drawn uniformly from [0, n) by the seed.
func randomKeys(n, count int, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	keys := make([]uint64, count)
	for i := range keys {
		keys[i] = uint64(r.Intn(n))
	}
	return keys
}

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink atomic.Int64

func keep(n int) { sink.Add(int64(n)) }

// replayCodec times encoding and decoding the graph's adjacency lists.
func replayCodec(a adjacency, m *metricSet) error {
	n := len(a.lists)
	ops := replayCodecPasses * n
	encNs, _ := timeOps(ops, 1, func(_, i int) int { return len(codec.EncodeNodeIDs(a.lists[i%n])) })
	var decErr error
	decNs, decAllocs := timeOps(ops, 1, func(_, i int) int {
		ids, err := codec.DecodeNodeIDs(a.encoded[i%n])
		if err != nil {
			decErr = err
		}
		return len(ids)
	})
	if decErr != nil {
		return fmt.Errorf("decoding adjacency: %w", decErr)
	}
	perID := float64(ops) / float64(replayCodecPasses*a.ids)
	m.set("codec.encode_ns_per_id", encNs*perID)
	m.set("codec.decode_ns_per_id", decNs*perID)
	m.set("codec.decode_allocs_per_call", decAllocs)
	return nil
}

// fillStore writes the adjacency into a fresh mem store.
func fillStore(a adjacency, shards int) (*dht.Store, error) {
	st, err := dht.NewStore("replay-adjacency", dht.Options{Shards: shards})
	if err != nil {
		return nil, err
	}
	for v, val := range a.encoded {
		if err := st.Put(uint64(v), val); err != nil {
			return nil, fmt.Errorf("put: %w", err)
		}
	}
	return st, nil
}

// replayDHT times the store's write, freeze, read and cache paths on a mem
// store holding the graph's adjacency.
func replayDHT(a adjacency, shards, workers int, seed int64, m *metricSet) error {
	n := len(a.encoded)
	var puts, freezes []float64
	var st *dht.Store
	for i := 0; i < replayStores; i++ {
		start := time.Now()
		s, err := fillStore(a, shards)
		if err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(start).Nanoseconds())/float64(n))
		start = time.Now()
		if err := s.Freeze(); err != nil {
			return fmt.Errorf("freeze: %w", err)
		}
		freezes = append(freezes, ms(time.Since(start)))
		if st != nil {
			st.Close()
		}
		st = s
	}
	defer st.Close()
	m.set("dht.put_ns", median(puts))
	m.set("dht.freeze_ms", median(freezes))

	keys := randomKeys(n, replayGets, seed)
	views := make([]*dht.View, workers)
	for w := range views {
		views[w] = st.View(w)
	}
	var getErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		getErr = err
		errMu.Unlock()
	}
	getNs, getAllocs := timeOps(len(keys), workers, func(w, i int) int {
		v, _, err := views[w].Get(keys[i])
		if err != nil {
			fail(err)
		}
		return len(v)
	})
	blocks := len(keys) / replayBatch
	batchNs, _ := timeOps(blocks, workers, func(w, i int) int {
		vals, _, _, err := views[w].BatchGet(keys[i*replayBatch : (i+1)*replayBatch])
		if err != nil {
			fail(err)
		}
		return len(vals)
	})
	cache := dht.NewCache(st)
	for v := 0; v < n; v++ {
		if _, _, err := cache.Get(uint64(v)); err != nil {
			return fmt.Errorf("warming cache: %w", err)
		}
	}
	cacheNs, _ := timeOps(len(keys), workers, func(_, i int) int {
		v, _, err := cache.Get(keys[i])
		if err != nil {
			fail(err)
		}
		return len(v)
	})
	if getErr != nil {
		return fmt.Errorf("replayed read: %w", getErr)
	}
	m.set("dht.get_ns", getNs)
	m.set("dht.get_allocs", getAllocs)
	m.set("dht.batchget_ns_per_key", batchNs/replayBatch)
	m.set("dht.cache_get_ns", cacheNs)
	return nil
}

// noop is the body of the replayed dispatch rounds.
func noop(*ampc.Ctx, int) error { return nil }

// replayAMPC times the runtime's own layer under the workload's
// configuration: session lifecycle, round and sub-round dispatch, plan
// compilation, and single-key and batched reads through Ctx.
func replayAMPC(cfg ampc.Config, a adjacency, seed int64, m *metricSet) error {
	cfg = cfg.WithDefaults()
	items := cfg.Machines * cfg.Threads
	noopRound := ampc.Round{Name: "replay-noop", Items: items, Body: noop}

	var opens, closes []float64
	for i := 0; i < replaySessions; i++ {
		start := time.Now()
		s := ampc.NewSession(cfg)
		job, err := s.NewJob()
		if err == nil {
			// The first round spawns the session's worker pool.
			err = job.Run(noopRound)
			job.Close()
		}
		opens = append(opens, ms(time.Since(start)))
		start = time.Now()
		s.Close()
		closes = append(closes, ms(time.Since(start)))
		if err != nil {
			return fmt.Errorf("replayed session: %w", err)
		}
	}
	m.set("ampc.session_open_ms", median(opens))
	m.set("ampc.session_close_ms", median(closes))

	s := ampc.NewSession(cfg)
	defer s.Close()
	job, err := s.NewJob()
	if err != nil {
		return fmt.Errorf("replay job: %w", err)
	}
	defer job.Close()

	if err := job.Run(noopRound); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < replayRounds; i++ {
		if err := job.Run(noopRound); err != nil {
			return err
		}
	}
	m.set("ampc.round_dispatch_us", float64(time.Since(start).Nanoseconds())/1e3/replayRounds)

	n := len(a.encoded)
	if cfg.Pipeline {
		if err := replayPipeline(s, job, cfg, n, m); err != nil {
			return err
		}
	} else {
		// RunPipeline then runs each round at a barrier, and CompilePlan
		// returns before the plan cache.
		for _, name := range []string{"ampc.subround_dispatch_us", "ampc.plan_compile_miss_us", "ampc.plan_compile_hit_us"} {
			m.skip(name, "barrier configuration: no sub-rounds and no plan cache")
		}
	}

	keys := randomKeys(n, replayLookups, seed)
	for _, c := range []struct {
		metric string
		cache  bool
	}{{"ampc.lookup_ns", false}, {"ampc.lookup_cached_ns", true}} {
		lc := cfg
		lc.EnableCache = c.cache
		lc.CoalesceReads = false
		ns, err := replayLookup(lc, a, keys, c.cache)
		if err != nil {
			return err
		}
		m.set(c.metric, ns)
	}
	ns, err := replayReadMany(cfg, a, keys)
	if err != nil {
		return err
	}
	m.set("ampc.readmany_ns_per_key", ns)
	return nil
}

// replayPipeline times sub-round dispatch, no-op ranged rounds through
// RunPipeline, and plan compilation through the session's plan cache, on a
// pipelined configuration.
func replayPipeline(s *ampc.Session, job *ampc.Runtime, cfg ampc.Config, n int, m *metricSet) error {
	items := cfg.Machines * cfg.Threads
	spans, err := job.OpenStore("replay-spans")
	if err != nil {
		return err
	}
	ranges := job.OwnedRanges(n)
	pipe := make([]ampc.Round, replayPipeDepth)
	stages := make([]ampc.StagedRound, replayPipeDepth)
	for i := range pipe {
		pipe[i] = ampc.Round{
			Name:   fmt.Sprintf("replay-ranged-%d", i),
			Items:  items,
			Reads:  []ampc.Access{ampc.RangedBy(spans, ranges)},
			Writes: []ampc.Access{ampc.RangedBy(spans, ranges)},
			Body:   noop,
		}
		stages[i] = ampc.StagedRound{Phase: pipe[i].Name, Round: pipe[i]}
	}
	start := time.Now()
	for i := 0; i < replayPipelines; i++ {
		if err := job.RunPipeline(pipe); err != nil {
			return err
		}
	}
	subrounds := replayPipelines * replayPipeDepth * cfg.Machines
	m.set("ampc.subround_dispatch_us", float64(time.Since(start).Nanoseconds())/1e3/float64(subrounds))

	start = time.Now()
	for i := 0; i < replayCompiles; i++ {
		s.CompilePlan(fmt.Sprintf("replay-miss-%d", i), stages)
	}
	m.set("ampc.plan_compile_miss_us", float64(time.Since(start).Nanoseconds())/1e3/replayCompiles)
	s.CompilePlan("replay-hit", stages)
	start = time.Now()
	for i := 0; i < replayCompiles; i++ {
		s.CompilePlan("replay-hit", stages)
	}
	m.set("ampc.plan_compile_hit_us", float64(time.Since(start).Nanoseconds())/1e3/replayCompiles)
	return nil
}

// adjacencyJob opens a session and a job on it with the adjacency written
// to a frozen store through the runtime's own write path.
func adjacencyJob(cfg ampc.Config, a adjacency) (*ampc.Session, *ampc.Runtime, *dht.Store, error) {
	s := ampc.NewSession(cfg)
	job, err := s.NewJob()
	if err != nil {
		s.Close()
		return nil, nil, nil, err
	}
	st, err := job.OpenStore("replay-adjacency")
	if err == nil {
		err = job.WriteTable("replay-write", st, len(a.encoded), 0, func(v int) []byte { return a.encoded[v] })
	}
	if err == nil {
		err = st.Freeze()
	}
	if err != nil {
		job.Close()
		s.Close()
		return nil, nil, nil, fmt.Errorf("writing replay adjacency: %w", err)
	}
	return s, job, st, nil
}

// readRound is a round whose items split keys evenly and read them with fn.
func readRound(name string, st *dht.Store, items int, keys []uint64, fn func(ctx *ampc.Ctx, keys []uint64) error) ampc.Round {
	per := len(keys) / items
	return ampc.Round{
		Name:  name,
		Items: items,
		Read:  st,
		Body:  func(ctx *ampc.Ctx, item int) error { return fn(ctx, keys[item*per:(item+1)*per]) },
	}
}

// replayLookup times Ctx.Lookup inside a round over the adjacency store and
// returns the wall time per lookup.  With warm set, an identical round runs
// first so every timed lookup hits the machine's cache.
func replayLookup(cfg ampc.Config, a adjacency, keys []uint64, warm bool) (float64, error) {
	s, job, st, err := adjacencyJob(cfg, a)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	defer job.Close()
	rd := readRound("replay-lookup", st, cfg.Machines*cfg.Threads*4, keys, func(ctx *ampc.Ctx, keys []uint64) error {
		size := 0
		for _, k := range keys {
			v, _, err := ctx.Lookup(k)
			if err != nil {
				return err
			}
			size += len(v)
		}
		keep(size)
		return nil
	})
	if warm {
		if err := job.Run(rd); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if err := job.Run(rd); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(keys)), nil
}

// replayReadMany times Ctx.ReadMany in blocks of replayBatch keys and
// returns the wall time per key.
func replayReadMany(cfg ampc.Config, a adjacency, keys []uint64) (float64, error) {
	s, job, st, err := adjacencyJob(cfg, a)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	defer job.Close()
	items := cfg.Machines * cfg.Threads * 4
	rd := readRound("replay-readmany", st, items, keys, func(ctx *ampc.Ctx, keys []uint64) error {
		size := 0
		for lo := 0; lo < len(keys); lo += replayBatch {
			vals, _, err := ctx.ReadMany(keys[lo:min(lo+replayBatch, len(keys))])
			if err != nil {
				return err
			}
			size += len(vals)
		}
		keep(size)
		return nil
	})
	start := time.Now()
	if err := job.Run(rd); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(keys)), nil
}
