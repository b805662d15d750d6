package mis

import (
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
)

// storeFailer is the part of the hash-table API the fault-injection tests
// need.
type storeFailer interface {
	FailShard(i int)
}

// runWithFaultInjection runs the MIS pipeline on an existing runtime and
// invokes inject on the stores created so far right before the search round.
// It exists to test the fault-tolerance property of the model (Section 2);
// the production entry points Run and RunTruncated do not inject failures.
func runWithFaultInjection(rt *ampc.Runtime, g *graph.Graph, inject func([]storeFailer)) ([]bool, error) {
	cfg := rt.Config()
	n := g.NumNodes()
	rt.SetOwnership(graph.DegreeWeights(g))
	prio := rng.VertexPriorities(cfg.Seed, n)
	directed, store, write, err := directedStore(rt, g, prio)
	if err != nil {
		return nil, err
	}
	if err := rt.Run(write); err != nil {
		return nil, err
	}

	inject([]storeFailer{store})

	inMIS := make([]bool, n)
	caches := make([]*statusCache, cfg.Machines)
	for i := range caches {
		caches[i] = newStatusCache()
	}
	var mu sync.Mutex
	err = rt.Run(searchRound(rt, "is-in-mis", store, directed, prio, caches, inMIS, make([]bool, n), &mu, nil))
	if err != nil {
		return nil, err
	}
	return inMIS, nil
}

// Compile-time check that the hash table implements the fault-injection hook.
var _ storeFailer = (*dht.Store)(nil)
