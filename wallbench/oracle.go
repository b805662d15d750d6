package main

import (
	"math"

	"ampcgraph/internal/core/matching"
	"ampcgraph/internal/graph"
	"ampcgraph/internal/rng"
	"ampcgraph/internal/seq"
)

// oracle holds the sequential reference answers every job's output is
// checked against.  It is computed once per run, during set-up and outside
// every timed span.
type oracle struct {
	inMIS     []bool
	mate      []graph.NodeID
	msfWeight float64
	comps     []graph.NodeID
}

// newOracle computes the references for graph g (MIS, matching and
// connectivity) and its weighted copy wg (MSF) under the algorithms' seed.
// The AMPC algorithms compute the lexicographically-first greedy answer for
// the seed's random order, so MIS and matching must agree exactly.
func newOracle(g, wg *graph.Graph, seed int64) *oracle {
	return &oracle{
		inMIS:     seq.GreedyMIS(g, rng.VertexPriorities(seed, g.NumNodes())),
		mate:      seq.GreedyMaximalMatching(g, matching.UniformEdgeRank(seed)).Mate,
		msfWeight: seq.MSFWeight(seq.KruskalMSF(wg)),
		comps:     seq.ConnectedComponents(g),
	}
}

// sameWeight reports whether two forest weights agree up to the rounding of
// summing the same edges in a different order.
func sameWeight(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
