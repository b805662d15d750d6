package msf

import (
	"fmt"
	"sync"

	"ampcgraph/internal/ampc"
	"ampcgraph/internal/codec"
	"ampcgraph/internal/dht"
	"ampcgraph/internal/graph"
)

// Batched PrimSearch and PointerJump rounds (Config.Batch).
//
// A truncated Prim search expands one vertex at a time, so the single-key
// implementation pays one key-value round trip per expansion.  The batched
// round keeps one resumable search state per start vertex of a block and
// drives them as pull-based iterators (ampc.Stream): each search runs until
// it pops a vertex whose adjacency list is not locally known, the block's
// missing lists are fetched with one shard-grouped ReadMany, and the
// searches continue exactly where they stopped.  Every decision (heap
// order, stop cases, budget) is the same as the single-key search, so the
// discovered forest is identical.

// primState is a primSearcher whose fetches can be suspended and resumed.
type primState struct {
	ctx    *ampc.Ctx
	prio   []uint64
	budget int
	start  graph.NodeID
	lists  map[graph.NodeID]codec.WeightedList // shared per block

	out     *primOutcome
	heap    primHeap
	inTree  map[graph.NodeID]bool
	pending graph.NodeID // vertex waiting for its adjacency list
	done    bool
}

type primCand struct {
	edge graph.WeightedEdge
	from graph.NodeID
}

// primHeap is the candidate-edge min-heap over the global edge order,
// shared by the single-key primSearcher and the resumable primState so the
// two searches cannot diverge.
type primHeap []primCand

func (h *primHeap) push(c primCand) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.lessIdx(p, i) {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *primHeap) lessIdx(i, j int) bool { return edgeLess((*h)[i].edge, (*h)[j].edge) }

func (h *primHeap) pop() primCand {
	top := (*h)[0]
	(*h)[0] = (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(*h) && h.lessIdx(l, m) {
			m = l
		}
		if r < len(*h) && h.lessIdx(r, m) {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top
}

func newPrimState(ctx *ampc.Ctx, prio []uint64, budget int, start graph.NodeID,
	startAdj codec.WeightedList, lists map[graph.NodeID]codec.WeightedList) *primState {
	s := &primState{
		ctx:     ctx,
		prio:    prio,
		budget:  budget,
		start:   start,
		lists:   lists,
		out:     &primOutcome{stoppedAt: graph.None},
		inTree:  map[graph.NodeID]bool{start: true},
		pending: graph.None,
	}
	s.addVertex(start, startAdj)
	return s
}

func (s *primState) addVertex(v graph.NodeID, adj codec.WeightedList) {
	s.ctx.ChargeCompute(adj.Len() + 1)
	for i := range adj.Len() {
		wn := adj.At(i)
		if !s.inTree[wn.Node] {
			s.heap.push(primCand{edge: graph.WeightedEdge{U: v, V: wn.Node, W: wn.Weight}, from: v})
		}
	}
}

// advance runs the search until it finishes or needs an adjacency list that
// is not in lists yet, returning the vertex to fetch (graph.None when done).
func (s *primState) advance() graph.NodeID {
	if s.done {
		return graph.None
	}
	if s.pending != graph.None {
		adj, ok := s.lists[s.pending]
		if !ok {
			return s.pending
		}
		s.addVertex(s.pending, adj)
		s.pending = graph.None
	}
	for len(s.heap) > 0 {
		c := s.heap.pop()
		next := c.edge.V
		if s.inTree[next] {
			continue
		}
		// The chosen edge is the minimum edge leaving the explored set, so
		// it belongs to the (unique, tie-broken) minimum spanning forest.
		s.out.msfEdges = append(s.out.msfEdges, c.edge)
		s.inTree[next] = true
		if s.prio[next] < s.prio[s.start] {
			// Case 3: reached a stronger vertex; stop and point to it.
			s.out.stoppedAt = next
			s.done = true
			return graph.None
		}
		s.out.claimed = append(s.out.claimed, next)
		if len(s.inTree) >= s.budget {
			// Case 1: exploration budget exhausted.
			s.done = true
			return graph.None
		}
		adj, ok := s.lists[next]
		if !ok {
			s.pending = next
			return next
		}
		s.addVertex(next, adj)
	}
	// Case 2: the whole component was explored.
	s.done = true
	return graph.None
}

// batchPrimRound builds the streaming PrimSearch round over blocks of start
// vertices, handing every search's outcome to commit (called under the
// caller's lock); the caller runs it (or stages it into a pipeline).
func batchPrimRound(rt *ampc.Runtime, name string, store *dht.Store,
	sorted []codec.WeightedList, prio []uint64, budget int,
	mu *sync.Mutex, commit func(start graph.NodeID, out *primOutcome)) ampc.Round {
	n := len(sorted)
	size := rt.Config().BatchSize
	return ampc.Round{
		Name:        name,
		Items:       ampc.NumBlocks(n, size),
		Read:        store,
		Partitioner: rt.BlockOwnerPartitioner(size, n),
		Body: func(ctx *ampc.Ctx, block int) error {
			lo, hi := ampc.BlockBounds(block, size, n)
			lists := make(map[graph.NodeID]codec.WeightedList, hi-lo)
			// Seed the block's own adjacency lists so intra-block
			// expansions do not refetch data already in memory.
			for v := lo; v < hi; v++ {
				lists[graph.NodeID(v)] = sorted[v]
			}
			states := make([]*primState, 0, hi-lo)
			its := make([]ampc.Iterator, 0, hi-lo)
			for v := lo; v < hi; v++ {
				st := newPrimState(ctx, prio, budget, graph.NodeID(v), sorted[v], lists)
				states = append(states, st)
				its = append(its, ampc.PullFunc(func() (uint64, bool) {
					miss := st.advance()
					if miss == graph.None {
						return 0, false
					}
					return uint64(miss), true
				}))
			}
			err := ctx.Stream(0, its,
				func(k uint64, raw []byte, ok bool) error {
					if !ok {
						return fmt.Errorf("msf: vertex %d missing from the key-value store", k)
					}
					adj, err := codec.ViewWeightedNeighbors(raw)
					if err != nil {
						return err
					}
					lists[graph.NodeID(k)] = adj
					return nil
				})
			if err != nil {
				return err
			}
			mu.Lock()
			for _, st := range states {
				commit(st.start, st.out)
			}
			mu.Unlock()
			return nil
		},
	}
}

// batchChaseRound builds the streaming pointer chase of PointerJump: every
// vertex of a block is a pull-based iterator that follows its parent chain
// through the pointers fetched so far and suspends on the first unknown one;
// each cycle fetches the block's missing pointers as one shard-grouped
// batch.  Fetched pointers persist for the whole block, so a chain hops
// through already-known pointers without suspending again.
func batchChaseRound(rt *ampc.Runtime, name string, store *dht.Store, n int,
	roots []graph.NodeID, chains []int) ampc.Round {
	size := rt.Config().BatchSize
	return ampc.Round{
		Name:        name,
		Items:       ampc.NumBlocks(n, size),
		Read:        store,
		Partitioner: rt.BlockOwnerPartitioner(size, n),
		Body: func(ctx *ampc.Ctx, block int) error {
			lo, hi := ampc.BlockBounds(block, size, n)
			parentOf := make(map[graph.NodeID]graph.NodeID, hi-lo)
			var chaseErr error
			its := make([]ampc.Iterator, 0, hi-lo)
			for v := lo; v < hi; v++ {
				item := v
				cur := graph.NodeID(v)
				steps := 0
				its = append(its, ampc.PullFunc(func() (uint64, bool) {
					for {
						p, ok := parentOf[cur]
						if !ok {
							return uint64(cur), true
						}
						if p == cur {
							roots[item] = cur
							chains[item] = steps
							return 0, false
						}
						cur = p
						steps++
						if steps > n {
							if chaseErr == nil {
								chaseErr = fmt.Errorf("msf: pointer chain from %d does not terminate", item)
							}
							return 0, false
						}
					}
				}))
			}
			err := ctx.Stream(0, its, func(k uint64, raw []byte, ok bool) error {
				if !ok {
					return fmt.Errorf("msf: missing parent pointer for %d", k)
				}
				p, err := codec.DecodeNodeID(raw)
				if err != nil {
					return err
				}
				parentOf[graph.NodeID(k)] = p
				return nil
			})
			if err != nil {
				return err
			}
			return chaseErr
		},
	}
}
