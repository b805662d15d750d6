package main

import (
	"math"
	"testing"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"sort.pdqsort_func", "sort.Slice", "ampcgraph/internal/core/msf.primSearch"}, "sort"},
		{[]string{"runtime.mallocgc", "runtime.makeslice", "ampcgraph/internal/codec.DecodeNodeIDs"}, "malloc"},
		{[]string{"runtime.mapaccess2_fast64", "ampcgraph/internal/dht.(*memBackend).get"}, "map"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "ampcgraph/internal/dht.(*memBackend).get"}, "map"},
		{[]string{"sync/atomic.(*Int32).Add", "sync.(*RWMutex).RLock", "ampcgraph/internal/dht.(*Store).getFrom"}, "sync"},
		{[]string{"ampcgraph/internal/codec.DecodeNodeIDs", "ampcgraph/internal/core/matching.fetch"}, "codec"},
		{[]string{"runtime.memmove", "ampcgraph/internal/dht.(*Store).getFrom", "ampcgraph/internal/ampc.(*Ctx).Lookup"}, "dht"},
		{[]string{"ampcgraph/internal/core/mis.(*searcher).inMIS", "ampcgraph/internal/ampc.poolWorker"}, "core"},
		{[]string{"ampcgraph/internal/core/cycle.walk.func1"}, "core"},
		{[]string{"ampcgraph/internal/graph.(*Graph).Neighbors", "main.run"}, "graph"},
		{[]string{"runtime.gcBgMarkWorker"}, ""},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestAttributeTraces(t *testing.T) {
	text := `File: wallbench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      40ms   ampcgraph/internal/core/mis.(*searcher).inMIS
             ampcgraph/internal/ampc.poolWorker
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             ampcgraph/internal/codec.DecodeNodeIDs (inline)
-----------+-------------------------------------------------------
      20ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   ampcgraph/internal/codec.DecodeNodeIDs
             ampcgraph/internal/core/matching.fetch
-----------+-------------------------------------------------------
`
	shares, err := attributeTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"core": 0.4, "malloc": 0.3, "codec": 0.1, "ampc": 0, "dht": 0, "sort": 0, "map": 0, "sync": 0}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, shares[l], w)
		}
	}
	if _, err := attributeTraces("File: empty\n"); err == nil {
		t.Error("a profile without samples was accepted")
	}
}
