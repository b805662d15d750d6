package codec

import (
	"testing"
	"testing/quick"

	"ampcgraph/internal/graph"
)

func TestNodeIDsRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		ids := make([]graph.NodeID, len(raw))
		for i, r := range raw {
			ids[i] = graph.NodeID(r)
		}
		enc := EncodeNodeIDs(ids)
		if len(enc) != SizeOfNodeList(len(ids)) {
			return false
		}
		dec, err := DecodeNodeIDs(enc)
		if err != nil || len(dec) != len(ids) {
			return false
		}
		for i := range ids {
			if dec[i] != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIDsDecodeErrors(t *testing.T) {
	if _, err := DecodeNodeIDs(nil); err == nil {
		t.Fatal("nil buffer should fail")
	}
	if _, err := DecodeNodeIDs([]byte{5, 0, 0, 0}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestWeightedNeighborsRoundTrip(t *testing.T) {
	f := func(raw []uint32, ws []float64) bool {
		n := len(raw)
		if len(ws) < n {
			n = len(ws)
		}
		in := make([]WeightedNeighbor, n)
		for i := 0; i < n; i++ {
			in[i] = WeightedNeighbor{Node: graph.NodeID(raw[i]), Weight: ws[i]}
		}
		enc := EncodeWeightedNeighbors(in)
		if len(enc) != SizeOfWeightedList(n) {
			return false
		}
		dec, err := DecodeWeightedNeighbors(enc)
		if err != nil || len(dec) != n {
			return false
		}
		for i := range in {
			if dec[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedNeighborsDecodeErrors(t *testing.T) {
	if _, err := DecodeWeightedNeighbors([]byte{1}); err == nil {
		t.Fatal("short buffer should fail")
	}
	if _, err := DecodeWeightedNeighbors([]byte{2, 0, 0, 0, 1, 2, 3}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestNodeIDRoundTrip(t *testing.T) {
	enc := EncodeNodeID(graph.NodeID(123456))
	id, err := DecodeNodeID(enc)
	if err != nil || id != 123456 {
		t.Fatalf("round trip got %d, %v", id, err)
	}
	if _, err := DecodeNodeID([]byte{1, 2}); err == nil {
		t.Fatal("wrong length should fail")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		got, err := DecodeUint64(EncodeUint64(v))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeUint64([]byte{1}); err == nil {
		t.Fatal("wrong length should fail")
	}
}

func TestZeroViewsAreEmpty(t *testing.T) {
	if n := (NodeList{}).Len(); n != 0 {
		t.Fatalf("zero NodeList has length %d", n)
	}
	if n := (WeightedList{}).Len(); n != 0 {
		t.Fatalf("zero WeightedList has length %d", n)
	}
	if _, err := ViewNodeIDs([]byte{1, 0, 0, 0}); err == nil {
		t.Fatal("ViewNodeIDs accepted a length mismatch")
	}
	if _, err := ViewWeightedNeighbors(nil); err == nil {
		t.Fatal("ViewWeightedNeighbors accepted a short buffer")
	}
}

// sinkID keeps the benchmarks' reads from being optimized away.
var sinkID graph.NodeID

// benchList is a 64-entry encoded neighbor list, about the mean directed
// list length of the web-graph stand-ins.
func benchList() []byte {
	ids := make([]graph.NodeID, 64)
	for i := range ids {
		ids[i] = graph.NodeID(i * 7919)
	}
	return EncodeNodeIDs(ids)
}

// BenchmarkViewNodeIDs validates a list and reads every entry in place: the
// searches' per-lookup cost, with no allocation.
func BenchmarkViewNodeIDs(b *testing.B) {
	enc := benchList()
	b.ReportAllocs()
	var sum graph.NodeID
	for i := 0; i < b.N; i++ {
		l, err := ViewNodeIDs(enc)
		if err != nil {
			b.Fatal(err)
		}
		for j := range l.Len() {
			sum += l.At(j)
		}
	}
	sinkID = sum
}

// BenchmarkDecodeNodeIDs is the same read through a freshly decoded slice.
func BenchmarkDecodeNodeIDs(b *testing.B) {
	enc := benchList()
	b.ReportAllocs()
	var sum graph.NodeID
	for i := 0; i < b.N; i++ {
		ids, err := DecodeNodeIDs(enc)
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range ids {
			sum += id
		}
	}
	sinkID = sum
}
