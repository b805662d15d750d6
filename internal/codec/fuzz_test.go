package codec

import (
	"bytes"
	"math"
	"testing"

	"ampcgraph/internal/graph"
)

// FuzzDecodeNodeIDs feeds arbitrary bytes to the neighbor-list decoder: it
// must never panic, and whatever it accepts must re-encode to exactly the
// input (the encoding is canonical).  ViewNodeIDs must accept exactly the
// same inputs, and its view must read back the decoded list entry by entry.
func FuzzDecodeNodeIDs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(EncodeNodeIDs([]graph.NodeID{1, 2, 3}))
	f.Add([]byte{255, 255, 255, 255})
	// Regression: a length header of 2^31 used to overflow the 32-bit
	// expected-length arithmetic back onto len(b) == 4 and panic.
	f.Add([]byte{0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, b []byte) {
		ids, err := DecodeNodeIDs(b)
		l, verr := ViewNodeIDs(b)
		if (err == nil) != (verr == nil) {
			t.Fatalf("decoder and view disagree on %x: %v vs %v", b, err, verr)
		}
		if err != nil {
			return
		}
		if got := EncodeNodeIDs(ids); !bytes.Equal(got, b) {
			t.Fatalf("decode/encode not canonical: %x -> %v -> %x", b, ids, got)
		}
		if l.Len() != len(ids) {
			t.Fatalf("view length %d, decoded %d", l.Len(), len(ids))
		}
		for i, id := range ids {
			if l.At(i) != id {
				t.Fatalf("view entry %d = %d, decoded %d", i, l.At(i), id)
			}
		}
	})
}

// FuzzDecodeWeightedNeighbors is the same property for the weighted
// adjacency encoding and its view.  NaN weights are allowed in the wire
// format; the comparisons are on bit patterns, so NaNs round-trip exactly.
func FuzzDecodeWeightedNeighbors(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(EncodeWeightedNeighbors([]WeightedNeighbor{{Node: 1, Weight: 0.5}, {Node: 2, Weight: -3}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		ns, err := DecodeWeightedNeighbors(b)
		l, verr := ViewWeightedNeighbors(b)
		if (err == nil) != (verr == nil) {
			t.Fatalf("decoder and view disagree on %x: %v vs %v", b, err, verr)
		}
		if err != nil {
			return
		}
		if got := EncodeWeightedNeighbors(ns); !bytes.Equal(got, b) {
			t.Fatalf("decode/encode not canonical: %x -> %v -> %x", b, ns, got)
		}
		if l.Len() != len(ns) {
			t.Fatalf("view length %d, decoded %d", l.Len(), len(ns))
		}
		for i, wn := range ns {
			got := l.At(i)
			if got.Node != wn.Node || math.Float64bits(got.Weight) != math.Float64bits(wn.Weight) {
				t.Fatalf("view entry %d = %v, decoded %v", i, got, wn)
			}
		}
	})
}

// FuzzNodeIDRoundTrip checks the fixed-size record codecs both ways: every
// value round-trips, and the decoders reject every length but the canonical
// one without panicking.
func FuzzNodeIDRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint64(0))
	f.Add(uint32(1<<32-1), uint64(1)<<63)
	f.Add(uint32(12345), uint64(987654321))
	f.Fuzz(func(t *testing.T, id uint32, v uint64) {
		got, err := DecodeNodeID(EncodeNodeID(graph.NodeID(id)))
		if err != nil || got != graph.NodeID(id) {
			t.Fatalf("NodeID round trip: %d -> %d (%v)", id, got, err)
		}
		gotV, err := DecodeUint64(EncodeUint64(v))
		if err != nil || gotV != v {
			t.Fatalf("Uint64 round trip: %d -> %d (%v)", v, gotV, err)
		}
		// Truncated buffers must error, not panic.
		if _, err := DecodeNodeID(EncodeNodeID(graph.NodeID(id))[:3]); err == nil {
			t.Fatal("DecodeNodeID accepted a short buffer")
		}
		if _, err := DecodeUint64(EncodeUint64(v)[:7]); err == nil {
			t.Fatal("DecodeUint64 accepted a short buffer")
		}
	})
}
