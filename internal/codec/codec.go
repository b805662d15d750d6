// Package codec provides the compact binary encodings used for the values
// stored in the distributed hash table: neighbor lists, weight-sorted
// adjacency lists and small fixed records.  Keeping a real byte encoding
// (rather than storing Go slices directly) makes the byte counters reported
// by the runtimes meaningful, which matters because Figures 3 and 9 of the
// paper are measured in bytes.
//
// The lists are read in place: ViewNodeIDs and ViewWeightedNeighbors
// validate a buffer and return a view (NodeList, WeightedList) whose At reads
// its bytes, so a search walks an adjacency list without decoding a copy.  A
// view aliases its buffer — typically a value the key-value store returned —
// so it is read-only, and nobody may write those bytes while it is in use.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"ampcgraph/internal/graph"
)

// AppendUint32 appends v in little-endian order.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendUint64 appends v in little-endian order.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// EncodeNodeIDs encodes a neighbor list.
func EncodeNodeIDs(ids []graph.NodeID) []byte {
	b := make([]byte, 0, 4+4*len(ids))
	b = AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		b = AppendUint32(b, uint32(id))
	}
	return b
}

// NodeList is a read-only view of an EncodeNodeIDs list (see the package
// doc); the zero value is the empty list.
type NodeList struct{ b []byte }

// NewNodeList encodes ids as a view over freshly allocated bytes.
func NewNodeList(ids []graph.NodeID) NodeList { return NodeList{EncodeNodeIDs(ids)} }

// ViewNodeIDs validates b as an EncodeNodeIDs list and returns a view over
// it without copying.
func ViewNodeIDs(b []byte) (NodeList, error) {
	if err := checkList(b, 4); err != nil {
		return NodeList{}, err
	}
	return NodeList{b}, nil
}

// Len returns the number of entries.
func (l NodeList) Len() int { return max(len(l.b)-4, 0) / 4 }

// At returns entry i; it panics when i is out of range.
func (l NodeList) At(i int) graph.NodeID {
	return graph.NodeID(binary.LittleEndian.Uint32(l.b[4+4*i:]))
}

// Bytes returns the encoding the view reads (nil for the zero value).
func (l NodeList) Bytes() []byte { return l.b }

// DecodeNodeIDs decodes a neighbor list encoded by EncodeNodeIDs into a
// fresh slice.
func DecodeNodeIDs(b []byte) ([]graph.NodeID, error) {
	l, err := ViewNodeIDs(b)
	if err != nil {
		return nil, err
	}
	out := make([]graph.NodeID, l.Len())
	for i := range out {
		out[i] = l.At(i)
	}
	return out, nil
}

// checkList validates the length header of a list whose entries take width
// bytes each.
func checkList(b []byte, width uint64) error {
	if len(b) < 4 {
		return fmt.Errorf("codec: short buffer (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	// 64-bit arithmetic: a hostile header close to 2^32 must not overflow
	// the expected length back onto the actual one.
	if uint64(len(b)) != 4+width*uint64(n) {
		return fmt.Errorf("codec: length mismatch: header %d, bytes %d", n, len(b))
	}
	return nil
}

// WeightedNeighbor is one entry of a weight-annotated adjacency list.
type WeightedNeighbor struct {
	Node   graph.NodeID
	Weight float64
}

// EncodeWeightedNeighbors encodes a weighted adjacency list.
func EncodeWeightedNeighbors(ns []WeightedNeighbor) []byte {
	b := make([]byte, 0, 4+12*len(ns))
	b = AppendUint32(b, uint32(len(ns)))
	for _, n := range ns {
		b = AppendUint32(b, uint32(n.Node))
		b = AppendUint64(b, math.Float64bits(n.Weight))
	}
	return b
}

// WeightedList is a read-only view of an EncodeWeightedNeighbors list (see
// the package doc); the zero value is the empty list.
type WeightedList struct{ b []byte }

// NewWeightedList encodes ns as a view over freshly allocated bytes.
func NewWeightedList(ns []WeightedNeighbor) WeightedList {
	return WeightedList{EncodeWeightedNeighbors(ns)}
}

// ViewWeightedNeighbors validates b as an EncodeWeightedNeighbors list and
// returns a view over it without copying.
func ViewWeightedNeighbors(b []byte) (WeightedList, error) {
	if err := checkList(b, 12); err != nil {
		return WeightedList{}, err
	}
	return WeightedList{b}, nil
}

// Len returns the number of entries.
func (l WeightedList) Len() int { return max(len(l.b)-4, 0) / 12 }

// At returns entry i; it panics when i is out of range.
func (l WeightedList) At(i int) WeightedNeighbor {
	e := l.b[4+12*i:]
	w := math.Float64frombits(binary.LittleEndian.Uint64(e[4:]))
	return WeightedNeighbor{Node: graph.NodeID(binary.LittleEndian.Uint32(e)), Weight: w}
}

// Bytes returns the encoding the view reads (nil for the zero value).
func (l WeightedList) Bytes() []byte { return l.b }

// DecodeWeightedNeighbors decodes a list encoded by EncodeWeightedNeighbors
// into a fresh slice.
func DecodeWeightedNeighbors(b []byte) ([]WeightedNeighbor, error) {
	l, err := ViewWeightedNeighbors(b)
	if err != nil {
		return nil, err
	}
	out := make([]WeightedNeighbor, l.Len())
	for i := range out {
		out[i] = l.At(i)
	}
	return out, nil
}

// EncodeNodeID encodes a single vertex identifier.
func EncodeNodeID(id graph.NodeID) []byte {
	return AppendUint32(nil, uint32(id))
}

// DecodeNodeID decodes a single vertex identifier.
func DecodeNodeID(b []byte) (graph.NodeID, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("codec: want 4 bytes, got %d", len(b))
	}
	return graph.NodeID(binary.LittleEndian.Uint32(b)), nil
}

// EncodeUint64 encodes a single 64-bit value.
func EncodeUint64(v uint64) []byte { return AppendUint64(nil, v) }

// DecodeUint64 decodes a single 64-bit value.
func DecodeUint64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("codec: want 8 bytes, got %d", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// SizeOfNodeList returns the encoded size in bytes of a neighbor list of the
// given length; used by the MPC runtime's shuffle byte accounting.
func SizeOfNodeList(length int) int { return 4 + 4*length }

// SizeOfWeightedList returns the encoded size of a weighted adjacency list of
// the given length.
func SizeOfWeightedList(length int) int { return 4 + 12*length }
