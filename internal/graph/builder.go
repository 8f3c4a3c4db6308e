package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Builder accumulates undirected edges and produces a validated Graph.
// Duplicate edge insertions, in either orientation, are tolerated and
// collapsed at Build time; self-loops are rejected immediately.
//
// The zero value is ready to use, but NewBuilder pre-sizes internal storage
// and fixes the vertex count up front, which generators prefer.
type Builder struct {
	n     int
	edges []edge
	err   error
}

type edge struct{ u, v int32 }

// NewBuilder returns a Builder for a graph on n vertices, with capacity for
// edgeHint undirected edges. Vertex ids are int32, so n must lie in
// [0, math.MaxInt32]; Build reports any other n without allocating.
func NewBuilder(n, edgeHint int) *Builder {
	b := &Builder{n: n}
	switch {
	case n < 0:
		b.err = fmt.Errorf("graph: negative vertex count %d", n)
	case n > math.MaxInt32:
		b.err = fmt.Errorf("graph: vertex count %d exceeds int32 vertex ids", n)
	case edgeHint > 0:
		b.edges = make([]edge, 0, edgeHint)
	}
	return b
}

// AddEdge records the undirected edge {u, v}. Errors (out-of-range ids,
// self-loops) are latched and reported by Build, so generator loops do not
// need per-call error handling.
func (b *Builder) AddEdge(u, v int32) {
	if b.err != nil {
		return
	}
	if u == v {
		b.err = fmt.Errorf("graph: self-loop at vertex %d", u)
		return
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		b.err = fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
		return
	}
	b.edges = append(b.edges, edge{u, v})
}

// Build packs the edges into CSR form by count and scatter: count every
// vertex's degree, prefix-sum the counts into offsets, write both
// directions of every edge, then sort each adjacency list and drop
// repeated neighbours in place. The result depends only on the edge set,
// not on insertion order or orientation. name labels the graph for
// diagnostics and experiment tables.
func (b *Builder) Build(name string) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	offsets := make([]int64, b.n+1)
	for _, e := range b.edges {
		offsets[e.u+1]++
		offsets[e.v+1]++
	}
	for v := 1; v <= b.n; v++ {
		offsets[v] += offsets[v-1]
	}
	// offsets[v] is v's write cursor; afterwards it holds the end of v's
	// list, which is where v+1's list starts.
	neighbors := make([]int32, offsets[b.n])
	for _, e := range b.edges {
		neighbors[offsets[e.u]] = e.v
		offsets[e.u]++
		neighbors[offsets[e.v]] = e.u
		offsets[e.v]++
	}
	// Sort and deduplicate each list, compacting the lists leftwards and
	// setting offsets[v] back to the start of v's list.
	start, end := int64(0), int64(0)
	for v := 0; v < b.n; v++ {
		adj := neighbors[start:offsets[v]]
		start = offsets[v]
		slices.Sort(adj)
		offsets[v] = end
		end += int64(copy(neighbors[end:], slices.Compact(adj)))
	}
	offsets[b.n] = end
	if end < int64(len(neighbors)) {
		neighbors = slices.Clone(neighbors[:end]) // release the duplicates' slots
	}
	return &Graph{name: name, offsets: offsets, neighbors: neighbors}, nil
}

// FromAdjacency builds a graph from an adjacency list description. The
// adjacency may list each edge in one or both directions; symmetry is
// restored automatically. It is primarily a convenience for tests.
func FromAdjacency(name string, adj [][]int32) (*Graph, error) {
	b := NewBuilder(len(adj), 0)
	for u, row := range adj {
		for _, v := range row {
			b.AddEdge(int32(u), v)
		}
	}
	return b.Build(name)
}

// FromEdges builds a graph on n vertices from an explicit edge list given
// as (u, v) pairs. It is a convenience wrapper over Builder.
func FromEdges(name string, n int, pairs [][2]int32) (*Graph, error) {
	b := NewBuilder(n, len(pairs))
	for _, p := range pairs {
		b.AddEdge(p[0], p[1])
	}
	return b.Build(name)
}

// errEmptyGraph guards generators against zero-vertex requests.
var errEmptyGraph = errors.New("graph: vertex count must be positive")
