package core

import (
	"fmt"
	"strings"

	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// Vertex is a weighted Sharon-graph vertex: a beneficial sharing candidate
// and its benefit value (Definition 10).
type Vertex struct {
	Candidate
	// Weight is BValue(p, Qp) > 0.
	Weight float64
}

// Graph is the Sharon graph (Definition 10): vertices are beneficial
// sharing candidates, undirected edges are sharing conflicts. Each vertex
// keeps its conflicts as one adjacency bitset row, so conflict tests,
// degrees and the plan search's set operations are word operations.
type Graph struct {
	Vertices []Vertex
	// adj[i] has bit j set when vertices i and j conflict; rows widen as
	// edges arrive.
	adj []bitset
	// queries resolves the query IDs of the workload the graph was built
	// over, from which EdgeCauses derives conflict causes; nil on graphs
	// built edge by edge.
	queries map[int]*query.Query
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddVertex appends a vertex and returns its index.
func (g *Graph) AddVertex(v Vertex) int {
	g.Vertices = append(g.Vertices, v)
	g.adj = append(g.adj, nil)
	return len(g.Vertices) - 1
}

// AddEdge records a conflict between vertices i and j; self edges are
// ignored and a duplicate changes nothing.
func (g *Graph) AddEdge(i, j int) {
	if i == j {
		return
	}
	g.adj[i] = g.adj[i].grow(j)
	g.adj[i].set(j)
	g.adj[j] = g.adj[j].grow(i)
	g.adj[j].set(i)
}

// HasEdge reports whether vertices i and j are in conflict.
func (g *Graph) HasEdge(i, j int) bool { return g.adj[i].has(j) }

// EdgeCauses returns the query IDs causing the conflict between i and j,
// derived from the workload the graph was built over (nil when i and j
// do not conflict or the graph was built edge by edge). The §7.1
// expansion recomputes causes itself; this serves inspection and tests.
func (g *Graph) EdgeCauses(i, j int) []int {
	if !g.HasEdge(i, j) {
		return nil
	}
	_, causes := InConflict(g.queries, g.Vertices[i].Candidate, g.Vertices[j].Candidate)
	return causes
}

// Neighbors returns the vertices in conflict with i, ascending, in a
// freshly allocated slice.
func (g *Graph) Neighbors(i int) []int { return g.adj[i].members(nil) }

// Degree returns the number of conflicts of vertex i.
func (g *Graph) Degree(i int) int { return g.adj[i].count() }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.Vertices) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int {
	n := 0
	for _, row := range g.adj {
		n += row.count()
	}
	return n / 2
}

// TotalWeight returns the sum of all vertex weights.
func (g *Graph) TotalWeight() float64 {
	var sum float64
	for _, v := range g.Vertices {
		sum += v.Weight
	}
	return sum
}

// LiveStates estimates the number of stored entries (vertices' query lists
// plus adjacency words) for the optimizer memory metric.
func (g *Graph) LiveStates() int64 {
	var n int64
	for i, v := range g.Vertices {
		n += int64(len(v.Queries)) + 1 + int64(len(g.adj[i]))
	}
	return n
}

// Format renders the graph for debugging and the sharon-opt tool.
func (g *Graph) Format(reg *event.Registry, w query.Workload) string {
	var b strings.Builder
	for i, v := range g.Vertices {
		fmt.Fprintf(&b, "v%d %s weight=%.4g conflicts=%v\n", i, v.Format(reg, w), v.Weight, g.Neighbors(i))
	}
	return b.String()
}

// BuildGraph implements Algorithm 1: it consumes the sharable-pattern
// table (pattern -> queries), keeps candidates that are beneficial
// (BValue > 0) and shared by more than one query, and inserts a conflict
// edge for every overlapping pair.
func BuildGraph(m *CostModel, candidates []Candidate) *Graph {
	g := &Graph{queries: m.byID}
	for _, c := range candidates {
		if len(c.Queries) < 2 {
			continue
		}
		bv := m.BValue(c)
		if bv <= 0 {
			continue // non-beneficial candidate pruning (§3.4)
		}
		g.addConflicting(Vertex{Candidate: c, Weight: bv})
	}
	return g
}

// BuildGraphWithWeights builds a graph from candidates with externally
// supplied weights (used by tests reproducing the paper's Figure 4, whose
// weights come from unpublished rate constants).
func BuildGraphWithWeights(w query.Workload, cands []Candidate, weights []float64) *Graph {
	if len(cands) != len(weights) {
		panic("core: candidate/weight length mismatch")
	}
	byID := make(map[int]*query.Query, len(w))
	for _, q := range w {
		byID[q.ID] = q
	}
	g := &Graph{queries: byID}
	for i, c := range cands {
		if weights[i] > 0 {
			g.addConflicting(Vertex{Candidate: c, Weight: weights[i]})
		}
	}
	return g
}

// addConflicting appends v with an edge to every earlier vertex it is in
// sharing conflict with (Definition 6).
func (g *Graph) addConflicting(v Vertex) {
	vi := g.AddVertex(v)
	for ui := 0; ui < vi; ui++ {
		if conflict, _ := InConflict(g.queries, v.Candidate, g.Vertices[ui].Candidate); conflict {
			g.AddEdge(vi, ui)
		}
	}
}

// GuaranteedWeight implements Eq. 10: GWMIN's guaranteed minimum
// independent-set weight, sum over vertices of weight/(degree+1).
func (g *Graph) GuaranteedWeight() float64 {
	var sum float64
	for i, v := range g.Vertices {
		sum += v.Weight / float64(g.Degree(i)+1)
	}
	return sum
}

// ScoreMax implements Definition 12: the maximal score of any plan
// containing vertex v — the summed weight of all vertices not in conflict
// with v (including v itself).
func (g *Graph) ScoreMax(v int) float64 {
	row := g.adj[v]
	var sum float64
	for i, vert := range g.Vertices {
		if !row.has(i) {
			sum += vert.Weight
		}
	}
	return sum
}

// subgraph returns the induced subgraph on keep (ascending vertex indices
// of g), preserving vertex order.
func (g *Graph) subgraph(keep []int) *Graph {
	out := &Graph{queries: g.queries}
	for _, old := range keep {
		out.AddVertex(g.Vertices[old])
	}
	for a, oa := range keep {
		for b := a + 1; b < len(keep); b++ {
			if g.HasEdge(oa, keep[b]) {
				out.AddEdge(a, b)
			}
		}
	}
	return out
}
