package core

import (
	"math/bits"
	"sort"
)

// GWMIN implements the greedy minimum-degree algorithm for the Maximum
// Weight Independent Set problem (Sakai et al., paper Appendix B,
// Algorithm 8). In each iteration it selects the vertex maximizing
// weight(v)/(degree_Gi(v)+1) in the remaining graph, adds it to the
// independent set, and deletes it together with its neighbors.
//
// The returned indices refer to g's vertices and are sorted ascending.
// The resulting set's weight is guaranteed to be at least
// g.GuaranteedWeight() (Eq. 10), which the reduction step exploits.
func GWMIN(g *Graph) []int {
	n := g.NumVertices()
	alive := newBitset(n)
	degree := make([]int, n)
	for i := 0; i < n; i++ {
		alive.set(i)
		degree[i] = g.Degree(i)
	}
	remaining := n
	var is, removed []int
	for remaining > 0 {
		best := -1
		var bestRatio float64
		for i := alive.next(0); i >= 0; i = alive.next(i + 1) {
			ratio := g.Vertices[i].Weight / float64(degree[i]+1)
			if best == -1 || ratio > bestRatio {
				best = i
				bestRatio = ratio
			}
		}
		is = append(is, best)
		// Remove best and its closed neighborhood; update degrees of the
		// second-order neighbors that stay alive.
		removed = append(removed[:0], best)
		for k, w := range g.adj[best] {
			for w &= alive[k]; w != 0; w &= w - 1 {
				removed = append(removed, k<<6+bits.TrailingZeros64(w))
			}
		}
		for _, r := range removed {
			alive.clear(r)
		}
		remaining -= len(removed)
		for _, r := range removed {
			for k, w := range g.adj[r] {
				for w &= alive[k]; w != 0; w &= w - 1 {
					degree[k<<6+bits.TrailingZeros64(w)]--
				}
			}
		}
	}
	sort.Ints(is)
	return is
}

// IsIndependentSet reports whether the given vertex indices form an
// independent set of g.
func (g *Graph) IsIndependentSet(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.HasEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// SetWeight sums the weights of the given vertex indices.
func (g *Graph) SetWeight(set []int) float64 {
	var sum float64
	for _, i := range set {
		sum += g.Vertices[i].Weight
	}
	return sum
}

// PlanOf converts a vertex-index set into a sharing plan.
func (g *Graph) PlanOf(set []int) Plan {
	plan := make(Plan, 0, len(set))
	for _, i := range set {
		plan = append(plan, g.Vertices[i].Candidate)
	}
	return plan
}
