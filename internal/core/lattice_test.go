package core

import "sort"

// This file keeps the paper's level-wise plan finder (Algorithms 3-4) as
// the oracle SearchPlan is checked against on graphs it can finish: an
// Apriori join that materialises every valid plan of one size before
// building the next, pruning on conflicts but never on score.

// foundPlan is a valid sharing plan during the lattice traversal: a sorted
// list of vertex indices and its score (Definition 8). Candidates are kept
// sorted within a plan so that plans sharing their first s-1 decisions are
// lexicographic neighbors, enabling the Apriori-style join of Algorithm 3.
type foundPlan struct {
	verts []int
	score float64
}

// DefaultMaxLevelPlans bounds how many plans one lattice level may hold
// (the paper stores one level at a time, §6).
const DefaultMaxLevelPlans = 1 << 20

// nextLevel implements Algorithm 3: it joins pairs of valid size-s plans
// that agree on their first s-1 candidates and whose differing candidates
// are not in conflict (Lemma 6), yielding all valid size-s+1 plans
// (Lemma 7). parents must be lexicographically sorted; children are
// returned sorted. limit > 0 bounds the children generated; a breach stops
// generation and reports truncated=true.
func nextLevel(g *Graph, parents []foundPlan, limit int) (children []foundPlan, truncated bool) {
	if len(parents) == 0 {
		return nil, false
	}
	s := len(parents[0].verts)
	for i := 0; i < len(parents); i++ {
		pi := parents[i].verts
		for j := i + 1; j < len(parents); j++ {
			pj := parents[j].verts
			if !samePrefix(pi, pj, s-1) {
				// Lexicographic order makes equal-prefix plans
				// contiguous; once the prefix changes, no later plan
				// joins with parents[i].
				break
			}
			a, b := pi[s-1], pj[s-1] // a < b by lexicographic order
			if g.HasEdge(a, b) {
				continue // invalid branch pruned at its root (Lemma 4)
			}
			if limit > 0 && len(children) >= limit {
				return children, true
			}
			verts := make([]int, s+1)
			copy(verts, pi)
			verts[s] = b
			children = append(children, foundPlan{verts: verts, score: parents[i].score + g.Vertices[b].Weight})
		}
	}
	return children, false
}

func samePrefix(a, b []int, n int) bool {
	for k := 0; k < n; k++ {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// FindOptimalPlan implements Algorithm 4: a breadth-first traversal of the
// valid plan lattice over the (reduced) Sharon graph g, returning the plan
// with maximal score together with the conflict-free candidates F, and
// the number of valid plans materialised (Example 10's "10 valid plans").
func FindOptimalPlan(g *Graph, conflictFree []Vertex) (Plan, float64, int64) {
	var considered int64
	var opt []int
	var max float64
	level := make([]foundPlan, 0, g.NumVertices())
	for i := range g.Vertices {
		level = append(level, foundPlan{verts: []int{i}, score: g.Vertices[i].Weight})
	}
	sort.Slice(level, func(a, b int) bool { return lexLess(level[a].verts, level[b].verts) })
	for len(level) > 0 {
		considered += int64(len(level))
		for _, p := range level {
			if p.score > max {
				max = p.score
				opt = p.verts
			}
		}
		var truncated bool
		if level, truncated = nextLevel(g, level, DefaultMaxLevelPlans); truncated {
			panic("core: lattice oracle outgrew DefaultMaxLevelPlans")
		}
	}
	plan := g.PlanOf(opt)
	score := max
	for _, v := range conflictFree {
		plan = append(plan, v.Candidate)
		score += v.Weight
	}
	return plan, score, considered
}

func lexLess(a, b []int) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
