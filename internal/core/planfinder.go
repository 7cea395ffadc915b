package core

import (
	"math/bits"
	"slices"
	"sort"
	"time"
)

// PlanFinderStats reports the work done by the plan search (used by the
// Figure 15 experiment and the benchmark's per-layer metrics).
type PlanFinderStats struct {
	// PlansConsidered counts the search nodes: the valid partial plans
	// the branch and bound extended.
	PlansConsidered int64
	// TimedOut reports that the deadline cut the search short; the plan
	// returned is the best found by then, never below GWMIN's.
	TimedOut bool
	// Gap is a proven upper bound on the optimal score minus the score
	// returned: 0 when the search finished, so the plan is optimal.
	Gap float64
	// peakHeld is the most candidate entries held along one search path,
	// the find phase's memory figure.
	peakHeld int64
}

// SearchPlan finds a maximum-score valid plan on the (reduced) Sharon
// graph g — a maximum-weight independent set (§6) — and returns it with
// the conflict-free candidates F collected during reduction appended.
//
// Each connected component is searched alone, depth first: vertices are
// ranked by weight, the incumbent starts as GWMIN's set (so the §5
// guarantee holds whenever the search stops), the search branches on the
// heaviest remaining candidate, and a branch is pruned once its score
// plus a greedy clique cover bound of its remaining candidates cannot
// beat the incumbent: candidates that pairwise conflict contribute at
// most their heaviest member. Memory is one path plus one cover per depth.
//
// deadline, when non-zero, bounds the search. On expiry the incumbent is
// returned with stats.TimedOut set and stats.Gap bounding its distance to
// the optimum (§6, extreme case 1).
func SearchPlan(g *Graph, conflictFree []Vertex, deadline time.Time) (Plan, float64, PlanFinderStats) {
	s := newSearcher(g, deadline)
	set := s.run(GWMIN(g))
	plan, score := g.PlanOf(set), g.SetWeight(set)
	for _, v := range conflictFree {
		plan = append(plan, v.Candidate)
		score += v.Weight
	}
	return plan, score, s.stats
}

// searcher holds the graph re-indexed by rank (heaviest vertex first), so
// the branching order is the bit order and "the candidates after v" is a
// bit range.
type searcher struct {
	order    []int     // rank -> vertex of g
	rank     []int     // vertex of g -> rank
	weight   []float64 // by rank
	adj      []bitset  // by rank
	words    int       // per bitset
	deadline time.Time
	stop     bool

	best    float64
	bestSet []int // ranks
	path    []int // ranks
	levels  []*level
	stats   PlanFinderStats
}

// level is one depth's scratch: the candidates, their clique cover, the
// per-suffix bounds, and the candidate set handed to the child.
type level struct {
	members []int     // candidate ranks, ascending: heaviest first
	clique  []int     // clique of each member
	common  []uint64  // per clique, `words` words: its members' common conflicts
	top     []float64 // per clique: heaviest member weight of the suffix scanned
	bound   []float64 // bound[i]: no plan from members[i:] scores more
	held    int64     // members held on the path down to this depth
	child   bitset
}

func newSearcher(g *Graph, deadline time.Time) *searcher {
	n := g.NumVertices()
	s := &searcher{
		order: make([]int, n), rank: make([]int, n), weight: make([]float64, n), adj: make([]bitset, n),
		words: (n + 63) >> 6, deadline: deadline,
	}
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return g.Vertices[s.order[a]].Weight > g.Vertices[s.order[b]].Weight
	})
	for r, v := range s.order {
		s.rank[v] = r
		s.weight[r] = g.Vertices[v].Weight
	}
	rows := make(bitset, n*s.words)
	for r, v := range s.order {
		s.adj[r] = rows[r*s.words : (r+1)*s.words]
		for k, w := range g.adj[v] {
			for ; w != 0; w &= w - 1 {
				s.adj[r].set(s.rank[k<<6+bits.TrailingZeros64(w)])
			}
		}
	}
	return s
}

// run searches every connected component, starting each from its share
// of the incumbent set (vertices of g), and returns the chosen vertices
// of g, ascending.
func (s *searcher) run(incumbent []int) []int {
	n := len(s.order)
	start := newBitset(n)
	for _, v := range incumbent {
		start.set(s.rank[v])
	}
	left := newBitset(n)
	for r := range n {
		left.set(r)
	}
	var chosen []int
	for r := left.next(0); r >= 0; r = left.next(r) {
		comp := s.component(r, left)
		s.best, s.bestSet = 0, s.bestSet[:0]
		for v := comp.next(0); v >= 0; v = comp.next(v + 1) {
			if start.has(v) {
				s.best += s.weight[v]
				s.bestSet = append(s.bestSet, v)
			}
		}
		s.expand(comp, 0, 0)
		if s.stop {
			s.stats.TimedOut = true
			s.stats.Gap += max(0, s.levels[0].bound[0]-s.best)
		}
		for _, v := range s.bestSet {
			chosen = append(chosen, s.order[v])
		}
	}
	sort.Ints(chosen)
	return chosen
}

// component removes from left, and returns, the connected component of
// rank r.
func (s *searcher) component(r int, left bitset) bitset {
	comp := newBitset(len(s.order))
	comp.set(r)
	left.clear(r)
	for frontier := []int{r}; len(frontier) > 0; {
		v := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for k, w := range s.adj[v] {
			w &= left[k]
			left[k] &^= w
			comp[k] |= w
			for ; w != 0; w &= w - 1 {
				frontier = append(frontier, k<<6+bits.TrailingZeros64(w))
			}
		}
	}
	return comp
}

// expand is one search node: the plan on s.path scores cur, and p holds
// the candidates that can still join it (all ranked after the path).
func (s *searcher) expand(p bitset, cur float64, depth int) {
	s.stats.PlansConsidered++
	if s.stats.PlansConsidered&255 == 1 && !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		s.stop = true
	}
	if cur > s.best {
		s.best = cur
		s.bestSet = append(s.bestSet[:0], s.path...)
	}
	lv := s.level(depth)
	lv.members = p.members(lv.members[:0])
	lv.held = int64(len(lv.members))
	if depth > 0 {
		lv.held += s.levels[depth-1].held
	}
	s.stats.peakHeld = max(s.stats.peakHeld, lv.held)
	s.cover(lv)
	// Branch on members[i] with members[:i] excluded, heaviest first.
	for i, v := range lv.members {
		if s.stop || cur+lv.bound[i] <= s.best {
			return
		}
		row, from := s.adj[v], v>>6
		clear(lv.child[:from])
		for k := from; k < s.words; k++ {
			lv.child[k] = p[k] &^ row[k]
		}
		lv.child[from] &^= 2<<uint(v&63) - 1 // v and the members before it
		s.path = append(s.path, v)
		s.expand(lv.child, cur+s.weight[v], depth+1)
		s.path = s.path[:len(s.path)-1]
	}
}

func (s *searcher) level(depth int) *level {
	if depth == len(s.levels) {
		s.levels = append(s.levels, &level{child: newBitset(len(s.order))})
	}
	return s.levels[depth]
}

// cover partitions lv.members into cliques, first fit in rank order, and
// fills lv.bound. A plan takes at most one member of a clique, so no plan
// from members[i:] outscores the summed heaviest member of each clique
// among them.
func (s *searcher) cover(lv *level) {
	lv.clique, lv.common = lv.clique[:0], lv.common[:0]
	cliques := 0
	for _, v := range lv.members {
		row, from, bit := s.adj[v], v>>6, uint64(1)<<uint(v&63)
		c := 0
		for c < cliques && lv.common[c*s.words+from]&bit == 0 {
			c++
		}
		if c == cliques {
			lv.common = append(lv.common, row...)
			cliques++
		} else {
			// Only members ranked after v are tested against this
			// clique again, so the words below v's can go stale.
			common := lv.common[c*s.words : (c+1)*s.words]
			for k := from; k < s.words; k++ {
				common[k] &= row[k]
			}
		}
		lv.clique = append(lv.clique, c)
	}
	lv.top = slices.Grow(lv.top[:0], cliques)[:cliques]
	clear(lv.top)
	n := len(lv.members)
	lv.bound = slices.Grow(lv.bound[:0], n+1)[:n+1]
	lv.bound[n] = 0
	// Scanning lightest first, a member outweighs its clique's earlier
	// (lighter) ones and replaces them in the bound.
	for i := n - 1; i >= 0; i-- {
		c, w := lv.clique[i], s.weight[lv.members[i]]
		lv.bound[i] = lv.bound[i+1] + w - lv.top[c]
		lv.top[c] = w
	}
}

// ExhaustivePlanSearch enumerates every subset of vertices, discarding
// invalid ones, and returns an optimal plan. It is the paper's exhaustive
// optimizer baseline (§8.3): exponential and only feasible for small
// workloads, used to validate the plan search's optimality.
func ExhaustivePlanSearch(g *Graph) (Plan, float64, int64) {
	n := g.NumVertices()
	var best []int
	var bestScore float64
	var considered int64
	if n > 62 {
		panic("core: exhaustive search beyond 62 candidates is not representable")
	}
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		considered++
		var verts []int
		var score float64
		valid := true
		for i := 0; i < n && valid; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			for _, v := range verts {
				if g.HasEdge(v, i) {
					valid = false
					break
				}
			}
			if valid {
				verts = append(verts, i)
				score += g.Vertices[i].Weight
			}
		}
		if valid && score > bestScore {
			bestScore = score
			best = verts
		}
	}
	return g.PlanOf(best), bestScore, considered
}
