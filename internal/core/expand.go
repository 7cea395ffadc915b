package core

import (
	"maps"
	"slices"
	"sort"

	"github.com/sharon-project/sharon/internal/query"
)

// ExpandConfig bounds the §7.1 sharing-conflict resolution, whose option
// sets are exponential in the conflict degree (Eq. 14).
type ExpandConfig struct {
	// MaxOptionsPerCandidate caps |Op| for one candidate (0 = DefaultMaxOptions).
	MaxOptionsPerCandidate int
	// MaxTotalVertices caps the expanded graph size; once reached,
	// remaining candidates contribute only their original vertex
	// (0 = DefaultMaxVertices). Bounds the O(|V'|^2) conflict recomputation.
	MaxTotalVertices int
}

// DefaultMaxOptions is the default cap on options generated per candidate.
const DefaultMaxOptions = 256

// DefaultMaxVertices is the default cap on the expanded graph size.
const DefaultMaxVertices = 2048

// ExpandOptions implements Algorithm 5 (sharing candidate expansion): it
// builds, breadth-first, the tree of options for vertex vi of g. Each
// option shares the same pattern with a subset Q'p of the original
// queries, obtained by dropping query combinations that cause conflicts
// with other candidates. The original candidate is option zero.
func ExpandOptions(g *Graph, vi int, byID map[int]*query.Query, cfg ExpandConfig) []Candidate {
	maxOpts := cfg.MaxOptionsPerCandidate
	if maxOpts <= 0 {
		maxOpts = DefaultMaxOptions
	}
	orig := g.Vertices[vi].Candidate
	options := []Candidate{orig}
	seen := map[string]bool{orig.Key(): true}

	// Conflicts of the original candidate; options only ever shrink the
	// query set, so no new conflicts appear during expansion.
	neighbors := g.Neighbors(vi)

	queue := []Candidate{orig}
	for len(queue) > 0 && len(options) < maxOpts {
		cur := queue[0]
		queue = queue[1:]
		for _, ui := range neighbors {
			u := g.Vertices[ui].Candidate
			// Queries in cur still causing the conflict with u.
			var qc []int
			for _, id := range cur.CommonQueries(u) {
				q, ok := byID[id]
				if !ok {
					continue
				}
				if PatternsOverlapIn(q, cur.Pattern, u.Pattern) {
					qc = append(qc, id)
				}
			}
			if len(qc) == 0 {
				continue
			}
			// Every non-empty combination C of the causing queries can be
			// dropped from cur's side to (partially) resolve the conflict
			// (Definition 16: the counterpart set is dropped from u's own
			// option set, generated independently).
			for mask := 1; mask < 1<<uint(len(qc)); mask++ {
				drop := make(map[int]bool, len(qc))
				for b := 0; b < len(qc); b++ {
					if mask&(1<<uint(b)) != 0 {
						drop[qc[b]] = true
					}
				}
				var rest []int
				for _, id := range cur.Queries {
					if !drop[id] {
						rest = append(rest, id)
					}
				}
				if len(rest) < 2 {
					continue // sharing needs at least two queries
				}
				opt := NewCandidate(cur.Pattern, rest)
				k := opt.Key()
				if seen[k] {
					continue
				}
				seen[k] = true
				options = append(options, opt)
				queue = append(queue, opt)
				if len(options) >= maxOpts {
					return options
				}
			}
		}
	}
	return options
}

// Expand applies Algorithm 6 using this model's workload and benefit
// function; see ExpandGraph.
func (m *CostModel) Expand(g *Graph, cfg ExpandConfig) *Graph {
	return ExpandGraph(g, m.byID, m.BValue, cfg)
}

// ExpandGraph implements Algorithm 6 (sharing conflict resolution): every
// vertex of g is expanded into its set of options, each option is weighted
// by weigh (typically CostModel.BValue; non-positive options are dropped
// per Definition 10), and conflicts among all options are recomputed.
//
// An option only shrinks its base candidate's query set, so options a and
// b conflict exactly when Qa ∩ Qb meets the queries in which their base
// patterns overlap. That overlap is computed once per base pair that can
// conflict: a vertex with itself, or an edge of g (whose edges must be its
// conflicts, as BuildGraph builds them). Each option pair then costs one
// AND over query bitsets.
func ExpandGraph(g *Graph, byID map[int]*query.Query, weigh func(Candidate) float64, cfg ExpandConfig) *Graph {
	maxVerts := cfg.MaxTotalVertices
	if maxVerts <= 0 {
		maxVerts = DefaultMaxVertices
	}
	type option struct {
		Candidate
		key  string
		base int // vertex of g the option was expanded from
	}
	var all []option
	seen := make(map[string]bool)
	for vi := range g.Vertices {
		opts := []Candidate{g.Vertices[vi].Candidate}
		if len(all) < maxVerts {
			opts = ExpandOptions(g, vi, byID, cfg)
			if room := maxVerts - len(all); len(opts) > room {
				opts = opts[:room] // original candidate stays: it is opts[0]
			}
		}
		for _, opt := range opts {
			k := opt.Key()
			if !seen[k] {
				seen[k] = true
				all = append(all, option{opt, k, vi})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })

	pos := make(map[int]int, len(byID)) // query ID -> bit
	for _, id := range slices.Sorted(maps.Keys(byID)) {
		pos[id] = len(pos)
	}
	querySet := func(ids []int) bitset {
		b := newBitset(len(pos))
		for _, id := range ids {
			if p, ok := pos[id]; ok {
				b.set(p)
			}
		}
		return b
	}

	out := &Graph{queries: byID}
	var sets []bitset
	byBase := make([][]int, g.NumVertices())
	for _, o := range all {
		w := weigh(o.Candidate)
		if w <= 0 {
			continue
		}
		vi := out.AddVertex(Vertex{Candidate: o.Candidate, Weight: w})
		sets = append(sets, querySet(o.Queries))
		byBase[o.base] = append(byBase[o.base], vi)
	}
	for a := range g.Vertices {
		// b runs over a itself, then a's conflicts above a.
		for b := a; b >= 0; b = g.adj[a].next(b + 1) {
			ca, cb := g.Vertices[a].Candidate, g.Vertices[b].Candidate
			ov := newBitset(len(pos)) // queries in which a's and b's patterns overlap
			for _, id := range ca.CommonQueries(cb) {
				if q, ok := byID[id]; ok && PatternsOverlapIn(q, ca.Pattern, cb.Pattern) {
					ov.set(pos[id])
				}
			}
			for x, i := range byBase[a] {
				others := byBase[b]
				if a == b {
					others = others[x+1:]
				}
				for _, j := range others {
					if meets(sets[i], sets[j], ov) {
						out.AddEdge(i, j)
					}
				}
			}
		}
	}
	return out
}

// meets reports whether three equally sized bitsets share a member.
func meets(a, b, c bitset) bool {
	for k := range a {
		if a[k]&b[k]&c[k] != 0 {
			return true
		}
	}
	return false
}
