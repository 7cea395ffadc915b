// Package core implements the paper's primary contribution: the Sharon
// optimizer. It detects sharable patterns (modified CCSpan, Appendix A),
// prices sharing candidates with the benefit model (§3), encodes candidates
// and conflicts into the Sharon graph (§4), prunes the graph using GWMIN's
// guaranteed weight (§5, Appendix B), searches the valid plan space with
// a clique-bounded branch and bound (§6), and optionally expands
// candidates to resolve conflicts (§7.1).
package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// Candidate is a sharing candidate (p, Qp): a sharable pattern p together
// with the queries that share its aggregation (paper Definition 3).
type Candidate struct {
	// Pattern is the shared pattern p; p.Length() > 1.
	Pattern query.Pattern
	// Queries holds the IDs of the sharing queries Qp, sorted ascending;
	// |Qp| > 1.
	Queries []int
}

// NewCandidate builds a candidate with a defensively copied, sorted,
// deduplicated query list.
func NewCandidate(p query.Pattern, queries []int) Candidate {
	qs := append([]int(nil), queries...)
	sort.Ints(qs)
	qs = dedupInts(qs)
	return Candidate{Pattern: p.Clone(), Queries: qs}
}

func dedupInts(qs []int) []int {
	out := qs[:0]
	for i, v := range qs {
		if i == 0 || v != qs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Key returns a unique map key for the candidate (pattern + query set).
func (c Candidate) Key() string {
	var b strings.Builder
	b.WriteString(c.Pattern.Key())
	b.WriteByte('|')
	for i, q := range c.Queries {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", q)
	}
	return b.String()
}

// PatternKey returns the map key of the candidate's pattern alone.
func (c Candidate) PatternKey() string { return c.Pattern.Key() }

// HasQuery reports whether query id q shares this candidate.
func (c Candidate) HasQuery(q int) bool {
	i := sort.SearchInts(c.Queries, q)
	return i < len(c.Queries) && c.Queries[i] == q
}

// CommonQueries returns the IDs shared by both candidates, sorted.
func (c Candidate) CommonQueries(d Candidate) []int {
	var out []int
	i, j := 0, 0
	for i < len(c.Queries) && j < len(d.Queries) {
		switch {
		case c.Queries[i] < d.Queries[j]:
			i++
		case c.Queries[i] > d.Queries[j]:
			j++
		default:
			out = append(out, c.Queries[i])
			i++
			j++
		}
	}
	return out
}

// Format renders the candidate like the paper: "(p, {q1, q2})".
func (c Candidate) Format(reg *event.Registry, w query.Workload) string {
	names := make([]string, len(c.Queries))
	byID := make(map[int]*query.Query, len(w))
	for _, q := range w {
		byID[q.ID] = q
	}
	for i, id := range c.Queries {
		if q, ok := byID[id]; ok {
			names[i] = q.Label()
		} else {
			names[i] = fmt.Sprintf("q%d", id)
		}
	}
	return fmt.Sprintf("(%s, {%s})", c.Pattern.Format(reg), strings.Join(names, ", "))
}

// Plan is a sharing plan: a set of sharing candidates (Definition 7).
type Plan []Candidate

// Clone returns a deep-enough copy of the plan.
func (p Plan) Clone() Plan {
	out := make(Plan, len(p))
	copy(out, p)
	return out
}

// Equal reports whether two plans contain the same candidates,
// order-insensitively (candidates compare by Key). The cluster adopt
// path uses it to refuse grafts built under a different plan than the
// receiving worker runs.
func (p Plan) Equal(q Plan) bool {
	if len(p) != len(q) {
		return false
	}
	keys := make(map[string]int, len(p))
	for _, c := range p {
		keys[c.Key()]++
	}
	for _, c := range q {
		keys[c.Key()]--
		if keys[c.Key()] < 0 {
			return false
		}
	}
	return true
}

// QueriesSharing returns, for query id q, the candidates in the plan that
// q participates in.
func (p Plan) QueriesSharing(q int) []Candidate {
	var out []Candidate
	for _, c := range p {
		if c.HasQuery(q) {
			out = append(out, c)
		}
	}
	return out
}

// Validate checks the plan against a workload: every candidate pattern
// must occur in each of its queries, and the candidates assigned to one
// query must occupy non-overlapping pattern segments (Definitions 6–7).
func (p Plan) Validate(w query.Workload) error {
	byID := make(map[int]*query.Query, len(w))
	for _, q := range w {
		byID[q.ID] = q
	}
	type span struct {
		lo, hi int
		c      Candidate
	}
	perQuery := make(map[int][]span)
	for _, c := range p {
		if c.Pattern.Length() < 2 {
			return fmt.Errorf("plan: pattern %v is not sharable (length %d)", c.Pattern, c.Pattern.Length())
		}
		if len(c.Queries) < 2 {
			return fmt.Errorf("plan: candidate for pattern %v has %d queries; sharing needs at least 2", c.Pattern, len(c.Queries))
		}
		for _, id := range c.Queries {
			q, ok := byID[id]
			if !ok {
				return fmt.Errorf("plan: candidate references unknown query id %d", id)
			}
			at := q.Pattern.IndexOf(c.Pattern)
			if at < 0 {
				return fmt.Errorf("plan: query %s does not contain pattern %v", q.Label(), c.Pattern)
			}
			perQuery[id] = append(perQuery[id], span{at, at + c.Pattern.Length(), c})
		}
	}
	for id, spans := range perQuery {
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				return fmt.Errorf("plan: conflicting candidates for query q%d: segments [%d,%d) and [%d,%d) overlap",
					id, spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
			}
		}
	}
	return nil
}

// Format renders the plan like the paper's examples.
func (p Plan) Format(reg *event.Registry, w query.Workload) string {
	if len(p) == 0 {
		return "{}"
	}
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = c.Format(reg, w)
	}
	return "{" + strings.Join(parts, "; ") + "}"
}

// FindCandidates runs the modified CCSpan detection (Appendix A) and
// returns all sharing candidates (p, Qp) of the workload: every contiguous
// sub-pattern of length > 1 appearing in more than one query, with the
// full set of queries containing it. Candidates are returned in a
// deterministic order (by pattern key).
func FindCandidates(w query.Workload) []Candidate {
	table := SharablePatterns(w)
	keys := make([]string, 0, len(table))
	byKey := make(map[string]Candidate, len(table))
	for _, sc := range table {
		c := NewCandidate(sc.Pattern, sc.Queries)
		k := c.Key()
		keys = append(keys, k)
		byKey[k] = c
	}
	sort.Strings(keys)
	out := make([]Candidate, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}
