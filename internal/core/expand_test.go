package core

import (
	"slices"
	"sort"
	"testing"

	"github.com/sharon-project/sharon/internal/gen"
	"github.com/sharon-project/sharon/internal/query"
)

// TestExpandMatchesPairwise: the mask-built expanded graph equals the one
// Algorithm 6 describes, options weighed in key order and conflicts
// recomputed with InConflict for every pair: same keys, weights, edges
// and edge causes, on both paper workloads and the benchmark's
// engine-shared shape (2008 options there).
func TestExpandMatchesPairwise(t *testing.T) {
	type workload struct {
		name  string
		g     *Graph
		byID  map[int]*query.Query
		weigh func(Candidate) float64
	}
	var cases []workload

	// Traffic with Figure 4's weights, an option weighing its share of
	// its pattern's queries: the paper's conflict structure, expanded.
	tr := gen.Traffic()
	var cands []Candidate
	full := make(map[string]float64)
	for i, p := range tr.Patterns {
		var qs []int
		for _, q := range tr.Workload {
			if q.Pattern.Contains(p) {
				qs = append(qs, q.ID)
			}
		}
		cands = append(cands, NewCandidate(p, qs))
		full[p.Key()] = tr.Weights[i] / float64(len(qs))
	}
	g := BuildGraphWithWeights(tr.Workload, cands, tr.Weights)
	cases = append(cases, workload{"traffic", g, g.queries, func(c Candidate) float64 {
		return full[c.Pattern.Key()] * float64(len(c.Queries))
	}})

	// Purchases and the benchmark's engine-shared shape under the cost
	// model.
	pw := gen.Purchases()
	shared, sharedRates := sharedShape()
	for _, tc := range []struct {
		name  string
		w     query.Workload
		rates Rates
	}{{"purchases", pw.Workload, uniformRates(pw.Workload)}, {"engine-shared", shared, sharedRates}} {
		m := NewCostModel(tc.w, tc.rates)
		cases = append(cases, workload{tc.name, BuildGraph(m, FindCandidates(tc.w)), m.byID, m.BValue})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			eg := ExpandGraph(g, tc.byID, tc.weigh, ExpandConfig{})

			// Vertices: the options of every vertex up to the vertex cap
			// (originals always), deduplicated, in key order, weighed,
			// non-beneficial ones dropped.
			var keys []string
			byKey := make(map[string]Candidate)
			for vi := range g.Vertices {
				opts := []Candidate{g.Vertices[vi].Candidate}
				if len(keys) < DefaultMaxVertices {
					opts = ExpandOptions(g, vi, tc.byID, ExpandConfig{})
					opts = opts[:min(len(opts), DefaultMaxVertices-len(keys))]
				}
				for _, o := range opts {
					if _, dup := byKey[o.Key()]; !dup {
						byKey[o.Key()] = o
						keys = append(keys, o.Key())
					}
				}
			}
			sort.Strings(keys)
			var want []Vertex
			for _, k := range keys {
				if w := tc.weigh(byKey[k]); w > 0 {
					want = append(want, Vertex{Candidate: byKey[k], Weight: w})
				}
			}
			if len(want) != eg.NumVertices() {
				t.Fatalf("%d vertices, want %d", eg.NumVertices(), len(want))
			}
			for i, v := range eg.Vertices {
				if v.Key() != want[i].Key() || v.Weight != want[i].Weight {
					t.Fatalf("vertex %d = %s (%v), want %s (%v)", i, v.Key(), v.Weight, want[i].Key(), want[i].Weight)
				}
			}

			edges, stride := 0, sampleCauses(eg)
			for i := range eg.Vertices {
				for j := i + 1; j < eg.NumVertices(); j++ {
					conflict, causes := InConflict(tc.byID, eg.Vertices[i].Candidate, eg.Vertices[j].Candidate)
					if eg.HasEdge(i, j) != conflict || eg.HasEdge(j, i) != conflict {
						t.Fatalf("edge %d-%d = %v, InConflict says %v (causes %v)", i, j, eg.HasEdge(i, j), conflict, causes)
					}
					if !conflict {
						continue
					}
					edges++
					if edges%stride != 0 {
						continue
					}
					if got := eg.EdgeCauses(i, j); !slices.Equal(got, causes) {
						t.Fatalf("causes %d-%d = %v, want %v", i, j, got, causes)
					}
				}
			}
			if edges != eg.NumEdges() {
				t.Fatalf("%d edges counted, graph reports %d", edges, eg.NumEdges())
			}
			t.Logf("%d base vertices -> %d options, %d conflicts", g.NumVertices(), eg.NumVertices(), edges)
		})
	}
}

// sampleCauses is the stride at which edge causes are compared: every
// edge on small graphs, one in 97 on the 1.4 M edges of engine-shared,
// where deriving causes twice per edge would double the test's time.
func sampleCauses(g *Graph) int {
	if g.NumEdges() > 10_000 {
		return 97
	}
	return 1
}

func uniformRates(w query.Workload) Rates {
	rates := Rates{}
	for t := range w.Types() {
		rates[t] = 10
	}
	return rates
}
