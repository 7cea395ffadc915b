package exec

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

func TestPartitionWorkload(t *testing.T) {
	f := newFixture()
	qa := f.query(0, "AB", 10, 5)
	qb := f.query(1, "BC", 10, 5)
	qc := f.query(2, "AB", 20, 5) // different window
	qd := f.query(3, "CD", 10, 5)
	qd.GroupBy = true // different grouping
	qe := f.query(4, "AB", 10, 5)
	qe.Where = []query.Predicate{{Type: f.ids['A'], Op: query.Gt, Value: 1}} // predicates

	segs := PartitionWorkload(query.Workload{qa, qb, qc, qd, qe})
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 4", len(segs))
	}
	if len(segs[0]) != 2 || segs[0][0] != qa || segs[0][1] != qb {
		t.Errorf("segment 0 = %v", segs[0])
	}
	for _, seg := range segs {
		if err := validateUniform(seg); err != nil {
			t.Errorf("segment not uniform: %v", err)
		}
	}
}

func TestPartitionSignatureOrderInsensitive(t *testing.T) {
	f := newFixture()
	q1 := f.query(0, "AB", 10, 5)
	q1.Where = []query.Predicate{
		{Type: f.ids['A'], Op: query.Gt, Value: 1},
		{Type: f.ids['B'], Op: query.Lt, Value: 9},
	}
	q2 := f.query(1, "BC", 10, 5)
	q2.Where = []query.Predicate{
		{Type: f.ids['B'], Op: query.Lt, Value: 9},
		{Type: f.ids['A'], Op: query.Gt, Value: 1},
	}
	segs := PartitionWorkload(query.Workload{q1, q2})
	if len(segs) != 1 {
		t.Fatalf("order-permuted predicates split into %d segments", len(segs))
	}
}

// TestPartitionedMatchesPerSegmentOracle runs a mixed-window workload and
// validates every segment against the brute-force oracle.
func TestPartitionedMatchesPerSegmentOracle(t *testing.T) {
	f := newFixture()
	w := query.Workload{
		f.query(0, "AB", 12, 4),
		f.query(1, "ABC", 12, 4),
		f.query(2, "BC", 24, 6), // different window
		f.query(3, "BCD", 24, 6),
	}
	g := f.query(4, "AB", 12, 4)
	g.GroupBy = true // different grouping
	w = append(w, g)

	rng := rand.New(rand.NewSource(9))
	var stream event.Stream
	tm := int64(0)
	for i := 0; i < 300; i++ {
		tm += 1 + int64(rng.Intn(2))
		stream = append(stream, event.Event{
			Time: tm,
			Type: f.ids[[]byte("ABCD")[rng.Intn(4)]],
			Key:  event.GroupKey(rng.Intn(2)),
			Val:  float64(rng.Intn(5)),
		})
	}

	rates := core.Rates(stream.Rates())
	p, err := NewPartitioned(w, rates, Options{Collect: true}, core.OptimizerOptions{
		Strategy: core.StrategySharon, Expand: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Segments() != 3 {
		t.Fatalf("segments = %d, want 3", p.Segments())
	}
	runAll(t, p, stream)
	got := p.Results()

	var want []Result
	for _, seg := range PartitionWorkload(w) {
		oracle, err := Oracle(stream, seg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, oracle...)
	}
	// Re-sort both the same way.
	slices.SortFunc(want, cmpResult)
	slices.SortFunc(got, cmpResult)
	if msg := diffResults(want, got); msg != "" {
		t.Fatal(msg)
	}
}

func TestPartitionedSharesWithinSegment(t *testing.T) {
	f := newFixture()
	w := query.Workload{
		f.query(0, "ABC", 20, 5),
		f.query(1, "ABD", 20, 5),
		f.query(2, "AB", 40, 10), // separate segment
		f.query(3, "AB", 40, 10),
	}
	rates := core.Rates{f.ids['A']: 50, f.ids['B']: 50, f.ids['C']: 5, f.ids['D']: 5}
	p, err := NewPartitioned(w, rates, Options{}, core.OptimizerOptions{Strategy: core.StrategySharon, Expand: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Segments() != 2 {
		t.Fatalf("segments = %d", p.Segments())
	}
	sharedSomewhere := false
	for i := 0; i < p.Segments(); i++ {
		_, plan := p.SegmentPlan(i)
		if len(plan) > 0 {
			sharedSomewhere = true
		}
	}
	if !sharedSomewhere {
		t.Error("no segment shares anything despite hot (A,B)")
	}
}

func TestPartitionedRejectsEmptyAndInvalid(t *testing.T) {
	if _, err := NewPartitioned(nil, nil, Options{}, core.OptimizerOptions{}); err == nil {
		t.Error("empty workload accepted")
	}
	f := newFixture()
	q := f.query(0, "AB", 10, 5)
	q.Pattern = nil
	if _, err := NewPartitioned(query.Workload{q}, nil, Options{}, core.OptimizerOptions{}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestPartitionedOutOfOrder(t *testing.T) {
	f := newFixture()
	w := query.Workload{f.query(0, "AB", 10, 5)}
	p, err := NewPartitioned(w, nil, Options{}, core.OptimizerOptions{Strategy: core.StrategyNone})
	if err != nil {
		t.Fatal(err)
	}
	must(t, p.Process(event.Event{Time: 5, Type: f.ids['A']}))
	if err := p.Process(event.Event{Time: 5, Type: f.ids['B']}); err == nil {
		t.Error("duplicate timestamp accepted")
	}
}
