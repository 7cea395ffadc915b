package exec

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// Partitioned evaluates a workload whose queries differ in windows,
// grouping, or predicates (paper §7.2): queries are partitioned into
// segments of identical (window, grouping, predicates) signatures, each
// segment is optimized and executed by its own shared online engine, and
// sharing happens within each segment. This follows the paper's
// observation that window/predicate refinement partitions the stream into
// disjoint segments to which Sharon applies orthogonally.
//
// Parallel execution: segments are mutually independent (nothing is
// shared across them), so they form the second natural sharding axis —
// NewParallelPartitioned deals the segments out to worker goroutines,
// each running a Partitioned over its own share, and broadcasts the
// stream.
type Partitioned struct {
	resultSink
	sequential
	noGroupSlices
	segments []*partSegment
	// qwin maps query ID to its window for the merge ordering key.
	qwin map[int]query.Window
	// emitBuf stages the results every segment engine produced for one
	// Process/AdvanceWatermark/Flush step so they can be sorted into the
	// global (window end, query, window, group) order before reaching
	// the sink — the same order the parallel segment-sharded executor's
	// merge stage delivers, so sequential and parallel partitioned runs
	// push byte-identical sequences.
	emitBuf []Result
	started bool
	last    int64
}

type partSegment struct {
	w      query.Workload
	plan   core.Plan
	engine *Engine
}

// signature canonicalizes the uniformity-relevant clauses of a query.
func signature(q *query.Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "w=%d/%d g=%v", q.Window.Length, q.Window.Slide, q.GroupBy)
	preds := append([]query.Predicate(nil), q.Where...)
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].Type != preds[j].Type {
			return preds[i].Type < preds[j].Type
		}
		if preds[i].Op != preds[j].Op {
			return preds[i].Op < preds[j].Op
		}
		return preds[i].Value < preds[j].Value
	})
	for _, p := range preds {
		fmt.Fprintf(&b, " %d%v%g", p.Type, p.Op, p.Value)
	}
	return b.String()
}

// PartitionWorkload splits a workload into maximal uniform segments,
// preserving query order within each segment. Segments are ordered by
// first appearance.
func PartitionWorkload(w query.Workload) []query.Workload {
	index := make(map[string]int)
	var out []query.Workload
	for _, q := range w {
		sig := signature(q)
		i, ok := index[sig]
		if !ok {
			i = len(out)
			index[sig] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], q)
	}
	return out
}

// SegmentSpec is one uniform segment of a partitioned workload together
// with the sharing plan its optimizer run chose and that plan's
// estimated benefit (Definition 8).
type SegmentSpec struct {
	Workload query.Workload
	Plan     core.Plan
	Score    float64
}

// PlanSegments runs the optimizer once per uniform segment (see
// PartitionWorkload). Every online executor builds from these specs.
func PlanSegments(segs []query.Workload, rates core.Rates, optOpts core.OptimizerOptions) ([]SegmentSpec, error) {
	specs := make([]SegmentSpec, len(segs))
	for i, seg := range segs {
		res, err := core.Optimize(seg, rates, optOpts)
		if err != nil {
			return nil, fmt.Errorf("exec: optimize segment %d: %w", i, err)
		}
		specs[i] = SegmentSpec{Workload: seg, Plan: res.Plan, Score: res.Score}
	}
	return specs, nil
}

// NewPartitioned builds a partitioned executor: one optimizer run and one
// shared engine per uniform segment. optOpts configures the per-segment
// optimizer (StrategyNone yields a partitioned A-Seq).
func NewPartitioned(w query.Workload, rates core.Rates, opts Options, optOpts core.OptimizerOptions) (*Partitioned, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("exec: empty workload")
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	specs, err := PlanSegments(PartitionWorkload(w), rates, optOpts)
	if err != nil {
		return nil, err
	}
	return NewPartitionedFromSpecs(specs, opts)
}

// NewPartitionedFromSpecs builds the sequential partitioned executor
// from pre-planned segments.
func NewPartitionedFromSpecs(specs []SegmentSpec, opts Options) (*Partitioned, error) {
	p := &Partitioned{resultSink: resultSink{opts: opts}, qwin: make(map[int]query.Window)}
	for _, spec := range specs {
		engine, err := NewEngine(spec.Workload, spec.Plan, Options{
			EmitEmpty: opts.EmitEmpty,
			OnResult:  p.stage,
		})
		if err != nil {
			return nil, fmt.Errorf("exec: partition engine: %w", err)
		}
		p.segments = append(p.segments, &partSegment{w: spec.Workload, plan: spec.Plan, engine: engine})
		for _, q := range spec.Workload {
			p.qwin[q.ID] = q.Window
		}
	}
	return p, nil
}

// stage buffers one segment engine's emission for the current step.
func (p *Partitioned) stage(r Result) { p.emitBuf = append(p.emitBuf, r) }

// emitStaged sorts the step's staged results into the global (window
// end, query, window, group) order and delivers them. Window closes are
// monotone in time within each segment, and every segment observed the
// same watermark in this step, so sorting within the step yields the
// same global order the parallel merge produces across steps.
func (p *Partitioned) emitStaged() {
	if len(p.emitBuf) == 0 {
		return
	}
	slices.SortFunc(p.emitBuf, func(a, b Result) int {
		if c := cmp.Compare(p.qwin[a.Query].End(a.Win), p.qwin[b.Query].End(b.Win)); c != 0 {
			return c
		}
		return cmpResult(a, b)
	})
	for _, r := range p.emitBuf {
		p.emit(r)
	}
	p.emitBuf = p.emitBuf[:0]
}

// Name identifies the strategy.
func (p *Partitioned) Name() string { return "Sharon-partitioned" }

// Segments reports the number of uniform segments.
func (p *Partitioned) Segments() int { return len(p.segments) }

// SegmentPlan returns segment i's workload and sharing plan.
func (p *Partitioned) SegmentPlan(i int) (query.Workload, core.Plan) {
	return p.segments[i].w, p.segments[i].plan
}

// Process fans the event out to every segment engine; each engine applies
// its own segment's predicates.
func (p *Partitioned) Process(e event.Event) error {
	if p.started && e.Time <= p.last {
		return fmt.Errorf("exec: out-of-order event at t=%d", e.Time)
	}
	p.started = true
	p.last = e.Time
	for _, s := range p.segments {
		if err := s.engine.Process(e); err != nil {
			return err
		}
	}
	p.emitStaged()
	return nil
}

// FeedBatch feeds a strictly time-ordered batch.
func (p *Partitioned) FeedBatch(events []event.Event) error {
	for _, e := range events {
		if err := p.Process(e); err != nil {
			return err
		}
	}
	return nil
}

// AdvanceWatermark closes every window ending at or before t in every
// segment without consuming an event (see Engine.AdvanceWatermark).
func (p *Partitioned) AdvanceWatermark(t int64) {
	if !p.started || t <= p.last {
		return
	}
	p.last = t
	for _, s := range p.segments {
		s.engine.AdvanceWatermark(t)
	}
	p.emitStaged()
}

// Flush closes all windows in every segment.
func (p *Partitioned) Flush() error {
	for _, s := range p.segments {
		if err := s.engine.Flush(); err != nil {
			return err
		}
	}
	p.emitStaged()
	return nil
}

// PeakLiveStates sums the segment engines' peaks.
func (p *Partitioned) PeakLiveStates() int64 {
	var n int64
	for _, s := range p.segments {
		n += s.engine.PeakLiveStates()
	}
	return n
}

// Explain renders every segment's per-query decomposition, in segment
// order.
func (p *Partitioned) Explain(reg *event.Registry) string {
	var b strings.Builder
	for _, s := range p.segments {
		b.WriteString(s.engine.Explain(reg))
	}
	return b.String()
}
