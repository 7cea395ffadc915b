package exec

import (
	"fmt"
	"slices"

	"github.com/sharon-project/sharon/internal/event"
)

// Group slicing is the state-transfer primitive of the cluster tier:
// all per-group runtime state is independent (the same property the
// parallel executor shards by), so a subset of an engine's groups can
// be cut out of one snapshot and grafted into another engine that is at
// the same stream position. The cluster router uses it to move hash
// ranges between workers — a slice is extracted (or cut from a dead
// worker's checkpoint), shipped, caught up past the slice watermark by
// replaying the delta, and absorbed into the new owner.
//
// A slice is carried as a plain EngineSnapshot whose Groups are the
// moved subset; LastTime/NextClose/MaxWin pin the stream position the
// slice is consistent at. Engines aligned at the same watermark agree
// on all three (closeUpTo leaves nextClose at the first window ending
// after the watermark and maxWin at the last window containing it,
// regardless of where each engine's stream started), which is what
// makes absorb a pure group-graft.

// SliceGroups flattens the groups selected by keep out of a snapshot
// into one slice. Engine snapshots slice directly; parallel snapshots
// over engine shards flatten across shards (the shards agree on the
// stream position — they advance in lock-step dispatch rounds). Other
// snapshot kinds (partitioned, dynamic) do not support group slicing.
func SliceGroups(s *SystemSnapshot, keep func(event.GroupKey) bool) (*EngineSnapshot, error) {
	switch s.Kind {
	case KindEngine:
		return sliceEngine(s.Engine, keep), nil
	case KindParallel:
		ps := s.Parallel
		out := &EngineSnapshot{}
		for i, shard := range ps.Shards {
			if shard == nil {
				return nil, fmt.Errorf("exec: slice: parallel snapshot shard %d missing", i)
			}
			if shard.Kind != KindEngine {
				return nil, fmt.Errorf("exec: slice: parallel shard %d is a %q snapshot (group slicing needs engine shards)", i, shard.Kind)
			}
			es := shard.Engine
			if !es.Started {
				continue
			}
			if !out.Started {
				out.Started = true
				out.LastTime, out.NextClose, out.MaxWin = es.LastTime, es.NextClose, es.MaxWin
			} else if out.LastTime != es.LastTime || out.NextClose != es.NextClose || out.MaxWin != es.MaxWin {
				return nil, fmt.Errorf("exec: slice: parallel shards disagree on stream position (shard %d at t=%d close=%d max=%d, others at t=%d close=%d max=%d); snapshot was not taken under the quiesced barrier",
					i, es.LastTime, es.NextClose, es.MaxWin, out.LastTime, out.NextClose, out.MaxWin)
			}
			for j := range es.Groups {
				if keep(es.Groups[j].Key) {
					out.Groups = append(out.Groups, es.Groups[j])
				}
			}
		}
		slices.SortFunc(out.Groups, func(a, b GroupSnapshot) int {
			switch {
			case a.Key < b.Key:
				return -1
			case a.Key > b.Key:
				return 1
			}
			return 0
		})
		return out, nil
	default:
		return nil, fmt.Errorf("exec: group slicing is not supported for %q snapshots (cluster rebalancing requires a uniform non-dynamic workload)", s.Kind)
	}
}

func sliceEngine(es *EngineSnapshot, keep func(event.GroupKey) bool) *EngineSnapshot {
	out := &EngineSnapshot{
		Started:   es.Started,
		LastTime:  es.LastTime,
		NextClose: es.NextClose,
		MaxWin:    es.MaxWin,
	}
	for i := range es.Groups {
		if keep(es.Groups[i].Key) {
			out.Groups = append(out.Groups, es.Groups[i])
		}
	}
	return out
}

// AbsorbSlice grafts a slice's groups into the engine. A started engine
// must be at exactly the slice's stream position; an engine that has
// not seen an event yet adopts the slice's position wholesale. Group
// keys must be disjoint from the engine's (ring ownership is disjoint
// by construction; a collision means two owners held the same range and
// is refused rather than merged).
func (en *Engine) AbsorbSlice(sl *EngineSnapshot) error {
	if !sl.Started && len(sl.Groups) == 0 {
		return nil
	}
	if !en.started {
		return en.Restore(&SystemSnapshot{Kind: KindEngine, Engine: &EngineSnapshot{
			Started:   true,
			LastTime:  sl.LastTime,
			NextClose: sl.NextClose,
			MaxWin:    sl.MaxWin,
			Groups:    sl.Groups,
		}})
	}
	if en.lastTime != sl.LastTime || en.nextClose != sl.NextClose || en.maxWin != sl.MaxWin {
		return fmt.Errorf("exec: absorb misaligned: engine at (t=%d, close=%d, max=%d), slice at (t=%d, close=%d, max=%d) — absorb requires both sides quiesced at the same watermark",
			en.lastTime, en.nextClose, en.maxWin, sl.LastTime, sl.NextClose, sl.MaxWin)
	}
	for i := range sl.Groups {
		if err := en.restoreGroup(&sl.Groups[i]); err != nil {
			return err
		}
	}
	return nil
}

// RemoveGroups deletes every group whose key satisfies drop and reports
// how many were removed (the error is always nil on an Engine). Group
// state is per-group (aggregators, slabs, and freelists are owned by the
// group's own aggregator instances), so removal is a map delete plus
// taking the group off the open windows' close lists and its states out
// of the live count; subsequent events for a removed key would rebuild it
// from scratch — the caller (the cluster extract path) re-routes those
// events away before removing.
func (en *Engine) RemoveGroups(drop func(event.GroupKey) bool) (int, error) {
	n := 0
	for k, g := range en.groups {
		if drop(k) {
			delete(en.groups, k)
			en.live -= g.liveStates()
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	removed := func(g *engineGroup) bool { return en.groups[g.key] != g }
	for i, list := range en.active {
		en.active[i] = slices.DeleteFunc(list, removed)
	}
	en.every = slices.DeleteFunc(en.every, removed)
	return n, nil
}

// GroupCount reports the number of live per-group runtimes.
func (en *Engine) GroupCount() int64 { return int64(len(en.groups)) }

// GroupCount sums the dynamic executor's live groups (the draining
// engine mid-migration holds the same groups at older windows, so only
// the current engine is counted).
func (d *Dynamic) GroupCount() int64 { return d.current.GroupCount() }

// GroupCount sums the partitioned executor's segment engines. Segments
// evaluate disjoint query sets over the same stream, so the same group
// key counts once per segment that materialized it.
func (p *Partitioned) GroupCount() int64 {
	var n int64
	for _, seg := range p.segments {
		n += seg.engine.GroupCount()
	}
	return n
}
