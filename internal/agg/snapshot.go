package agg

import "fmt"

// Snapshot is the serializable state of one Aggregator: everything needed
// to resume processing at the captured watermark with byte-identical
// results. The hot-path layouts (window ring, START slabs, freelist) are
// deliberately NOT part of the format — a snapshot captures the logical
// state (live windows, live START records) and Restore re-materializes it
// into fresh rings and slabs, so the on-disk format survives layout
// refactors of the in-memory engine.
//
// A snapshot is only meaningful on a quiesced aggregator (no Process in
// flight); the engine checkpoints run off the hot path on the owning
// goroutine, so this holds by construction.
type Snapshot struct {
	Started   bool
	LastTime  int64
	NextClose int64
	MaxWin    int64
	NextID    int64
	// Windows holds the per-window totals of the live range [NextClose,
	// NextClose+len(Windows)-1] == [NextClose, MaxWin]; empty when the
	// aggregator never started.
	Windows []State
	// Starts are the live START records in time order.
	Starts []StartSnapshot
}

// StartSnapshot is the serializable form of one live StartRec.
type StartSnapshot struct {
	Time   int64
	ID     int64
	Prefix []State
}

// Snapshot captures the aggregator's logical state.
func (a *Aggregator) Snapshot() Snapshot {
	s := Snapshot{
		Started:   a.started,
		LastTime:  a.lastTime,
		NextClose: a.nextClose,
		MaxWin:    a.maxWin,
		NextID:    a.nextID,
	}
	if !a.started {
		return s
	}
	if a.maxWin >= a.nextClose {
		s.Windows = make([]State, a.maxWin-a.nextClose+1)
		for k := a.nextClose; k <= a.maxWin; k++ {
			s.Windows[k-a.nextClose] = a.winRing[k&a.winMask]
		}
	}
	s.Starts = make([]StartSnapshot, 0, len(a.starts)-a.head)
	for i := a.head; i < len(a.starts); i++ {
		rec := a.starts[i]
		prefix := make([]State, len(rec.prefix))
		copy(prefix, rec.prefix)
		s.Starts = append(s.Starts, StartSnapshot{Time: rec.Time, ID: rec.ID, Prefix: prefix})
	}
	return s
}

// Restore loads a snapshot into a freshly constructed aggregator (same
// Config as the one that produced it) and returns the live START records
// keyed by their IDs, so subscribers holding snapshot references by ID
// (the shared executor's stage rings) can rewire their pointers. OnStart
// does not fire for restored records — the subscriber restores its own
// side state explicitly.
func (a *Aggregator) Restore(s Snapshot) (map[int64]*StartRec, error) {
	if a.started {
		return nil, fmt.Errorf("agg: Restore on a started aggregator")
	}
	a.started = s.Started
	a.lastTime = s.LastTime
	a.nextClose = s.NextClose
	a.maxWin = s.MaxWin
	a.nextID = s.NextID
	if !s.Started {
		return map[int64]*StartRec{}, nil
	}
	if want := a.maxWin - a.nextClose + 1; want > 0 && int64(len(s.Windows)) != want {
		return nil, fmt.Errorf("agg: snapshot has %d window slots for live span %d", len(s.Windows), want)
	}
	a.ensureRing()
	for i, st := range s.Windows {
		k := a.nextClose + int64(i)
		a.winRing[k&a.winMask] = st
		if st.Count != 0 {
			a.liveStates++
			a.maxCredited = k
		}
	}
	byID := make(map[int64]*StartRec, len(s.Starts))
	prevTime := int64(-1)
	for _, ss := range s.Starts {
		if len(ss.Prefix) != a.plen {
			return nil, fmt.Errorf("agg: snapshot START record has %d prefix states, pattern length is %d", len(ss.Prefix), a.plen)
		}
		if ss.Time <= prevTime {
			return nil, fmt.Errorf("agg: snapshot START records out of order at t=%d", ss.Time)
		}
		prevTime = ss.Time
		rec := a.getRec()
		rec.Time, rec.ID = ss.Time, ss.ID
		copy(rec.prefix, ss.Prefix)
		//sharon:allow slablifecycle (restore re-interns snapshot records into the owning live-starts deque)
		a.starts = append(a.starts, rec)
		a.liveStates += int64(a.plen)
		if _, dup := byID[rec.ID]; dup {
			return nil, fmt.Errorf("agg: duplicate START record id %d in snapshot", rec.ID)
		}
		//sharon:allow slablifecycle (transient restore index, dropped when Restore returns to the caller)
		byID[rec.ID] = rec
	}
	return byID, nil
}
