package exec

import (
	"sync"
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// emissionLog collects an executor's OnResult stream in emission order.
// The mutex makes it safe for the parallel executors' merge goroutine;
// reads happen only after Flush/Stop returned.
type emissionLog struct {
	mu  sync.Mutex
	out []Result
}

func (l *emissionLog) sink(r Result) {
	l.mu.Lock()
	l.out = append(l.out, r)
	l.mu.Unlock()
}

func (l *emissionLog) results() []Result {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Result(nil), l.out...)
}

// assertSameEmission requires two OnResult streams to be identical in
// content and order — the restart-equivalence contract.
func assertSameEmission(t *testing.T, want, got []Result, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: emission %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// mustSnap snapshots any online executor, failing the test on error.
func mustSnap(t testing.TB, ex Online) *SystemSnapshot {
	t.Helper()
	snap, err := ex.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snap
}

// TestEngineSnapshotRestoreEquivalence cuts a sequential run at several
// points: snapshot, restore into a fresh engine, feed the tail, and
// require the concatenated emission to be byte-identical to an
// uninterrupted run — including the shared method's combination state
// (START records and stage snapshots survive the round trip).
func TestEngineSnapshotRestoreEquivalence(t *testing.T) {
	w, stream, plan := parallelFixture(t, 6, 6000, 13, true)
	for _, plans := range []struct {
		name string
		p    core.Plan
	}{{"shared", plan}, {"non-shared", nil}} {
		t.Run(plans.name, func(t *testing.T) {
			ref := &emissionLog{}
			en, err := NewEngine(w, plans.p, Options{OnResult: ref.sink})
			must(t, err)
			runAll(t, en, stream)

			for _, cut := range []int{1, len(stream) / 3, len(stream) / 2, len(stream) - 1} {
				log := &emissionLog{}
				first, err := NewEngine(w, plans.p, Options{OnResult: log.sink})
				must(t, err)
				for _, e := range stream[:cut] {
					must(t, first.Process(e))
				}
				snap := mustSnap(t, first)

				second, err := NewEngine(w, plans.p, Options{OnResult: log.sink})
				must(t, err)
				must(t, second.Restore(snap))
				for _, e := range stream[cut:] {
					must(t, second.Process(e))
				}
				must(t, second.Flush())
				assertSameEmission(t, ref.results(), log.results(), plans.name)
				if want, got := en.ResultCount(), second.ResultCount(); want != got {
					t.Fatalf("restored ResultCount = %d, want %d", got, want)
				}
			}
		})
	}
}

// TestEngineSnapshotRoundTripStable requires snapshot(restore(snapshot))
// to reproduce the snapshot exactly: restoring loses no logical state.
func TestEngineSnapshotRoundTripStable(t *testing.T) {
	w, stream, plan := parallelFixture(t, 6, 5000, 13, true)
	en, err := NewEngine(w, plan, Options{})
	must(t, err)
	for _, e := range stream[:len(stream)/2] {
		must(t, en.Process(e))
	}
	snap := mustSnap(t, en)
	en2, err := NewEngine(w, plan, Options{})
	must(t, err)
	must(t, en2.Restore(snap))
	again := mustSnap(t, en2)
	assertEqualSnapshots(t, snap, again)
}

func assertEqualSnapshots(t *testing.T, a, b *SystemSnapshot) {
	t.Helper()
	ea, eb := a.Engine, b.Engine
	if ea.Started != eb.Started || ea.LastTime != eb.LastTime || ea.NextClose != eb.NextClose ||
		ea.MaxWin != eb.MaxWin || ea.ResultCount != eb.ResultCount {
		t.Fatalf("engine header differs: %+v vs %+v", ea, eb)
	}
	if len(ea.Groups) != len(eb.Groups) {
		t.Fatalf("group count %d vs %d", len(ea.Groups), len(eb.Groups))
	}
	for i := range ea.Groups {
		ga, gb := &ea.Groups[i], &eb.Groups[i]
		if ga.Key != gb.Key || len(ga.Nodes) != len(gb.Nodes) || len(ga.Stages) != len(gb.Stages) {
			t.Fatalf("group %d shape differs", i)
		}
		for j := range ga.Nodes {
			na, nb := ga.Nodes[j], gb.Nodes[j]
			if na.Started != nb.Started || na.NextClose != nb.NextClose || na.MaxWin != nb.MaxWin ||
				na.NextID != nb.NextID || len(na.Windows) != len(nb.Windows) || len(na.Starts) != len(nb.Starts) {
				t.Fatalf("group %d node %d header differs: %+v vs %+v", i, j, na, nb)
			}
			for k := range na.Windows {
				if na.Windows[k] != nb.Windows[k] {
					t.Fatalf("group %d node %d window %d differs", i, j, k)
				}
			}
			for k := range na.Starts {
				sa, sb := na.Starts[k], nb.Starts[k]
				if sa.Time != sb.Time || sa.ID != sb.ID || len(sa.Prefix) != len(sb.Prefix) {
					t.Fatalf("group %d node %d start %d differs", i, j, k)
				}
				for l := range sa.Prefix {
					if sa.Prefix[l] != sb.Prefix[l] {
						t.Fatalf("group %d node %d start %d prefix %d differs", i, j, k, l)
					}
				}
			}
		}
		for j := range ga.Stages {
			sa, sb := ga.Stages[j], gb.Stages[j]
			if sa.Chain != sb.Chain || sa.Stage != sb.Stage || len(sa.Windows) != len(sb.Windows) {
				t.Fatalf("group %d stage %d shape differs", i, j)
			}
			for k := range sa.Windows {
				wa, wb := sa.Windows[k], sb.Windows[k]
				if wa.Win != wb.Win || len(wa.Entries) != len(wb.Entries) {
					t.Fatalf("group %d stage %d window %d shape differs", i, j, k)
				}
				for l := range wa.Entries {
					if wa.Entries[l] != wb.Entries[l] {
						t.Fatalf("group %d stage %d window %d entry %d differs", i, j, k, l)
					}
				}
			}
		}
	}
}

// TestParallelSnapshotRestoreEquivalence is the same contract for the
// group-hash sharded executor: snapshot under the quiesced barrier,
// restore into a fresh executor with the same worker count, and the
// merged emission across the cut equals an uninterrupted parallel run.
func TestParallelSnapshotRestoreEquivalence(t *testing.T) {
	w, stream, plan := parallelFixture(t, 6, 6000, 13, true)
	const workers = 4

	ref := &emissionLog{}
	pref, err := NewParallelEngine(w, plan, workers, Options{OnResult: ref.sink})
	must(t, err)
	must(t, pref.FeedBatch(stream))
	must(t, pref.Flush())

	for _, cut := range []int{1, len(stream) / 2, len(stream) - 1} {
		log := &emissionLog{}
		first, err := NewParallelEngine(w, plan, workers, Options{OnResult: log.sink})
		must(t, err)
		must(t, first.FeedBatch(stream[:cut]))
		snap, err := first.Snapshot()
		must(t, err)
		first.Stop() // abandon like a crash: undelivered windows beyond the snapshot die with it

		second, err := NewParallelEngine(w, plan, workers, Options{OnResult: log.sink})
		must(t, err)
		must(t, second.Restore(snap))
		must(t, second.FeedBatch(stream[cut:]))
		must(t, second.Flush())
		assertSameEmission(t, ref.results(), log.results(), "parallel cut")
	}
}

// TestParallelSnapshotWorkerCountMismatch pins the restore precondition:
// shard state is partitioned by the worker-count-dependent hash, so a
// snapshot only restores into the same parallelism.
func TestParallelSnapshotWorkerCountMismatch(t *testing.T) {
	w, stream, plan := parallelFixture(t, 4, 2000, 13, true)
	p4, err := NewParallelEngine(w, plan, 4, Options{})
	must(t, err)
	must(t, p4.FeedBatch(stream[:1000]))
	snap, err := p4.Snapshot()
	must(t, err)
	p4.Stop()

	p2, err := NewParallelEngine(w, plan, 2, Options{})
	must(t, err)
	defer p2.Stop()
	if err := p2.Restore(snap); err == nil {
		t.Fatal("restore into a different worker count succeeded, want error")
	}
}

// TestPartitionedSnapshotRestoreEquivalence covers the mixed-window
// executor, sequentially and segment-sharded.
func TestPartitionedSnapshotRestoreEquivalence(t *testing.T) {
	w, stream := mixedWorkload(t)
	rates := core.Rates(stream.Rates())
	optOpts := core.OptimizerOptions{Strategy: core.StrategySharon, Expand: true, Budget: time.Second}
	specs, err := PlanSegments(PartitionWorkload(w), rates, optOpts)
	must(t, err)
	cut := len(stream) / 2

	t.Run("sequential", func(t *testing.T) {
		ref := &emissionLog{}
		pr, err := NewPartitionedFromSpecs(specs, Options{OnResult: ref.sink})
		must(t, err)
		runAll(t, pr, stream)

		log := &emissionLog{}
		first, err := NewPartitionedFromSpecs(specs, Options{OnResult: log.sink})
		must(t, err)
		for _, e := range stream[:cut] {
			must(t, first.Process(e))
		}
		snap := mustSnap(t, first)
		second, err := NewPartitionedFromSpecs(specs, Options{OnResult: log.sink})
		must(t, err)
		must(t, second.Restore(snap))
		for _, e := range stream[cut:] {
			must(t, second.Process(e))
		}
		must(t, second.Flush())
		assertSameEmission(t, ref.results(), log.results(), "partitioned sequential")
	})

	t.Run("parallel", func(t *testing.T) {
		const workers = 2
		ref := &emissionLog{}
		pr, err := NewParallelPartitioned(specs, workers, Options{OnResult: ref.sink})
		must(t, err)
		must(t, pr.FeedBatch(stream))
		must(t, pr.Flush())

		// legacy rewrites the shard snapshots into the KindSegments form
		// earlier builds checkpointed (segment engines only, no stream
		// position), which must keep restoring.
		for _, legacy := range []bool{false, true} {
			log := &emissionLog{}
			first, err := NewParallelPartitioned(specs, workers, Options{OnResult: log.sink})
			must(t, err)
			must(t, first.FeedBatch(stream[:cut]))
			snap, err := first.Snapshot()
			must(t, err)
			first.Stop()
			label := "partitioned parallel"
			if legacy {
				label += ", legacy shard snapshots"
				for _, sh := range snap.Parallel.Shards {
					sh.Kind = KindSegments
					sh.Partitioned = &PartitionedSnapshot{Segments: sh.Partitioned.Segments}
				}
			}
			// A watermark closes windows only on shards that know the
			// stream had started: the restored position must be live.
			var closed int
			probe, err := NewParallelPartitioned(specs, workers, Options{OnResult: func(Result) { closed++ }})
			must(t, err)
			must(t, probe.Restore(snap))
			probe.AdvanceWatermark(stream[len(stream)-1].Time)
			must(t, probe.Quiesce())
			probe.Stop()
			if closed == 0 {
				t.Errorf("%s: a watermark after restore closed no window", label)
			}

			second, err := NewParallelPartitioned(specs, workers, Options{OnResult: log.sink})
			must(t, err)
			must(t, second.Restore(snap))
			must(t, second.FeedBatch(stream[cut:]))
			must(t, second.Flush())
			assertSameEmission(t, ref.results(), log.results(), label)
		}
	})
}

// dynFixture builds a dynamic executor whose rates drift hard enough to
// migrate mid-stream (tight check interval, tiny threshold).
func dynFixture(t *testing.T) (query.Workload, event.Stream, core.Rates, DynamicConfig) {
	t.Helper()
	w, stream, _ := parallelFixture(t, 5, 6000, 13, true)
	rates := core.Rates{}
	for tp := range query.Workload(w).Types() {
		rates[tp] = 1
	}
	cfg := DynamicConfig{
		CheckEvery:      500,
		DriftThreshold:  0.05,
		OptimizerBudget: time.Second,
	}
	return w, stream, rates, cfg
}

// TestDynamicSnapshotRestoreEquivalence cuts a dynamic run — including a
// cut taken mid-migration, with a draining engine live — and requires
// the restored run to emit identically and migrate at the same points.
func TestDynamicSnapshotRestoreEquivalence(t *testing.T) {
	w, stream, rates, cfg := dynFixture(t)

	refLog := &emissionLog{}
	refCfg := cfg
	refCfg.Options = Options{OnResult: refLog.sink}
	ref, err := NewDynamic(w, rates, refCfg)
	must(t, err)
	runAll(t, ref, stream)
	if ref.Migrations == 0 {
		t.Fatal("fixture never migrated; the test needs plan churn")
	}

	// Find a cut where a draining engine is live, plus fixed cuts.
	probeCfg := cfg
	probe, err := NewDynamic(w, rates, probeCfg)
	must(t, err)
	midMigration := -1
	for i, e := range stream {
		must(t, probe.Process(e))
		if probe.draining != nil && midMigration < 0 {
			midMigration = i + 1
		}
	}
	cuts := []int{len(stream) / 3, len(stream) / 2}
	if midMigration > 0 {
		cuts = append(cuts, midMigration)
	}

	for _, cut := range cuts {
		log := &emissionLog{}
		firstCfg := cfg
		firstCfg.Options = Options{OnResult: log.sink}
		first, err := NewDynamic(w, rates, firstCfg)
		must(t, err)
		for _, e := range stream[:cut] {
			must(t, first.Process(e))
		}
		snap := mustSnap(t, first)

		second, err := NewDynamic(w, rates, firstCfg)
		must(t, err)
		must(t, second.Restore(snap))
		for _, e := range stream[cut:] {
			must(t, second.Process(e))
		}
		must(t, second.Flush())
		assertSameEmission(t, refLog.results(), log.results(), "dynamic cut")
		if want, got := ref.Migrations, snap.Dynamic.Migrations+countMigrationsAfter(second, snap); want != got {
			t.Fatalf("migrations across cut = %d, want %d", got, want)
		}
	}
}

func countMigrationsAfter(d *Dynamic, snap *SystemSnapshot) int {
	return d.Migrations - snap.Dynamic.Migrations
}

// TestHotPathAllocsWithCheckpoint asserts the PR 2 zero-allocation budget
// survives durability: taking periodic engine snapshots between measured
// sections must leave the steady-state Process path allocation-free —
// checkpointing reads state off the hot path, it never changes it.
func TestHotPathAllocsWithCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs the full warm-up")
	}
	r := newHotPathRig(t)
	r.feed(t, hotPathWarmup)
	const chunk = 2000
	got := testing.AllocsPerRun(10, func() {
		r.feed(t, chunk)
	}) / chunk
	// Interleave snapshots with further measurement: the snapshot itself
	// allocates (it serializes state), but the subsequent processing must
	// stay on the zero-allocation path.
	for i := 0; i < 3; i++ {
		_, _ = r.en.Snapshot()
		after := testing.AllocsPerRun(5, func() { r.feed(t, chunk) }) / chunk
		if after > got {
			got = after
		}
	}
	t.Logf("steady-state allocs/event with checkpointing = %.4f", got)
	if got > maxHotPathAllocsPerEvent {
		t.Fatalf("allocs/event with checkpointing = %.4f, budget %.2f", got, maxHotPathAllocsPerEvent)
	}
}
