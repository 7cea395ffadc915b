package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/server"
)

func routerMetrics(t *testing.T, baseURL string) metrics.RouterStats {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st metrics.RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAutoScaleBand drives the elastic-membership loop end to end with
// no manual /cluster/workers call anywhere: an idle two-worker cluster
// scales itself in (all occupancy gauges below the low edge), the
// surviving worker's occupancy then crosses the high edge under load
// and the router joins the pre-provisioned standby on its own — and
// the merged result stream stays byte-identical to a single node fed
// the same input through both automatic rebalances.
func TestAutoScaleBand(t *testing.T) {
	const events, batch, groups = 16000, 512, 16

	ref := startNode(t, 1, t.TempDir())
	refSub := subscribe(t, ref.hs.URL)

	nodes := []*testNode{
		startNode(t, 1, t.TempDir()),
		startNode(t, 1, t.TempDir()),
	}
	standby := startNode(t, 1, t.TempDir())
	specs := make([]WorkerSpec, len(nodes))
	for i, n := range nodes {
		specs[i] = WorkerSpec{URL: n.hs.URL, DataDir: n.dir}
	}
	rt, err := New(Config{
		Workers:           specs,
		Queries:           server.DefaultQueries,
		HealthEvery:       50 * time.Millisecond,
		BarrierTimeout:    15 * time.Second,
		EdgeConfig:        server.EdgeConfig{HeartbeatEvery: time.Hour, Logger: testLogger(t)},
		Standby:           []WorkerSpec{{URL: standby.hs.URL, DataDir: standby.dir}},
		OccupancyHigh:     4,
		OccupancyLow:      1,
		AutoScaleEvery:    50 * time.Millisecond,
		AutoScaleCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Drain(ctx)
	})
	cluSub := subscribe(t, hs.URL)

	// Idle: every gauge sits at 0, below the low edge — the router must
	// drain one worker by itself (and stop there: scale-in never empties
	// the cluster below one member).
	waitFor(t, "idle scale-in", func() bool {
		st := routerMetrics(t, hs.URL)
		return st.AutoScaleIn >= 1 && len(st.Workers) == 1
	})

	// Load: ~16 live groups on the lone member crosses the high edge
	// (4); the router must join the standby with a full hash-range
	// hand-off, no POST /cluster/workers anywhere.
	for _, b := range genBatches(events, batch, groups) {
		post(t, hs.URL, b)
		post(t, ref.hs.URL, b)
	}
	waitFor(t, "loaded scale-out", func() bool {
		st := routerMetrics(t, hs.URL)
		return st.AutoScaleOut >= 1 && len(st.Workers) == 2 && st.StandbyWorkers == 0
	})
	st := routerMetrics(t, hs.URL)
	if st.Rebalances < 2 {
		t.Fatalf("rebalances = %d, want >= 2 (one per automatic membership change)", st.Rebalances)
	}
	if st.Error != "" {
		t.Fatalf("cluster error state: %s", st.Error)
	}

	// Equivalence across both automatic rebalances.
	finalWM := int64(events) + 4000
	postWatermark(t, hs.URL, finalWM)
	postWatermark(t, ref.hs.URL, finalWM)
	quiesce(t, refSub, 1)
	want := refSub.all()
	quiesce(t, cluSub, len(want))
	compareStreams(t, want, cluSub.all(), "autoscale")
}
