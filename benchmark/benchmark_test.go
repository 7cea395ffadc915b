package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/cluster"
	"github.com/sharon-project/sharon/internal/persist"
	"github.com/sharon-project/sharon/internal/server"
)

func TestHighPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0.90}, {99, 0.90}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {1_000_000, 0.99}} {
		if got := highPercentile(c.n); got != c.want {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := quantile(sorted, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := quantile(sorted, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestStretchTailIgnoresOneStall(t *testing.T) {
	calm := make([]float64, 500)
	for i := range calm {
		calm[i] = float64(100 + i%100)
	}
	if got := stretchTail(calm); got != 189 {
		t.Errorf("tail of five identical stretches = %v, want their p90, 189", got)
	}
	stalled := append([]float64(nil), calm...)
	for i := 100; i < 140; i++ {
		stalled[i] = 8000
	}
	if a, b := stretchTail(calm), stretchTail(stalled); a != b {
		t.Errorf("a stall in one stretch moved the tail from %v to %v", a, b)
	}
}

func TestShareWithinCountsMissingAsOver(t *testing.T) {
	if got := shareWithin([]float64{1, 2, 60}, 50, 4); got != 0.5 {
		t.Errorf("shareWithin = %v, want 0.5: one sample over the limit, one result missing", got)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "batch", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "send", Start: 10, End: 40, Parent: 0},
		{ID: 2, Name: "ack", Start: 30, End: 70, Parent: 0},  // overlaps send by 10
		{ID: 3, Name: "ack", Start: 90, End: 130, Parent: 0}, // sticks out of the parent by 30
		{ID: 4, Name: "io", Start: 35, End: 45, Parent: 2},
	}
	got := selfTimes(spans)
	want := map[string]int64{"batch": 100 - 60 - 10, "send": 30, "ack": (40 - 10) + 40, "io": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for _, s := range specs {
		d := s.def()
		a := inputDigest(s.newSource(d, 7), 20_000)
		b := inputDigest(s.newSource(d, 7), 20_000)
		c := inputDigest(s.newSource(d, 8), 20_000)
		if a != b {
			t.Errorf("%s: the same seed gave two different inputs", s.name)
		}
		if a == c {
			t.Errorf("%s: two seeds gave the same input", s.name)
		}
	}
}

func TestSourcesFillByIndex(t *testing.T) {
	for _, s := range specs {
		d := s.def()
		src := s.newSource(d, 3)
		whole := make([]sharon.Event, 3*batchSize)
		src.fill(whole, 0, 50)
		part := make([]sharon.Event, batchSize)
		src.fill(part, batchSize, 50)
		for i, e := range part {
			if e != whole[batchSize+i] {
				t.Fatalf("%s: batch 1 generated alone differs at event %d", s.name, i)
			}
		}
		for i, e := range whole {
			if e.Time != 50+int64(i)+1 {
				t.Fatalf("%s: event %d has tick %d", s.name, i, e.Time)
			}
			if e.Type < 1 || int(e.Type) > len(d.typeNames) {
				t.Fatalf("%s: event %d has type %d outside the workload's %d", s.name, i, e.Type, len(d.typeNames))
			}
		}
	}
}

func TestZipfSamplerShape(t *testing.T) {
	z := newZipf(churnKeys, churnZipfS)
	const n = 400_000
	counts := make([]int, churnKeys)
	for i := 0; i < n; i++ {
		counts[z.key(unit(mix(1, uint64(i))))]++
	}
	var norm float64
	for k := 1; k <= churnKeys; k++ {
		norm += 1 / math.Pow(float64(k), churnZipfS)
	}
	for _, k := range []int{0, 1, 9, 99} {
		want := float64(n) / math.Pow(float64(k+1), churnZipfS) / norm
		if got := float64(counts[k]); math.Abs(got-want) > 0.1*want+30 {
			t.Errorf("key %d drawn %v times, Zipf(%.1f) expects about %.0f", k, got, churnZipfS, want)
		}
	}
	if r := float64(counts[0]) / float64(counts[1]); math.Abs(r-math.Pow(2, churnZipfS)) > 0.15 {
		t.Errorf("key 0 over key 1 = %.3f, want about %.3f", r, math.Pow(2, churnZipfS))
	}
}

func TestPlanStartsEachPhasePastTheClosingWatermark(t *testing.T) {
	d := workloadDef{within: servedWithin, slide: servedSlide}
	phases := plan(d, []string{"a", "b"}, []int{1000, 512}, []int{0, 100})
	a, b := phases[0], phases[1]
	if a.closeWM != 1000/256*256+1024 {
		t.Errorf("closing watermark %d", a.closeWM)
	}
	if first := b.offset + int64(b.from) + 1; first != a.closeWM+1 {
		t.Errorf("phase b starts at tick %d, want %d", first, a.closeWM+1)
	}
	if d.closedBy(1023) != -1 || d.closedBy(1024) != 0 || d.closedBy(1279) != 0 || d.closedBy(1280) != 1 {
		t.Errorf("closedBy is off: windows close once a tick reaches their end")
	}
}

// stallIngest accepts every frame at once, except that one batch takes
// stall to be acknowledged. Accepted batches "emit" a result for every
// window they close straight into the subscriber, so delivery itself
// costs nothing and only the sender's schedule shapes the latencies.
type stallIngest struct {
	r       *servedRun
	at      int
	stall   time.Duration
	batches int
	closed  int64
}

func (s *stallIngest) send(events []sharon.Event, wm int64) (int, error) {
	if len(events) > 0 {
		if s.batches == s.at {
			time.Sleep(s.stall)
		}
		s.batches++
		wm = events[len(events)-1].Time
	}
	for hi := s.r.d.closedBy(wm); s.closed < hi; {
		s.closed++
		s.r.sub.result([]byte(fmt.Sprintf(`{"seq":%d,"query":0,"win":%d}`, s.closed, s.closed)), s.r.clock())
	}
	return 0, nil
}

func (s *stallIngest) close() {}

func TestLatencyIsTimedFromTheDueInstant(t *testing.T) {
	d := workloadDef{within: servedWithin, slide: servedSlide}
	const batches, stalledBatch = 160, 10
	const stall = 60 * time.Millisecond
	phases := plan(d, []string{"r1"}, []int{batches * batchSize}, []int{batchSize * 1000}) // one batch a millisecond
	windows := d.closedBy(phases[0].closeWM) + 2
	ref := &reference{hasResult: make([]bool, windows), count: windows - 1, phaseCount: []int64{windows - 1}}
	for i := range ref.hasResult {
		ref.hasResult[i] = true
	}
	r := &servedRun{d: d, src: servedSource{seed: 1}, ref: ref, t0: time.Now(),
		due: make([]int64, windows), ack: make([]int64, windows), closed: -1, buf: make([]sharon.Event, batchSize)}
	r.sub = &subscriber{clock: r.clock, recv: make([]atomic.Int64, windows), done: make(chan struct{}), h: sha256.New()}
	r.ing = &stallIngest{r: r, at: stalledBatch, stall: stall, closed: -1}
	st, err := r.run(phases[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each batch closes two windows. The stalled batch's own windows see
	// the stall; the batches right after it were due during the stall,
	// went out late, and must be charged the wait although their own
	// send-to-delivery time was nil.
	firstAfter := (stalledBatch + 1) * 2
	behind := st.latMs[firstAfter]
	if behind < 0.8*float64(stall.Milliseconds()) {
		t.Errorf("window closed by the batch due during the stall: latency %.1f ms, want most of the %v stall", behind, stall)
	}
	if st.delivMs[firstAfter] > 5 {
		t.Errorf("the same window's ack-to-delivery span is %.1f ms; the stall belongs to the schedule, not to delivery", st.delivMs[firstAfter])
	}
	if early := st.latMs[2]; early > 20 {
		t.Errorf("a window before the stall took %.1f ms", early)
	}
	if late := st.lagMs[stalledBatch+1]; late < 0.8*float64(stall.Milliseconds()) {
		t.Errorf("the generator reports %.1f ms lateness for the batch after the stall", late)
	}
	if last := st.latMs[len(st.latMs)-1]; last > behind/2 {
		t.Errorf("the schedule never caught up: last window %.1f ms", last)
	}
}

func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != calibratedSeconds {
		t.Errorf("run_seconds %d, the counts are calibrated for %d", doc.RunSeconds, calibratedSeconds)
	}
	if len(doc.Workloads) != len(specs) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(specs), len(endToEnd), len(perLayer))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}
	for i, m := range doc.EndToEnd {
		want := endToEnd[i]
		better := map[bool]string{true: "lower", false: "higher"}[want.lower]
		if m.Name != want.name || m.Unit != want.unit || m.Bound != want.bound || m.Better != better {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, m, want)
		}
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, m, perLayer[i])
		}
	}
}

// smokeSeconds makes every frozen count a hundredth of a calibrated run.
const smokeSeconds = calibratedSeconds / 100.0

// TestSmokeEngineWorkloads runs the engine workloads' passes at 1/100
// size and checks the oracle. The greedy optimizer stands in for the
// default one, whose search alone outlasts a unit test on engine-shared.
func TestSmokeEngineWorkloads(t *testing.T) {
	for _, s := range specs {
		if !s.engine {
			continue
		}
		d := s.def()
		rig := engineRig{d: d, src: s.newSource(d, 5)}
		shared, w, _, err := rig.build(sharon.StrategyGreedy, nil)
		if err != nil {
			t.Fatal(err)
		}
		control, _, _, err := rig.build(sharon.StrategyNonShared, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := s.counts(smokeSeconds)
		cp := &checkpoint{win: d.closedBy(int64(warmupEvents + n.r1))}
		sh, ct, failed, notes, err := rig.capPasses(shared, control, w, n.cap, []*checkpoint{cp})
		if err != nil || failed != 0 {
			t.Fatalf("%s: closed loop: %v, %d failed %v", s.name, err, failed, notes)
		}
		if len(sh.segs) == 0 || len(sh.segs) != len(ct.segs) || speedup(ct, sh) <= 0 {
			t.Errorf("%s: %d Sharon and %d control segments", s.name, len(sh.segs), len(ct.segs))
		}
		es, _, _, err := rig.build(sharon.StrategySharon, shared.sys.Plan())
		if err != nil {
			t.Fatal(err)
		}
		lat, lag, failed, notes, err := rig.openLoop(es, w, n.r1, s.r1, cp)
		if err != nil || failed != 0 {
			t.Fatalf("%s: open loop: %v, %d failed %v", s.name, err, failed, notes)
		}
		if len(lat) == 0 || len(lag) != n.r1/batchSize {
			t.Errorf("%s: %d latency samples, %d lag samples for %d batches", s.name, len(lat), len(lag), n.r1/batchSize)
		}
	}
}

// localStage serves the workload from in-process servers behind real
// listeners: the smoke test's stand-in for sharond children.
type localStage struct {
	t       *testing.T
	cluster bool
	closers []func()
}

func (l *localStage) node(dataDir string) string {
	srv, err := server.New(server.Config{Queries: servedQueries, Parallelism: 1, DataDir: dataDir, Fsync: persist.FsyncNever})
	if err != nil {
		l.t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	l.closers = append(l.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx) // the test is over; a slow drain is not its subject
		ts.Close()
	})
	return ts.URL
}

func (l *localStage) start(context.Context, string) (clusterTarget, error) {
	if !l.cluster {
		url := l.node("")
		return clusterTarget{target: target{ingestURL: url, subURL: url, stream: true}}, nil
	}
	var ct clusterTarget
	var workers []cluster.WorkerSpec
	for i := 0; i < 2; i++ {
		dir := l.t.TempDir()
		url := l.node(dir)
		ct.workers = append(ct.workers, url)
		workers = append(workers, cluster.WorkerSpec{URL: url, DataDir: dir})
	}
	rt, err := cluster.New(cluster.Config{Workers: workers, Queries: servedQueries})
	if err != nil {
		return ct, err
	}
	ts := httptest.NewServer(rt.Handler())
	l.closers = append(l.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Drain(ctx)
		ts.Close()
	})
	ct.target = target{ingestURL: ts.URL, subURL: ts.URL}
	return ct, nil
}

func (l *localStage) startSolo(context.Context, string) (target, error) {
	url := l.node(l.t.TempDir())
	return target{ingestURL: url, subURL: url}, nil
}

func (l *localStage) stop() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
	l.closers = nil
}

// TestSmokeServedWorkloads runs the served workloads end to end at
// 1/100 size and checks every result against the reference; the cluster
// must reproduce the single node's reference byte for byte.
func TestSmokeServedWorkloads(t *testing.T) {
	sums := map[string][32]byte{}
	for _, s := range specs {
		if s.engine {
			continue
		}
		// Same rates and counts on both, so both face one reference.
		s.capPerSec, s.r1, s.r2 = 100_000, 100_000, 190_000
		o, err := servedEndToEnd(context.Background(), s, &localStage{t: t, cluster: s.cluster}, 5, smokeSeconds)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", s.name, o.Failed, o.Attempted, o.Notes)
		}
		for _, m := range []string{"setup_s", "events_per_s", "latency_p50_ms", "latency_tail_ms", "latency_tail_ms_r2", "sharing_speedup", "peak_live_states"} {
			if !(o.Metrics[m] > 0) {
				t.Errorf("%s: %s = %v", s.name, m, o.Metrics[m])
			}
		}
		d := s.def()
		n := s.counts(smokeSeconds)
		ref, err := referenceRun(d, s.newSource(d, 5), plan(d, []string{"warmup", "cap", "r1", "r2"},
			[]int{warmupEvents, n.cap, n.r1, n.r2}, []int{0, 0, s.r1, s.r2}))
		if err != nil {
			t.Fatal(err)
		}
		sums[s.name] = ref.sum
	}
	if sums["cluster-2w"] != sums["serve-stream"] {
		t.Errorf("cluster-2w and serve-stream were checked against different references")
	}
}

// TestSmokeTracedCluster drives the traced run, the one with the most
// moving parts, against in-process servers, and checks that every
// per-layer metric of the catalogue was produced.
func TestSmokeTracedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run replays every layer; -short keeps the end-to-end smoke")
	}
	s, err := specByName("cluster-2w")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o, err := servedTraced(context.Background(), s, &localStage{t: t, cluster: true}, 5, 1, dir+"/trace.json", dir)
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 0 {
		t.Errorf("%d operations failed: %v", o.Failed, o.Notes)
	}
	// In-process servers have no process CPU to read, so the figures
	// derived from it are absent here; run.sh supplies the build time.
	noCPU := map[string]bool{"driver.build_s": true, "server.residual_ns_per_event": true,
		"cluster.router_cpu_us_per_event": true, "cluster.worker_cpu_us_per_event": true, "cluster.overhead_ratio": true}
	for _, m := range perLayer {
		if _, ok := o.Metrics[m.name]; !ok && !noCPU[m.name] {
			t.Errorf("no value for %s", m.name)
		}
	}
	if _, err := os.Stat(dir + "/trace.json"); err != nil {
		t.Errorf("trace file: %v", err)
	}
}
