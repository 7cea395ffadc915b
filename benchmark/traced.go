package main

import (
	"context"
	"fmt"
)

// servedTraced is the --trace 1 run of a served workload: the closed
// loop once without and once with client-side spans, a short open loop
// at r1 with spans, for cluster-2w the direct-to-worker comparisons, and
// then the isolated layer replays.
func servedTraced(ctx context.Context, s spec, st stage, seed uint64, seconds float64, tracePath, outDir string) (*outcome, error) {
	d := s.def()
	src := s.newSource(d, seed)
	n := s.counts(seconds)
	capN, r1N := n.cap/5/batchSize*batchSize, n.r1/3/batchSize*batchSize
	phases := plan(d,
		[]string{"warmup", "cap", "cap-traced", "r1-traced"},
		[]int{warmupEvents, capN, capN, r1N},
		[]int{0, 0, 0, s.r1})
	ref, err := referenceRun(d, src, phases)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	m := o.Metrics
	tr := newTracer()
	defer st.stop()
	tgt, err := st.start(ctx, "traced")
	if err != nil {
		return nil, err
	}
	run, err := connect(tgt.target, d, src, ref, nil)
	if err != nil {
		return nil, err
	}
	// Warm-up and the plain closed loop, then the same loop with spans,
	// then (with the workers' own result streams attached, for the merge
	// wait) the open loop with spans.
	var stats []phaseStats
	var workerSubs []*subscriber
	for _, part := range [][]phase{phases[:2], phases[2:3], phases[3:]} {
		if part[0].index == 2 {
			run.tr = tr
		}
		if part[0].index == 3 {
			for _, url := range tgt.workers {
				ws, err := subscribe(newHTTPClient(), url, len(ref.hasResult), run.clock)
				if err != nil {
					run.disconnect()
					return nil, err
				}
				workerSubs = append(workerSubs, ws)
			}
		}
		ps, err := run.runAll(part, tgt.procs, o)
		if err != nil {
			run.disconnect()
			return nil, err
		}
		stats = append(stats, ps...)
	}
	run.disconnect()
	for _, ws := range workerSubs {
		ws.stop()
	}
	failed, notes := run.verdict()
	o.fail(failed, notes...)
	st.stop()

	plain, traced, r1 := stats[1], stats[2], stats[3]
	m["trace.cpu_us_per_event"] = plain.cpu * 1e6 / float64(plain.events)
	m["trace.overhead_share"] = 1 - (float64(traced.events)/traced.elapsed)/(float64(plain.events)/plain.elapsed)
	capMetrics(m, plain)
	m["driver.sched_lag_p99_ms"] = quantileOf(r1.lagMs, 0.99)
	m["server.ack_ms_p50"], m["server.ack_ms_p99"] = quantileOf(r1.ackMs, 0.5), quantileOf(r1.ackMs, 0.99)
	m["server.deliver_ms_p50"], m["server.deliver_ms_p99"] = quantileOf(r1.delivMs, 0.5), quantileOf(r1.delivMs, 0.99)

	if s.cluster {
		// procs[0] is the router, the rest are workers.
		for i, c := range plain.cpuBy {
			name := "cluster.worker_cpu_us_per_event"
			if i == 0 {
				name = "cluster.router_cpu_us_per_event"
			}
			m[name] += c * 1e6 / float64(plain.events)
		}
		if m["cluster.partition_skew"], err = partitionSkew(src, layerEvents, tgt.workers); err != nil {
			return nil, err
		}
		var waits []float64
		for k := d.closedBy(phases[2].closeWM) + 1; k <= d.closedBy(phases[3].lastTick()); k++ {
			var latest int64
			for _, ws := range workerSubs {
				latest = max(latest, ws.recv[k].Load())
			}
			if at := run.sub.recv[k].Load(); at != 0 && latest != 0 {
				waits = append(waits, float64(max(at-latest, 0))/1e6)
			}
		}
		m["cluster.merge_wait_ms_p99"] = quantileOf(waits, 0.99)

		// One durable worker on its own, driven with the same request
		// bodies: what the same events cost without the cluster around them.
		solo, err := st.startSolo(ctx, "solo")
		if err != nil {
			return nil, err
		}
		soloRef, err := referenceRun(d, src, phases[:2])
		if err != nil {
			return nil, err
		}
		soloRun, err := connect(solo, d, src, soloRef, nil)
		if err != nil {
			return nil, err
		}
		soloStats, err := soloRun.runAll(phases[:2], solo.procs, o)
		if err != nil {
			soloRun.disconnect()
			return nil, err
		}
		soloCap := soloStats[1]
		soloRun.disconnect()
		failed, notes := soloRun.verdict()
		o.fail(failed, notes...)
		st.stop()
		m["cluster.single_node_cpu_us_per_event"] = soloCap.cpu * 1e6 / float64(soloCap.events)
		if soloCap.cpu > 0 {
			m["cluster.overhead_ratio"] = m["trace.cpu_us_per_event"] / m["cluster.single_node_cpu_us_per_event"]
		}
	}

	if err := layerReplays(s, d, src, outDir, o, tr); err != nil {
		return nil, err
	}
	finishTraceMetrics(s, o, tr)
	if err := tr.write(tracePath); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	return o, nil
}

// finishTraceMetrics derives the figures that combine the traced run
// with the layer replays: the span count, each span name's self time,
// and the residual, the part of the system's CPU per event that no
// replayed layer accounts for (HTTP, framing, queueing, scheduling).
func finishTraceMetrics(s spec, o *outcome, tr *tracer) {
	m := o.Metrics
	m["trace.spans"] = float64(len(tr.spans))
	for name, total := range selfTimes(tr.spans) {
		m["self."+name+"_ms"] = float64(total) / 1e6
	}
	if m["trace.cpu_us_per_event"] == 0 {
		return // in-process target: no process CPU to apportion
	}
	// The layers on this workload's path, each times its count per event.
	perEvent := m["exec.engine_ns_per_event"]
	if !s.engine {
		perEvent += m["server.decode_stream_ns_per_event"] +
			m["exec.results_per_event"]*(m["server.encode_ns_per_result"]+m["server.hub_publish_ns_per_frame"])
	}
	if s.cluster {
		// Router and worker both decode and both publish; the worker logs.
		perEvent += m["server.decode_stream_ns_per_event"] + m["persist.wal_append_ns_per_event"] +
			m["exec.results_per_event"]*m["server.hub_publish_ns_per_frame"]
	}
	m["server.residual_ns_per_event"] = m["trace.cpu_us_per_event"]*1e3 - perEvent
}
