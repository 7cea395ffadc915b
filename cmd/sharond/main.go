// Command sharond serves a Sharon workload over the network: batched
// NDJSON event ingestion with bounded-queue backpressure, push-based
// SSE result subscriptions fed as windows close, watermark punctuation
// for unbounded streams, live query registration (optimizer re-runs
// with plan diffs), /metrics, /healthz, and graceful drain on SIGTERM.
//
// With -data-dir the server is durable: applied ingest steps go to a
// CRC-framed write-ahead log before they reach the engine, the engine
// state is checkpointed on -checkpoint-interval, and a restart (crash
// or SIGTERM) recovers the exact serving state — subscriptions resume
// with /subscribe?after=<seq>, clients resume sending past the
// published watermark. /healthz reports "recovering" (503) while the
// WAL tail replays.
//
// Usage:
//
//	sharond                                  # default demo workload on :8080
//	sharond -addr :9000 -parallelism 4
//	sharond -data-dir /var/lib/sharond -fsync always
//	sharond -query 'RETURN COUNT(*) PATTERN SEQ(A, B) WHERE [k] WITHIN 4s SLIDE 1s' \
//	        -query 'RETURN COUNT(*) PATTERN SEQ(B, C) WHERE [k] WITHIN 4s SLIDE 1s'
//	sharond -queries-file workload.sase      # one query per line, # comments
//
// Cluster mode (-role router) turns sharond into the front of a fleet:
// events are consistent-hash partitioned by group key across N durable
// workers, watermarks fan out to all of them, and the workers' result
// streams merge back into the byte-identical single-node order. Workers
// are plain durable sharonds (-role worker is an alias of the default
// single-node role; the /cluster/* hand-off endpoints are always
// served):
//
//	sharond -role worker -addr :9001 -data-dir /var/lib/sharond-1 &
//	sharond -role worker -addr :9002 -data-dir /var/lib/sharond-2 &
//	sharond -role router -addr :8080 \
//	        -worker http://127.0.0.1:9001=/var/lib/sharond-1 \
//	        -worker http://127.0.0.1:9002=/var/lib/sharond-2
//
// See the README's "Running the server", "Durability & recovery", and
// "Clustering" sections for the wire formats and the rebalance
// protocol.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/sharon-project/sharon/internal/cluster"
	"github.com/sharon-project/sharon/internal/persist"
	"github.com/sharon-project/sharon/internal/server"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var queries multiFlag
	var workers multiFlag
	var (
		role        = flag.String("role", "single", "single | worker | router (worker is single with a cluster-facing name; router fronts a worker fleet)")
		addr        = flag.String("addr", ":8080", "listen address")
		queriesFile = flag.String("queries-file", "", "file with one query per line (# comments); overrides -query")
		parallelism = flag.Int("parallelism", 1, "engine shard workers (1 = sequential)")
		dynamic     = flag.Bool("dynamic", false, "re-optimize the sharing plan on rate drift (sharon.Options.Dynamic; needs a uniform workload)")
		adaptive    = flag.Bool("adaptive", false, "burst-adaptive sharing: share bursts, split valleys (implies -dynamic)")
		emitEmpty   = flag.Bool("emit-empty", false, "also push zero results for windows without matches")
		maxBatch    = flag.Int64("max-batch-bytes", 8<<20, "ingest request body limit")
		queue       = flag.Int("queue", 256, "ingest queue bound in batches (full queue = 429)")
		fanoutW     = flag.Int("fanout-writers", 0, "broadcast fan-out writer pool size (0 = default 4)")
		replayBuf   = flag.Int("replay-buffer", 16384, "retained results for /subscribe?after= resume")
		dataDir     = flag.String("data-dir", "", "enable durability: WAL + checkpoints under this directory")
		ckptEvery   = flag.Duration("checkpoint-interval", 10*time.Second, "periodic checkpoint interval (with -data-dir)")
		fsyncMode   = flag.String("fsync", "interval", "WAL fsync policy: always | interval | never")
		fsyncEvery  = flag.Duration("fsync-every", time.Second, "sync period for -fsync interval")
		walSegBytes = flag.Int64("wal-segment-bytes", 16<<20, "WAL segment rotation size")
		vnodes      = flag.Int("vnodes", 0, "router: consistent-hash virtual nodes per worker (0 = default)")
		healthEvery = flag.Duration("health-interval", 2*time.Second, "router: worker health probe interval")
		barrierTo   = flag.Duration("barrier-timeout", 30*time.Second, "router: rebalance barrier timeout")
		occHigh     = flag.Int64("occupancy-high", 0, "router: auto-join a standby worker when any member's live-group gauge exceeds this (0 disables autoscaling)")
		occLow      = flag.Int64("occupancy-low", 0, "router: auto-drain the least-occupied worker when every member's gauge is below this (0 disables scale-in)")
		scaleEvery  = flag.Duration("autoscale-interval", 0, "router: occupancy evaluation interval (0 = health probe interval)")
		scaleCool   = flag.Duration("autoscale-cooldown", 15*time.Second, "router: minimum spacing between autoscale operations")
		verbose     = flag.Bool("v", false, "log operational events")
		logFormat   = flag.String("log-format", "text", "operational log format with -v: text | json")
		debugAddr   = flag.String("debug-addr", "", "serve pprof and /debug/traces on this separate address (e.g. localhost:6060); empty disables")
	)
	var standby multiFlag
	flag.Var(&queries, "query", "query text (repeatable)")
	flag.Var(&workers, "worker", "router: worker base URL, optionally url=data-dir (repeatable; data-dir enables dead-worker recovery)")
	flag.Var(&standby, "standby", "router: pre-provisioned fresh worker the autoscaler may join, url[=data-dir] (repeatable; requires -occupancy-high)")
	flag.Parse()

	if *queriesFile != "" {
		data, err := os.ReadFile(*queriesFile)
		if err != nil {
			log.Fatalf("sharond: %v", err)
		}
		queries = nil
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line != "" && !strings.HasPrefix(line, "#") {
				queries = append(queries, line)
			}
		}
	}
	if len(queries) == 0 {
		queries = server.DefaultQueries
	}
	var logger *slog.Logger // nil discards operational logs
	if *verbose {
		logger = buildLogger(*logFormat)
	}

	switch *role {
	case "single", "worker":
	case "router":
		if len(workers) == 0 {
			log.Fatal("sharond: -role router requires at least one -worker url[=data-dir]")
		}
		specs := make([]cluster.WorkerSpec, len(workers))
		for i, w := range workers {
			url, dir, _ := strings.Cut(w, "=")
			specs[i] = cluster.WorkerSpec{URL: strings.TrimSuffix(url, "/"), DataDir: dir}
		}
		standbySpecs := make([]cluster.WorkerSpec, len(standby))
		for i, w := range standby {
			url, dir, _ := strings.Cut(w, "=")
			standbySpecs[i] = cluster.WorkerSpec{URL: strings.TrimSuffix(url, "/"), DataDir: dir}
		}
		cfg := cluster.Config{
			Workers: specs,
			Queries: queries,
			VNodes:  *vnodes,
			EdgeConfig: server.EdgeConfig{
				MaxBatchBytes: *maxBatch,
				IngestQueue:   *queue,
				ReplayBuffer:  *replayBuf,
				FanoutWriters: *fanoutW,
				Logger:        logger,
			},
			HealthEvery:       *healthEvery,
			BarrierTimeout:    *barrierTo,
			Standby:           standbySpecs,
			OccupancyHigh:     *occHigh,
			OccupancyLow:      *occLow,
			AutoScaleEvery:    *scaleEvery,
			AutoScaleCooldown: *scaleCool,
		}
		rt, err := cluster.New(cfg)
		if err != nil {
			log.Fatalf("sharond: %v", err)
		}
		startDebug(*debugAddr, rt.Handler())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		fmt.Fprintf(os.Stderr, "sharond: routing %d queries across %d workers on %s\n",
			len(queries), len(specs), *addr)
		if err := rt.ListenAndServe(ctx, addr2(*addr)); err != nil {
			log.Fatalf("sharond: %v", err)
		}
		fmt.Fprintln(os.Stderr, "sharond: router drained, bye")
		return
	default:
		log.Fatalf("sharond: unknown -role %q (single | worker | router)", *role)
	}

	fsync, err := persist.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		log.Fatalf("sharond: %v", err)
	}
	cfg := server.Config{
		Queries:         queries,
		Parallelism:     *parallelism,
		Dynamic:         *dynamic,
		Adaptive:        *adaptive,
		EmitEmpty:       *emitEmpty,
		MaxBatchBytes:   *maxBatch,
		IngestQueue:     *queue,
		FanoutWriters:   *fanoutW,
		ReplayBuffer:    *replayBuf,
		Logger:          logger,
		DataDir:         *dataDir,
		CheckpointEvery: *ckptEvery,
		Fsync:           fsync,
		FsyncEvery:      *fsyncEvery,
		WALSegmentBytes: *walSegBytes,
	}
	s, err := server.New(cfg)
	if err != nil {
		log.Fatalf("sharond: %v", err)
	}
	startDebug(*debugAddr, s.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "sharond: serving %d queries on %s (parallelism %d)\n",
		len(queries), *addr, *parallelism)
	if err := s.ListenAndServe(ctx, addr2(*addr)); err != nil {
		log.Fatalf("sharond: %v", err)
	}
	fmt.Fprintln(os.Stderr, "sharond: drained, bye")
}

// addr2 normalizes a bare port to a listen address.
func addr2(a string) string {
	if !strings.Contains(a, ":") {
		return ":" + a
	}
	return a
}

// buildLogger constructs the -v structured logger in the chosen
// format, at debug level so per-connection stream logs are visible.
func buildLogger(format string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: slog.LevelDebug}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts))
	default:
		log.Fatalf("sharond: unknown -log-format %q (text | json)", format)
		return nil
	}
}

// startDebug serves the profiling surface on its own listener, kept
// off the data-plane address so an operator can firewall it
// separately: the stdlib pprof handlers plus the app's /debug/traces
// and /metrics forwarded for one-stop debugging.
func startDebug(addr string, app http.Handler) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", app)
	mux.Handle("/metrics", app)
	go func() {
		fmt.Fprintf(os.Stderr, "sharond: debug listener (pprof, traces) on %s\n", addr)
		if err := http.ListenAndServe(addr2(addr), mux); err != nil {
			log.Printf("sharond: debug listener: %v", err)
		}
	}()
}
