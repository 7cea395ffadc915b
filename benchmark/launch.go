package main

import (
	"context"
	"fmt"
	"path/filepath"
)

// launcher starts the real sharond binary as child processes, the way a
// deployment does, with logs and data under one run directory.
type launcher struct {
	sharond string // path of the built binary
	runDir  string // benchmark/out/<workload>-<pid>
	fleet   *fleet
}

// Port bases: each run scans up from the same base, so worker URLs, the
// ring built from them, and so the partition are stable across runs.
const (
	portSingle = 39210
	portRouter = 39220
	portWorker = 39230
)

func queryArgs(queries []string) []string {
	var args []string
	for _, q := range queries {
		args = append(args, "-query", q)
	}
	return args
}

// single starts one memory-only sequential sharond.
func (l *launcher) single(ctx context.Context, tag string) (target, error) {
	port, err := freePort(portSingle)
	if err != nil {
		return target{}, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-parallelism", "1"}, queryArgs(servedQueries)...)
	p, err := l.fleet.spawn("sharond", filepath.Join(l.runDir, tag+".log"), l.sharond, args...)
	if err != nil {
		return target{}, err
	}
	url := "http://" + addr
	if err := waitHealthy(ctx, p, url); err != nil {
		return target{}, err
	}
	return target{ingestURL: url, subURL: url, stream: true, procs: []*proc{p}}, nil
}

// worker starts one durable sequential sharond. fsync never keeps WAL
// CPU and write syscalls on the path without waiting on the device.
func (l *launcher) worker(ctx context.Context, tag string, port int) (*proc, string, string, error) {
	dir := filepath.Join(l.runDir, tag)
	if err := l.fleet.scratch(dir); err != nil {
		return nil, "", "", err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-role", "worker", "-addr", addr, "-parallelism", "1", "-data-dir", dir, "-fsync", "never"}, queryArgs(servedQueries)...)
	p, err := l.fleet.spawn(tag, filepath.Join(l.runDir, tag+".log"), l.sharond, args...)
	if err != nil {
		return nil, "", "", err
	}
	url := "http://" + addr
	return p, url, dir, waitHealthy(ctx, p, url)
}

// clusterTarget is a router's target plus its workers' URLs, for the
// traced run's direct-to-worker comparisons.
type clusterTarget struct {
	target
	workers []string
}

// cluster starts two durable workers and a router in front of them.
// procs[0] is the router.
func (l *launcher) cluster(ctx context.Context, tag string) (clusterTarget, error) {
	var ct clusterTarget
	var workerProcs []*proc
	var specs []string
	port := portWorker
	for i := 1; i <= 2; i++ {
		p, err := freePort(port)
		if err != nil {
			return ct, err
		}
		port = p + 1
		wp, url, dir, err := l.worker(ctx, fmt.Sprintf("%s-w%d", tag, i), p)
		if err != nil {
			return ct, err
		}
		workerProcs = append(workerProcs, wp)
		ct.workers = append(ct.workers, url)
		specs = append(specs, "-worker", url+"="+dir)
	}
	rport, err := freePort(portRouter)
	if err != nil {
		return ct, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", rport)
	args := append(append([]string{"-role", "router", "-addr", addr}, specs...), queryArgs(servedQueries)...)
	rp, err := l.fleet.spawn("router", filepath.Join(l.runDir, tag+"-router.log"), l.sharond, args...)
	if err != nil {
		return ct, err
	}
	url := "http://" + addr
	if err := waitHealthy(ctx, rp, url); err != nil {
		return ct, err
	}
	ct.target = target{ingestURL: url, subURL: url, procs: append([]*proc{rp}, workerProcs...)}
	return ct, nil
}
