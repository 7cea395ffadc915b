package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
// fixed at 100 on Linux).
const clockTick = 10 * time.Millisecond

// fleet owns every child process and scratch directory of a run, so one
// call removes them all on exit or on a signal.
type fleet struct {
	mu    sync.Mutex
	procs []*proc
	dirs  []string
}

type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
}

// spawn starts a child with its output in logPath. Pdeathsig makes the
// kernel kill the child if the driver dies without running cleanup.
func (f *fleet) spawn(name, logPath, bin string, args ...string) (*proc, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no news
		close(p.done)
	}()
	f.mu.Lock()
	f.procs = append(f.procs, p)
	f.mu.Unlock()
	return p, nil
}

// scratch creates a directory that stop removes.
func (f *fleet) scratch(path string) error {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return err
	}
	f.mu.Lock()
	f.dirs = append(f.dirs, path)
	f.mu.Unlock()
	return nil
}

// kill ends every child and waits until each has exited.
func (f *fleet) kill() {
	f.mu.Lock()
	procs := f.procs
	f.procs = nil
	f.mu.Unlock()
	for _, p := range procs {
		_ = p.cmd.Process.Kill() // already-exited children report an error nobody needs
	}
	for _, p := range procs {
		<-p.done
		p.log.Close()
	}
}

// stop kills the children and removes the scratch directories. Safe to
// call more than once.
func (f *fleet) stop() {
	f.kill()
	f.mu.Lock()
	dirs := f.dirs
	f.dirs = nil
	f.mu.Unlock()
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// cpu reads the child's user+system CPU time so far.
func (p *proc) cpu() (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.pid()), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("%s: malformed stat", p.name)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: malformed stat times", p.name)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS reads a process's resident-set high-water mark in MB.
func peakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM", pid)
}

// selfCPU is the driver's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// freePort finds a listenable loopback port, scanning up from base.
// Starting every run at the same base keeps the workers' URLs, and with
// them the router's consistent-hash partition, the same from run to run.
func freePort(base int) (int, error) {
	for p := base; p < base+200; p++ {
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err == nil {
			l.Close()
			return p, nil
		}
	}
	return 0, fmt.Errorf("no free port in [%d, %d)", base, base+200)
}

// waitHealthy polls /healthz until it answers 200, the child exits, or
// the deadline passes.
func waitHealthy(ctx context.Context, p *proc, baseURL string) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up (see its log)", p.name)
		}
		req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s: not healthy after 20s", baseURL)
}
