package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Fixed loopback addresses. The cluster's consistent-hash ring hashes node
// addresses, so ephemeral ports would move shards between nodes from run to
// run; with these addresses placement is the one recorded in
// wantHostedShards.
const (
	serveAddr  = "127.0.0.1:47480"
	routerAddr = "127.0.0.1:47481"
	node1Addr  = "127.0.0.1:47401"
	node2Addr  = "127.0.0.1:47402"

	clusterShards = 16 // the router's and nodes' default global shard count
	clusterRF     = 1
)

// wantHostedShards is the placement the ring gives the fixed node addresses
// (K=16, rf=1). A run fails if the router reports anything else.
var wantHostedShards = map[string]int{node1Addr: 9, node2Addr: 7}

const setupTimeout = 120 * time.Second

// procSet owns every server process a run starts. kill stops and reaps all
// of them; it is safe to call more than once and from a signal handler.
type procSet struct {
	bin    string
	logDir string

	mu    sync.Mutex
	procs []*proc
}

// proc is one started server; done closes once it has exited and been
// reaped by the goroutine that waits for it.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
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

func (ps *procSet) start(name string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(ps.logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(ps.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed server exits with an error status
		close(p.done)
	}()
	ps.procs = append(ps.procs, p)
	return p, nil
}

// kill SIGKILLs every live process and waits for each to exit.
func (ps *procSet) kill() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.procs {
		_ = p.cmd.Process.Kill() // fails only if it has already exited
		<-p.done
	}
	ps.procs = nil
}

// vmHWMMiB reads a process's peak resident set size.
func vmHWMMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// checkPortsFree fails fast when another process holds a fixed address.
func checkPortsFree(addrs ...string) error {
	for _, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			return fmt.Errorf("address %s is in use; the benchmark needs it free: %w", a, err)
		}
		ln.Close()
	}
	return nil
}

// pollUntil calls ready every millisecond until it succeeds, the process
// exits, or the set-up deadline passes.
func pollUntil(ctx context.Context, procs []*proc, what string, ready func() error) error {
	deadline := time.Now().Add(setupTimeout)
	for {
		err := ready()
		if err == nil {
			return nil
		}
		for _, p := range procs {
			if p.exited() {
				return fmt.Errorf("%s: server process exited before it was ready (see its log)", what)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not ready after %v: %w", what, setupTimeout, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func dialable(addr string) func() error {
	return func() error {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err != nil {
			return err
		}
		return c.Close()
	}
}

func healthy(cl *http.Client, base string) func() error {
	return func() error {
		resp, err := cl.Get(base + "/healthz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return errors.New(resp.Status)
		}
		return nil
	}
}
