package main

// Child-process management: scand (and its fleet workers) run as
// subprocesses of the load generator, on free loopback ports, with their
// stderr captured under bench/out/. Every child is registered so that a
// normal exit, a failed run and SIGINT all stop and reap it.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// children tracks live subprocesses for the signal handler.
var children = struct {
	sync.Mutex
	procs map[*child]bool
}{procs: map[*child]bool{}}

// child is one started subprocess.
type child struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// startChild launches bin with args, stderr and stdout going to logPath.
func startChild(bin string, args, env []string, logPath string) (*child, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout, cmd.Stderr = log, log
	// The child dies with the benchmark even when the benchmark is killed
	// without a chance to clean up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, log: log, done: make(chan struct{})}
	children.Lock()
	children.procs[c] = true
	children.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries nothing
		close(c.done)
	}()
	return c, nil
}

// stop asks the child to shut down, kills it if it lingers, and returns
// once it has been reaped.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.log.Close()
	children.Lock()
	delete(children.procs, c)
	children.Unlock()
}

// stopAllChildren stops every live child; the signal handler and the
// failure paths of main call it.
func stopAllChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.procs))
	for c := range children.procs {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// handleSignals stops the children and exits when the benchmark is
// interrupted.
func handleSignals() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllChildren()
		os.Exit(130)
	}()
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitHealthy polls url/healthz until it answers 200, the child exits, or
// the budget runs out.
func waitHealthy(ctx context.Context, url string, c *child, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.done:
			return errors.New("scand exited before becoming healthy")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("scand at %s never became healthy: %v", url, err)
		}
	}
}

// daemonSpec says what kind of scand a workload runs against.
type daemonSpec struct {
	tenants bool // API-key admission on
	durable bool // -data-dir: blob store, registry manifest, KB WAL
	workers int  // loopback fleet workers joined to the daemon
}

// benchTenantKey is the API key of the one tenant tenanted daemons know;
// its limits are far above anything the load generator sends, so no
// request of a correct run is refused.
const benchTenantKey = "bench-key"

const benchTenants = `{"tenants":[{"name":"bench","key":"` + benchTenantKey + `","priority":"high",` +
	`"max_jobs":-1,"max_datasets":-1,"max_bytes":-1,"rate_per_sec":1000000,"burst":1000000}]}`

// launchDaemon starts scand (and spec.workers fleet workers) as
// subprocesses and returns once the daemon is healthy and every worker is
// on the roster.
func (e *env) launchDaemon(ctx context.Context, spec daemonSpec) (*target, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	e.launches++
	tag := fmt.Sprintf("%s-%d", e.workload, e.launches)
	nproc := runtime.NumCPU()
	args := []string{"-addr", addr, "-pool", strconv.Itoa(nproc), "-executors", "2", "-quiet"}
	childEnv := []string{"GOMAXPROCS=" + strconv.Itoa(nproc), "SCAN_TENANTS="}
	if spec.tenants {
		childEnv[1] = "SCAN_TENANTS=" + benchTenants
	}
	var dataDir string
	if spec.durable {
		if dataDir, err = os.MkdirTemp(e.out, "data-"+tag+"-"); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dataDir)
	}
	d, err := startChild(e.scand, args, childEnv, filepath.Join(e.out, "scand-"+tag+".log"))
	if err != nil {
		return nil, err
	}
	procs := []*child{d}
	t := &target{url: "http://" + addr}
	t.stop = func() {
		for i := len(procs) - 1; i >= 0; i-- {
			procs[i].stop()
		}
		if dataDir != "" {
			os.RemoveAll(dataDir)
		}
	}
	t.client = newClient(t.url, spec.tenants)
	if err := waitHealthy(ctx, t.url, d, 30*time.Second); err != nil {
		t.stop()
		return nil, err
	}
	for w := 0; w < spec.workers; w++ {
		wk, err := startChild(e.scand,
			[]string{"-role", "worker", "-join", t.url, "-name", fmt.Sprintf("w%d", w), "-pool", "1", "-quiet"},
			[]string{"GOMAXPROCS=1"}, filepath.Join(e.out, fmt.Sprintf("worker-%s-%d.log", tag, w)))
		if err != nil {
			t.stop()
			return nil, err
		}
		procs = append(procs, wk)
	}
	if err := waitWorkers(ctx, t.client, spec.workers); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}
