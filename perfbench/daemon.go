package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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
	"syscall"
	"time"
)

// procs tracks every daemon the benchmark started so that each exit path —
// normal return, error, signal, or the run watchdog — can kill them.
var procs struct {
	sync.Mutex
	live map[*daemon]bool
}

// daemon is one started ssspd or ssspr process.
type daemon struct {
	name string
	addr string // host:port it listens on
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been reaped
}

func (d *daemon) url() string { return "http://" + d.addr }

// startDaemon launches bin with args in dir, its output going to a log file
// in logDir. The child is killed if the benchmark process dies
// (Pdeathsig), so a crashed run cannot leak daemons.
func startDaemon(name, bin, dir, logDir, addr string, args ...string) (*daemon, error) {
	lf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, addr: addr, cmd: cmd, log: lf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: we stop daemons ourselves
		lf.Close()
		close(d.done)
	}()
	procs.Lock()
	if procs.live == nil {
		procs.live = map[*daemon]bool{}
	}
	procs.live[d] = true
	procs.Unlock()
	return d, nil
}

// stop asks the daemon to drain (SIGTERM) and kills it if it has not exited
// within grace; it returns once the process has been reaped.
func (d *daemon) stop(grace time.Duration) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(grace):
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
		<-d.done
	}
	procs.Lock()
	delete(procs.live, d)
	procs.Unlock()
}

// killAll kills every live daemon and waits for each to be reaped.
func killAll() {
	procs.Lock()
	ds := make([]*daemon, 0, len(procs.live))
	for d := range procs.live {
		ds = append(ds, d)
	}
	procs.live = nil
	procs.Unlock()
	for _, d := range ds {
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	}
	for _, d := range ds {
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
		}
	}
}

// exited reports whether the daemon has died, with the tail of its log.
func (d *daemon) exited() (bool, string) {
	select {
	case <-d.done:
		b, _ := os.ReadFile(d.log.Name())
		if len(b) > 2000 {
			b = b[len(b)-2000:]
		}
		return true, string(b)
	default:
		return false, ""
	}
}

// waitHealthy polls /healthz until the daemon answers 200.
func waitHealthy(ctx context.Context, hc *http.Client, d *daemon) error {
	for {
		if dead, tail := d.exited(); dead {
			return fmt.Errorf("%s exited during start-up:\n%s", d.name, tail)
		}
		resp, err := hc.Get(d.url() + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", d.name, ctx.Err())
		case <-time.After(3 * time.Millisecond):
		}
	}
}

// adminPost posts a JSON body to an admin endpoint and decodes the reply.
func adminPost(hc *http.Client, url string, body any, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s reply: %w", url, err)
		}
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return resp.StatusCode, nil
}

// waitGraphsReady polls GET /graphs until every named graph is ready.
func waitGraphsReady(ctx context.Context, hc *http.Client, d *daemon, names []string) error {
	for {
		var doc struct {
			Graphs []struct {
				Name  string `json:"name"`
				State string `json:"state"`
				Error string `json:"error"`
			} `json:"graphs"`
		}
		resp, err := hc.Get(d.url() + "/graphs")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
		}
		if err != nil {
			return fmt.Errorf("%s /graphs: %w", d.name, err)
		}
		ready := 0
		for _, g := range doc.Graphs {
			for _, n := range names {
				if g.Name != n {
					continue
				}
				switch g.State {
				case "ready":
					ready++
				case "failed":
					return fmt.Errorf("%s: graph %s failed to load: %s", d.name, n, g.Error)
				}
			}
		}
		if ready == len(names) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: graphs %v not ready: %w", d.name, names, ctx.Err())
		case <-time.After(3 * time.Millisecond):
		}
	}
}

// rssMB reads one resident-set field of /proc/<pid>/status ("VmRSS:" or
// "VmHWM:") in MiB.
func rssMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != field {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// sampleRSS samples the process's VmRSS every period until the returned
// function is called, which returns the samples in MiB.
func sampleRSS(pid int, period time.Duration) func() []float64 {
	stop := make(chan struct{})
	done := make(chan []float64, 1)
	go func() {
		var out []float64
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- out
				return
			case <-t.C:
				if v, err := rssMB(pid, "VmRSS:"); err == nil {
					out = append(out, v)
				}
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}

// freePorts reserves n distinct loopback ports. Each is checked by binding
// it; the listeners are closed just before the daemons bind them.
func freePorts(n int) ([]string, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("no free loopback port: %w", err)
		}
		ls = append(ls, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}
