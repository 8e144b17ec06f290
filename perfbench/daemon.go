package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one apspd child process, started with default flags on a
// loopback port, and the HTTP client that drives it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	log    *logWatcher
	exited chan error // receives cmd.Wait's result once the process ends
	ended  bool
}

// logWatcher is the daemon's stderr. It hands over the listen address from
// apspd's start-up line and keeps the log's tail for error reports.
type logWatcher struct {
	mu   sync.Mutex
	buf  []byte
	tail []byte
	addr chan string // buffered 1; receives the address once
}

func (w *logWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tail = append(w.tail, p...)
	if len(w.tail) > 4096 {
		w.tail = w.tail[len(w.tail)-4096:]
	}
	if w.addr == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		line, rest, ok := bytes.Cut(w.buf, []byte("\n"))
		if !ok {
			break
		}
		w.buf = rest
		if _, after, found := strings.Cut(string(line), "apspd listening on "); found {
			addr, _, _ := strings.Cut(after, " ")
			w.addr <- addr
			w.addr, w.buf = nil, nil
			break
		}
	}
	return len(p), nil
}

func (w *logWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(bytes.TrimSpace(w.tail))
}

// startDaemon starts apspd and waits until it reports its address.
func startDaemon(path string) (*daemon, error) {
	if path == "" {
		return nil, errors.New("no apspd binary given (-apspd)")
	}
	addr := make(chan string, 1)
	d := &daemon{
		cmd:    exec.Command(path, "-addr", "127.0.0.1:0"),
		log:    &logWatcher{addr: addr},
		exited: make(chan error, 1),
	}
	d.cmd.Stderr = d.log
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start apspd: %w", err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.exited:
		d.ended = true
		return nil, fmt.Errorf("apspd exited during start-up (%v): %s", err, d.log)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("apspd did not report its address within 30s")
	}
	d.client = &http.Client{
		Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 2},
		Timeout:   120 * time.Second,
	}
	return d, nil
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	if d.ended {
		return
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // same
		<-d.exited
	}
	d.ended = true
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("apspd not ready within 30s (last error %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// post sends one JSON request and decodes a 200 response into out. The
// returned duration runs from sending the request to reading the whole
// response body; decoding is not timed.
func (d *daemon) post(path string, body []byte, out any) (time.Duration, error) {
	t0 := time.Now()
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dt := time.Since(t0)
	if err != nil {
		return dt, fmt.Errorf("POST %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return dt, fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return dt, fmt.Errorf("POST %s: %w", path, err)
	}
	return dt, nil
}

// metrics scrapes /metrics into series name -> value.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
