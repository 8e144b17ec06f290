package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runRecord identifies the host and the code behind one run. It is printed
// beside the metrics so a noisy verdict can be traced to the host.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Scenario   string             `json:"scenario"`
	Trace      bool               `json:"trace"`
	Host       string             `json:"host"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go"`
	Commit     string             `json:"commit"`
	SourceHash string             `json:"source_sha256"`
	Counters   any                `json:"counters,omitempty"`
	Samples    map[string]int     `json:"samples"`
	OpMS       []float64          `json:"op_ms,omitempty"`
	DriftPre   drift              `json:"drift_before"`
	DriftPost  drift              `json:"drift_after"`
	Requests   map[string]float64 `json:"requests_ms,omitempty"`
	Overhead   map[string]float64 `json:"trace_overhead_ms,omitempty"`
	SelfMS     map[string]float64 `json:"self_ms,omitempty"`
}

func newRunRecord(workload string, seed int64, trace bool) *runRecord {
	host, _ := os.Hostname() // an unnamed host is recorded as ""
	return &runRecord{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Host:       host,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		SourceHash: sourceHash("."),
		Samples:    make(map[string]int),
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git work
// tree (the source hash identifies the code either way).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root, skipping
// hidden directories (build outputs live in one).
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB returns VmHWM of process pid (0 = this process) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM in %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// drift is the host-drift diagnostic: a fixed compute loop and a fixed
// random-access memory loop, timed in a child process so their memory never
// counts toward the workload's peak RSS.
type drift struct {
	ComputeMS float64 `json:"compute_ms"`
	MemoryMS  float64 `json:"memory_ms"`
}

// measureDrift runs this binary with -drift and returns its timings.
func measureDrift() (drift, error) {
	self, err := os.Executable()
	if err != nil {
		return drift{}, err
	}
	out, err := exec.Command(self, "-drift").Output()
	if err != nil {
		return drift{}, fmt.Errorf("drift loops: %w", err)
	}
	var d drift
	if err := json.Unmarshal(out, &d); err != nil {
		return drift{}, fmt.Errorf("drift loops: %w", err)
	}
	return d, nil
}

// driftLoops times the two fixed loops. The compute loop is register-bound
// xorshift; the memory loop chases one random cycle through 16 MiB, so most
// loads miss the caches.
func driftLoops() drift {
	var d drift
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<26; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d.ComputeMS = ms(time.Since(start))
	if x == 0 { // keeps the loop live
		d.ComputeMS = -1
	}

	const cells = 1 << 22 // 16 MiB of uint32
	next := make([]uint32, cells)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := cells - 1; i > 0; i-- { // Sattolo: one cycle through every cell
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	start = time.Now()
	p := uint32(0)
	for i := 0; i < cells/4; i++ {
		p = next[p]
	}
	d.MemoryMS = ms(time.Since(start))
	if p == 1<<31 {
		d.MemoryMS = -1
	}
	return d
}
