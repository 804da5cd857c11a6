package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"facc"
)

// killWithParent makes a child process die with the benchmark, so an
// interrupted run leaves no facc or faccd behind.
var killWithParent = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

// procStats is the kernel's account of one finished child process.
type procStats struct {
	cpu      time.Duration // user + system
	maxRSSKB int64
}

func statsOf(ps *os.ProcessState) procStats {
	st := procStats{cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		st.maxRSSKB = ru.Maxrss
	}
	return st
}

// selfCPU reads this process's CPU time, user + system.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU reads a running process's CPU time, user + system, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields start after the parenthesised command name, at field 3.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// resetPeakRSS restarts this process's peak-RSS count from its current
// RSS, so peakRSSMB covers only what follows. Where the kernel refuses,
// the peak stays the lifetime peak.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: peak RSS not reset, reporting the lifetime peak: %v\n", err)
	}
}

// peakRSSMB reads a process's peak RSS (VmHWM) in MiB; proc is "self" or
// a pid.
func peakRSSMB(proc string) float64 {
	data, err := os.ReadFile("/proc/" + proc + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// cliRun is one finished facc invocation.
type cliRun struct {
	wall    time.Duration
	stats   procStats
	adapter string // stdout on success
	reason  string // Fig. 8 reason on exit 1
}

// runCLI executes the facc binary once and decodes its outcome: exit 0
// prints the adapter on stdout, exit 1 names the failure reason on
// stderr, anything else is an error.
func runCLI(ctx context.Context, bin string, args ...string) (cliRun, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = killWithParent
	start := time.Now()
	err := cmd.Run()
	run := cliRun{wall: time.Since(start)}
	if cmd.ProcessState == nil {
		return run, fmt.Errorf("facc: %w", err)
	}
	run.stats = statsOf(cmd.ProcessState)
	switch code := cmd.ProcessState.ExitCode(); code {
	case 0:
		run.adapter = stdout.String()
	case 1:
		const marker = "no adapter synthesized: "
		line := stderr.String()
		i := strings.Index(line, marker)
		if i < 0 {
			return run, fmt.Errorf("facc exit 1 without a reason: %q", line)
		}
		run.reason, _, _ = strings.Cut(line[i+len(marker):], "\n")
	default:
		return run, fmt.Errorf("facc exit %d: %s", code, strings.TrimSpace(stderr.String()))
	}
	return run, nil
}

// daemon is one running faccd process. A reaper goroutine owns
// cmd.Wait and closes exited when the process is gone.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}
	base   string
	client *http.Client
}

// startDaemon execs faccd on store dir with extra flags and returns once
// /readyz answers 200, with the time from exec to that answer.
func startDaemon(bin, storeDir string, flags ...string) (*daemon, time.Duration, error) {
	addrFile := storeDir + ".addr"
	os.Remove(addrFile)
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-store", storeDir}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = io.Discard
	cmd.SysProcAttr = killWithParent
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("faccd: %w", err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	d := &daemon{cmd: cmd, exited: exited, client: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}}
	deadline := start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return nil, 0, fmt.Errorf("faccd exited during start-up: %v", cmd.ProcessState)
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := d.client.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(start), nil
				}
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	cmd.Process.Kill()
	<-exited
	return nil, 0, errors.New("faccd not ready within 30s")
}

// job is the daemon's wire form of a compile job (the fields the
// benchmark checks).
type job struct {
	State      string  `json:"state"`
	Function   string  `json:"function"`
	Sig        string  `json:"sig"`
	AdapterC   string  `json:"adapter_c"`
	FailReason string  `json:"fail_reason"`
	Error      string  `json:"error"`
	Cached     bool    `json:"cached"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// compile posts one request and waits for the finished job. hit reports
// whether the daemon answered from its adapter store.
func (d *daemon) compile(req facc.CompileRequest) (j job, hit bool, rtt time.Duration, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return j, false, 0, err
	}
	start := time.Now()
	resp, err := d.client.Post(d.base+"/compile?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return j, false, time.Since(start), err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	rtt = time.Since(start)
	if err != nil {
		return j, false, rtt, err
	}
	if resp.StatusCode != http.StatusOK {
		return j, false, rtt, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &j); err != nil {
		return j, false, rtt, err
	}
	return j, resp.Header.Get("X-Facc-Cache") == "hit", rtt, nil
}

// outcome returns the job as (adapter, reason) for pair.check.
func (j job) outcome() (string, string) {
	if j.State == "done" {
		return j.AdapterC, ""
	}
	if j.FailReason == "" {
		return "", "error: " + j.Error
	}
	return "", j.FailReason
}

// serveStatus is the serve block of faccd's /status.
type serveStatus struct {
	JobsAdmitted  int64 `json:"jobs_admitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsShed      int64 `json:"jobs_shed"`
	JobsDeduped   int64 `json:"jobs_deduped"`
	CacheHits     int64 `json:"cache_hits"`
}

// status scrapes the serve counters from /status.
func (d *daemon) status() (serveStatus, error) {
	var st struct {
		Serve serveStatus `json:"serve"`
	}
	resp, err := d.client.Get(d.base + "/status")
	if err != nil {
		return st.Serve, err
	}
	defer resp.Body.Close()
	return st.Serve, json.NewDecoder(resp.Body).Decode(&st)
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("faccd did not drain within 20s")
	}
	// faccd answers /readyz a moment before it installs its SIGTERM
	// handler, so a daemon stopped right after start-up may die of the
	// signal instead of draining; that is a clean stop too.
	ps := d.cmd.ProcessState
	if ws, ok := ps.Sys().(syscall.WaitStatus); !ps.Success() && !(ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM) {
		return fmt.Errorf("faccd: %v", ps)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
