package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spacx/internal/obs"
)

// server is one running spacx-serve process.
type server struct {
	cmd    *exec.Cmd
	addr   string // host:port
	base   string // http://host:port
	stderr chan struct{}
	http   *http.Client
}

// startServer launches spacx-serve with its default flags on an
// ephemeral loopback port and returns once /readyz answers 200, with the
// time that took.
func startServer(bin string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, "-http", "127.0.0.1:0")
	// The server dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start spacx-serve: %w", err)
	}
	s := &server{cmd: cmd, stderr: make(chan struct{}), http: &http.Client{Timeout: 60 * time.Second}}
	addr := make(chan string, 1)
	go func() {
		defer close(s.stderr)
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving http://"); i >= 0 {
				rest := line[i+len("serving http://"):]
				if j := strings.IndexByte(rest, '/'); j > 0 {
					select {
					case addr <- rest[:j]:
					default:
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, errPipe)
	}()
	select {
	case a := <-addr:
		s.addr, s.base = a, "http://"+a
	case <-s.stderr:
		s.stop()
		return nil, 0, fmt.Errorf("spacx-serve exited before listening")
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("spacx-serve did not listen within 20s")
	}
	for deadline := t0.Add(20 * time.Second); ; {
		resp, err := s.http.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("spacx-serve not ready within 20s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop kills the server and waits for it and its stderr reader to end.
func (s *server) stop() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
	<-s.stderr
	s.http.CloseIdleConnections()
}

// procCPU reads the process's CPU time to the nanosecond: the sum over its
// threads of /proc/<pid>/task/<tid>/schedstat, whose first field is the
// time the thread has run. /proc/<pid>/stat counts it only in 10 ms
// ticks, too coarse for a second of serve-hit's open loop. A thread that
// exits takes its time with it; the Go runtime keeps its threads.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	read := 0
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s/%s/schedstat: %w", dir, t.Name(), err)
		}
		sum += time.Duration(ns)
		read++
	}
	if read == 0 {
		return 0, fmt.Errorf("no thread CPU times under %s", dir)
	}
	return sum, nil
}

// resetPeakRSS sets the process's VmHWM back to its current resident set,
// so the next peakRSS reads the peak since this call. Writing 5 to
// clear_refs touches nothing else.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSS reads the process's peak resident set (VmHWM) in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// snapshot fetches the server's /metrics.json.
func (s *server) snapshot() (obs.Snapshot, error) {
	var snap obs.Snapshot
	b, err := s.get("/metrics.json")
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(b, &snap)
}

// get fetches one of the server's observability endpoints.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.http.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}
