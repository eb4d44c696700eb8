package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one fmserve child process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	procs   string // fmserve's own GOMAXPROCS, from its boot line
	done    chan struct{}
	mu      sync.Mutex
	logTail []string
}

var listenRE = regexp.MustCompile(`listening on (\S+) \(max fits (\d+), worker cap (\d+)\)`)

// startServer launches fmserve on an ephemeral loopback port with its WAL
// in walDir (fsync on) and returns once it is accepting connections.
func startServer(bin, walDir string) (*server, error) {
	if err := os.RemoveAll(walDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr=127.0.0.1:0", "-wal-dir="+walDir, "-wal-fsync=true")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if s.addr == "" {
				if m := listenRE.FindStringSubmatch(line); m != nil {
					s.addr, s.procs = m[1], m[2]
					close(ready)
				}
			}
			if len(s.logTail) == 20 {
				s.logTail = s.logTail[1:]
			}
			s.logTail = append(s.logTail, line)
			s.mu.Unlock()
		}
		_ = cmd.Wait()
	}()
	select {
	case <-ready:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("fmserve exited during boot: %s", strings.Join(s.tail(), " | "))
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("fmserve did not start listening within 30s")
	}
}

func (s *server) tail() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.logTail...)
}

// stop terminates fmserve and waits until it has exited.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every mainstream Linux configuration.
const clockTicks = 100

// cpuSeconds reads a process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu times in /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTicks, nil
}

// rssMB reads a process's resident set size.
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// cpuStat is the aggregate line of /proc/stat: total and steal jiffies.
type cpuStat struct{ total, steal float64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var st cpuStat
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			st.total += x
		}
		if i == 7 {
			st.steal = x
		}
	}
	return st
}

// stealShare is the share of CPU time the hypervisor stole between a and b.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	}
	return fmt.Sprintf("0x%x", st.Type) // the statfs magic number
}

// fsyncProbe times write+fsync of a small record on dir's filesystem: the
// per-commit cost the WAL pays there. It is context for the run, not a
// gated metric.
func fsyncProbe(dir string, n int) (p50us, p99us float64, err error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	rec := make([]byte, 128)
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := f.Write(rec); err != nil {
			return 0, 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, 0, err
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
	}
	sort.Float64s(lat)
	return quantile(lat, 0.5), quantile(lat, 0.99), nil
}
