package main

import (
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
	"syscall"
	"time"

	spv "github.com/authhints/spv"
)

// buildDaemon compiles ./cmd/spvserve into dir. The go command skips the
// link when the binary is already current, so repeated runs in one
// checkout pay for the build once.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "spvserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/spvserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/spvserve: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running spvserve subprocess.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:PORT
	log     *os.File
	exited  chan struct{} // closed once Wait has returned
	waitErr error
	// startup is exec → first /healthz 200, with the benchmark doing
	// nothing else: the figure setup_s is built from.
	startup time.Duration
	execAt  time.Time
}

// usage is what the kernel accounted to a daemon over its whole life.
type usage struct {
	cpu   time.Duration // user + system
	rssMB float64       // peak resident set, read just before the stop
}

// freePort asks the kernel for an unused loopback port. The daemon logs
// the flag it was given, not the port it bound, so ":0" would leave the
// benchmark unable to find it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin with args on a fresh loopback port and returns
// once /healthz answers 200. It polls every millisecond and does no other
// work meanwhile, so startup is the daemon's own time.
func startDaemon(ctx context.Context, bin, logPath string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		cmd:    exec.Command(bin, append([]string{"-addr", addr}, args...)...),
		base:   "http://" + addr,
		log:    logf,
		exited: make(chan struct{}),
	}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.execAt = time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitHealthy(ctx); err != nil {
		d.stop()
		return nil, fmt.Errorf("%w\n%s", err, d.logTail())
	}
	d.startup = time.Since(d.execAt)
	return d, nil
}

func (d *daemon) waitHealthy(ctx context.Context) error {
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.After(90 * time.Second)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-tick.C:
		case <-d.exited:
			return fmt.Errorf("daemon exited before serving: %v", d.waitErr)
		case <-deadline:
			return fmt.Errorf("daemon not healthy after 90s")
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// stop reads the daemon's peak RSS, sends SIGTERM, waits for the process
// to end (killing it if the drain outlasts 20 s) and returns its lifetime
// CPU with that peak. Safe to call on a daemon that already exited.
func (d *daemon) stop() usage {
	var u usage
	u.rssMB = d.peakRSS()
	d.cmd.Process.Signal(syscall.SIGTERM) // error: already exited, which Wait reports
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
	if ps := d.cmd.ProcessState; ps != nil {
		u.cpu = ps.UserTime() + ps.SystemTime()
	}
	return u
}

// peakRSS is the live daemon's high-water resident set, VmHWM of
// /proc/PID/status, in MB; 0 once it has exited. Rusage.Maxrss from Wait
// would not do: Linux carries the spawning process's own peak across exec,
// so it reads as the larger of the daemon's and this benchmark's.
func (d *daemon) peakRSS() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return "daemon log tail:\n" + string(b)
}

// cpuNow reads the live daemon's user+system CPU from /proc, so a timed
// phase can be charged its own CPU and not the start-up and warm-up that
// preceded it. Fields 14 and 15 of /proc/PID/stat are in USER_HZ ticks,
// which the Linux ABI fixes at 100 per second.
func (d *daemon) cpuNow() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat cpu fields: %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// stats fetches the daemon's /stats counters.
func (d *daemon) stats(hc *http.Client) (spv.ServeStats, error) {
	var s spv.ServeStats
	resp, err := hc.Get(d.base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// verifier fetches the owner's public key the daemon publishes.
func (d *daemon) verifier(hc *http.Client) (*spv.Verifier, error) {
	resp, err := hc.Get(d.base + "/verifier")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	pem, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/verifier: status %d", resp.StatusCode)
	}
	return spv.ParseVerifierPEM(pem)
}
