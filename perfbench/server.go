package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/emogi-serve from the source tree at root into
// dir and returns the binary's path.
func buildServer(root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "emogi-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/emogi-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/emogi-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running emogi-serve process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	log    *os.File
	setup  time.Duration // process start to the first /healthz 200
	maxRSS int64         // peak resident set in bytes, known after stop
	waitCh chan error    // receives the process's exit; nil once reaped
}

// freeAddr reserves a loopback port for the next server.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches bin with the workload's flags and waits for the
// first /healthz 200. The set-up time covers dataset build and load, not
// compilation. The process is killed if this process dies first.
func startServer(bin string, w workload, seed int64, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, w.serverArgs(addr, seed)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting emogi-serve: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				break
			}
		}
		select {
		case err := <-exited:
			logf.Close()
			return nil, fmt.Errorf("emogi-serve exited during set-up (%v); log %s", err, logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			<-exited
			logf.Close()
			return nil, fmt.Errorf("emogi-serve not healthy after 60s; log %s", logPath)
		}
	}
	s.waitCh = exited
	return s, nil
}

// stop drains the server with SIGTERM (killing it after a grace period)
// and waits for it to exit, recording its peak resident set.
func (s *server) stop() error {
	if s.waitCh == nil {
		return nil
	}
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-s.waitCh:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-s.waitCh
	}
	s.waitCh = nil
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.maxRSS = ru.Maxrss * 1024 // Linux reports kilobytes
	}
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		return err
	}
	// emogi-serve answers /healthz before it installs its SIGTERM handler,
	// so a server stopped right after set-up can die of the signal itself.
	ws, _ := s.cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !s.cmd.ProcessState.Success() && !(ws.Signaled() && ws.Signal() == syscall.SIGTERM) {
		return fmt.Errorf("emogi-serve exited with %v", s.cmd.ProcessState)
	}
	return nil
}

// promSample is one series line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels string
	value  float64
}

// scrape is one /metrics snapshot.
type scrape []promSample

func (s *server) scrape() (scrape, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	var out scrape
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		out = append(out, promSample{name, labels, v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return out, nil
}

// sum adds every series of the family whose labels contain all of match
// (each a `key="value"` pair).
func (sc scrape) sum(name string, match ...string) float64 {
	total := 0.0
outer:
	for _, s := range sc {
		if s.name != name {
			continue
		}
		for _, m := range match {
			if !strings.Contains(s.labels, m) {
				continue outer
			}
		}
		total += s.value
	}
	return total
}
