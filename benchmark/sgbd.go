package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sgb/internal/client"
)

// sgbdFlags is how both serve workloads run the server: ports picked by the
// kernel, durable with one fsync per acknowledged statement, a checkpoint
// every two seconds so several cycles complete inside a run, and the server's
// own tracing and slowlog off (the traced pass turns them on).
var sgbdFlags = []string{
	"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
	"-fsync", "always", "-checkpoint-interval", "2s",
}

var (
	untracedFlags = []string{"-trace-sample", "0", "-slow-query", "-1s"}
	tracedFlags   = []string{"-trace-sample", "1", "-slow-query", "0"}
)

// children tracks every live sgbd so that any exit path — a failed check, an
// error, a signal — can kill them.
var children struct {
	sync.Mutex
	procs map[*sgbd]struct{}
}

func killChildren() {
	children.Lock()
	procs := make([]*sgbd, 0, len(children.procs))
	for p := range children.procs {
		procs = append(procs, p)
	}
	children.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// sgbd is one running server subprocess.
type sgbd struct {
	cmd        *exec.Cmd
	addr       string // wire address from the "listening on" line
	metricsURL string // from the "metrics on" line
	// bootTime is process start → "listening on": recovery plus listen.
	bootTime time.Duration
	// replayed is the WAL record count of the "recovered data dir" line.
	replayed int
	waited   chan struct{}
}

// startSgbd launches bin on dataDir and waits for its "listening on" line.
func startSgbd(bin, dataDir string, extra ...string) (*sgbd, error) {
	args := append(append([]string{}, sgbdFlags...), "-data-dir", dataDir)
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &sgbd{cmd: cmd, waited: make(chan struct{})}
	children.Lock()
	if children.procs == nil {
		children.procs = map[*sgbd]struct{}{}
	}
	children.procs[s] = struct{}{}
	children.Unlock()

	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "metrics on "):
				s.metricsURL = strings.TrimPrefix(line, "metrics on ")
			case strings.HasPrefix(line, "recovered data dir "):
				// "... (N tables, M wal records replayed, fsync always)"
				if _, rest, ok := strings.Cut(line, " tables, "); ok {
					s.replayed, _ = strconv.Atoi(strings.Fields(rest)[0])
				}
			case strings.HasPrefix(line, "listening on "):
				s.addr = strings.TrimPrefix(line, "listening on ")
				s.bootTime = time.Since(begin)
				sent = true
				ready <- nil
			}
		}
		if !sent {
			ready <- fmt.Errorf("sgbd exited before listening")
		}
		// Reap here, after the pipe is drained, as os/exec requires.
		_ = cmd.Wait()
		close(s.waited)
	}()
	select {
	case err := <-ready:
		if err != nil {
			s.kill()
			return nil, err
		}
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("sgbd did not print its listening line within 60s")
	}
	return s, nil
}

// kill sends SIGKILL and waits until the process has been reaped. It is the
// crash the durability check needs and also the normal way a run ends: the
// data directory is thrown away, so a graceful drain would buy nothing.
func (s *sgbd) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.waited
	children.Lock()
	delete(children.procs, s)
	children.Unlock()
}

func (s *sgbd) pid() int { return s.cmd.Process.Pid }

// connect dials the server's wire port.
func (s *sgbd) connect() (*client.Conn, error) {
	return client.ConnectContext(context.Background(), s.addr, client.Options{MaxRetries: 3})
}

// scrape fetches /metrics and returns every un-labelled sample by name.
func (s *sgbd) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.metricsURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
