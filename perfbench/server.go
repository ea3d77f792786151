package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running rdbsc-server process and the single keep-alive
// connection the closed loop talks to it over.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	logs   *bytes.Buffer // everything the server logged before it listened
	exited chan error
}

// startServer spawns the server and returns once it answered its first
// request, with the time that took: process start, CSV preload, first
// publish, listen and one round trip.
func startServer(ctx context.Context, bin string, args []string) (*server, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting rdbsc-server: %w", err)
	}
	s := &server{
		cmd:    cmd,
		logs:   &bytes.Buffer{},
		exited: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	// The server logs its resolved address once it is bound; the rest of
	// its log is drained so the pipe never fills.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if !found {
				s.logs.WriteString(line + "\n")
				if i := strings.Index(line, "listening on "); i >= 0 {
					addrCh <- strings.Fields(line[i+len("listening on "):])[0]
					found = true
				}
			}
		}
		close(addrCh)
		s.exited <- cmd.Wait()
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			err := <-s.exited
			return nil, 0, fmt.Errorf("rdbsc-server exited before listening (%v): %s", err, s.logs.String())
		}
		s.base = "http://" + addr
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, 0, errors.New("rdbsc-server did not start listening within 60s")
	case <-ctx.Done():
		s.stop()
		return nil, 0, ctx.Err()
	}
	status, _, err := s.do(ctx, "GET", "/healthz", nil)
	if err != nil || status != http.StatusOK {
		s.stop()
		return nil, 0, fmt.Errorf("first request to rdbsc-server: status %d, %v", status, err)
	}
	return s, time.Since(start), nil
}

// do sends one request and reads the whole response body.
func (s *server) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop shuts the server down gracefully (SIGTERM drains its queues), kills
// it if that takes too long, and waits until the process has exited.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}
