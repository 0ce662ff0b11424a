package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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

// inferRun is one timed dtdinfer process.
type inferRun struct {
	wall  time.Duration
	rssMB float64
	hash  string // SHA-256 of standard output
}

// runDtdinfer execs the dtdinfer binary as a user would, timing it from
// exec to exit, and returns the hash of its output and its max RSS. It
// starts dtdinfer through launch, a second copy of this program.
func runDtdinfer(bin string, args []string) (inferRun, error) {
	self, err := os.Executable()
	if err != nil {
		return inferRun{}, err
	}
	var out, errb bytes.Buffer
	cmd := exec.Command(self, append([]string{launchFlag, bin}, args...)...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Run(); err != nil {
		return inferRun{}, fmt.Errorf("dtdinfer: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	stderr := strings.TrimSpace(errb.String())
	var wallNS, rssKB int64
	last := stderr[strings.LastIndexByte(stderr, '\n')+1:]
	if _, err := fmt.Sscanf(last, launchReport, &wallNS, &rssKB); err != nil {
		return inferRun{}, fmt.Errorf("dtdinfer launch report %q: %v", last, err)
	}
	sum := sha256.Sum256(out.Bytes())
	return inferRun{wall: time.Duration(wallNS), rssMB: float64(rssKB) / 1024, hash: hex.EncodeToString(sum[:])}, nil
}

// launchFlag as the first argument makes this program run launch.
const launchFlag = "-launch"

// launchReport is the last line launch writes to standard error.
const launchReport = "launch: wall_ns %d maxrss_kb %d"

// launch runs args as a program with this process's standard streams,
// timed from exec to exit, and reports its wall time and peak RSS on the
// last line of standard error. Its exit status is the program's.
//
// It exists to measure the RSS. Linux carries the peak RSS of the memory
// a process execs from into the process's own figure, and Go starts
// children with vfork, on the parent's memory. A dtdinfer started
// straight from the benchmark would report the benchmark's peak, which
// holds the generated corpus, when it exceeds dtdinfer's own. Started
// from launch, a small process, it reports its own peak.
func launch(args []string) int {
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = dieWithParent()
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if cmd.ProcessState != nil && cmd.ProcessState.ExitCode() > 0 {
			return cmd.ProcessState.ExitCode()
		}
		return 1
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		fmt.Fprintln(os.Stderr, "no resource usage for", args[0])
		return 1
	}
	fmt.Fprintf(os.Stderr, "\n"+launchReport+"\n", wall.Nanoseconds(), ru.Maxrss) // kilobytes on Linux
	return 0
}

// dieWithParent makes a child get SIGKILL when the benchmark dies, so a
// run that is killed from outside, where no deferred stop runs, leaves no
// dtdinfer or dtdserved behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// server is one running dtdserved process.
type server struct {
	cmd   *exec.Cmd
	base  string
	boot  time.Duration // exec to the first /readyz 200
	exit  chan error
	errb  bytes.Buffer
	httpc *http.Client
}

// startServer execs dtdserved on a free loopback port over dataDir and
// waits until /readyz answers 200.
func startServer(bin, dataDir string) (*server, error) {
	s := &server{exit: make(chan error, 1), httpc: &http.Client{Timeout: 5 * time.Second}}
	s.cmd = exec.Command(bin, "-listen", "127.0.0.1:0", "-data", dataDir, "-persist-interval", "-1s")
	s.cmd.SysProcAttr = dieWithParent()
	s.cmd.Stderr = &s.errb
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	lines := bufio.NewReader(stdout)
	line, err := lines.ReadString('\n')
	go func() {
		io.Copy(io.Discard, lines)
		s.exit <- s.cmd.Wait()
	}()
	const prefix = "dtdserved: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		s.kill()
		return nil, fmt.Errorf("dtdserved did not start: %q %v: %s", line, err, s.errb.String())
	}
	s.base = "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix))
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := s.httpc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.boot = time.Since(start)
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("dtdserved not ready after 60s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// get fetches a path and returns the body of a 200 answer.
func (s *server) get(path string) (string, error) {
	resp, err := s.httpc.Get(s.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(body), nil
}

// metrics scrapes /metrics into name → value, keeping unlabeled series.
func (s *server) metrics() (map[string]float64, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM and waits for the drain; the daemon must exit 0.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	select {
	case err := <-s.exit:
		if err != nil {
			return fmt.Errorf("dtdserved drain: %v: %s", err, s.errb.String())
		}
		return nil
	case <-ctx.Done():
		s.kill()
		return errors.New("dtdserved did not drain within 60s")
	}
}

// kill ends the process without a drain and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	select {
	case <-s.exit:
	case <-time.After(10 * time.Second):
	}
}
