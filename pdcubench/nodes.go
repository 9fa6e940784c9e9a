package main

import (
	"bufio"
	"bytes"
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
)

// node is one `pdcu serve` process under test.
type node struct {
	name string
	addr string // 127.0.0.1:port
	cmd  *exec.Cmd
	done chan struct{}
}

// serveRate lifts the query API's admission rate far above any offered
// rate, so that admission control never sheds benchmark traffic. Every
// other serve flag keeps its shipped default.
const serveRate = "1000000"

// pollInterval is the -watch poll interval of every watching leader.
const pollInterval = "10ms"

// httpc is the control-plane client: readiness polls, checks and
// metric scrapes. It never asks for gzip, so bodies arrive as sent.
var httpc = &http.Client{
	Timeout:   30 * time.Second,
	Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 4},
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startNode launches `pdcu serve` with args plus -addr and -rate. The
// server's output is discarded: at the shipped log sample rate every
// request writes an access-log line.
func startNode(bin, name string, args ...string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args = append([]string{"serve", "-addr", addr, "-rate", serveRate}, args...)
	cmd := exec.Command(bin, args...)
	// Should the benchmark die without stopping it, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	n := &node{name: name, addr: addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(n.done)
	}()
	return n, nil
}

func (n *node) base() string { return "http://" + n.addr }

// stop asks the server to drain, kills it if it has not exited within
// five seconds, and returns once the process is gone.
func (n *node) stop() {
	if n == nil || n.cmd.Process == nil {
		return
	}
	n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.done:
	case <-time.After(5 * time.Second):
		n.cmd.Process.Kill()
		<-n.done
	}
}

func (n *node) exited() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// cpu is the CPU time the server process has used so far: the sum of
// its threads' run time from /proc, in nanosecond resolution.
func (n *node) cpu() time.Duration {
	dir := fmt.Sprintf("/proc/%d/task", n.cmd.Process.Pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name(), "schedstat"))
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			total += v
		}
	}
	return time.Duration(total)
}

// peakRSS is the process's peak resident set size in bytes (VmHWM).
func (n *node) peakRSS() int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// readyz is the part of /readyz the benchmark reads.
type readyz struct {
	Generation  string `json:"generation"`
	Seq         uint64 `json:"seq"`
	LastRebuild *struct {
		Time     time.Time `json:"time"`
		OK       bool      `json:"ok"`
		Duration string    `json:"duration"`
	} `json:"last_rebuild"`
}

// ready returns the node's /readyz when it answers 200.
func (n *node) ready() (*readyz, bool) {
	resp, err := httpc.Get(n.base() + "/readyz")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	var r readyz
	if resp.StatusCode != 200 || json.NewDecoder(resp.Body).Decode(&r) != nil {
		return nil, false
	}
	return &r, true
}

// awaitReady polls /readyz until the node serves generation gen (any
// generation when gen is empty) and returns when it first did.
func awaitReady(ctx context.Context, n *node, gen string, timeout time.Duration) (*readyz, error) {
	deadline := time.Now().Add(timeout)
	for {
		if r, ok := n.ready(); ok && (gen == "" || r.Generation == gen) {
			return r, nil
		}
		if n.exited() {
			return nil, fmt.Errorf("%s exited before it was ready", n.name)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not ready with generation %q within %s", n.name, gen, timeout)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// get fetches a URL with optional request headers (name, value pairs).
func get(url string, hdr ...string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// post sends body to url and returns the status and response body.
func post(url, body string) (int, []byte, error) {
	resp, err := httpc.Post(url, "text/markdown", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches url and decodes a 200 body into v.
func getJSON(url string, v any) error {
	code, _, body, err := get(url)
	if err != nil {
		return err
	}
	if code != 200 {
		return fmt.Errorf("GET %s: status %d", url, code)
	}
	return json.Unmarshal(body, v)
}

// metrics is one scrape of a node's /metrics: series (name plus label
// set, as printed) to value.
type metrics map[string]float64

func (n *node) scrape() (metrics, error) {
	code, _, body, err := get(n.base() + "/metrics")
	if err != nil {
		return nil, err
	}
	if code != 200 {
		return nil, fmt.Errorf("%s /metrics: status %d", n.name, code)
	}
	m := metrics{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			continue
		}
		m[string(line[:i])] = v
	}
	return m, nil
}

// sum adds every series of family name whose labels contain all of
// the given label="value" fragments.
func (m metrics) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range m {
		rest, ok := strings.CutPrefix(series, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}
