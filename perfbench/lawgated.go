package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/server"
)

// daemon is one lawgated child process on an ephemeral port.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	stderr  syncBuffer
	exited  chan struct{}
	waitErr error
}

// syncBuffer collects the child's stderr while it runs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// lawgatedArgs are the serving flags: the defaults, plus an ephemeral
// port reported through a port file.
func lawgatedArgs(portFile string) []string {
	return []string{"-addr", "127.0.0.1:0", "-port-file", portFile}
}

// launch starts lawgated and returns once GET /readyz answers 200,
// with the time from process start to that first 200.
func launch(bin, dir string, n int) (*daemon, time.Duration, error) {
	portFile := filepath.Join(dir, fmt.Sprintf("lawgated-%d.port", n))
	if err := os.Remove(portFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, err
	}
	d := &daemon{cmd: exec.Command(bin, lawgatedArgs(portFile)...), exited: make(chan struct{})}
	d.cmd.Stderr = &d.stderr
	// Should perfbench die, the kernel kills the child too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting lawgated: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := start.Add(20 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("lawgated exited before ready: %v: %s", d.waitErr, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("lawgated not ready within 20s")
		}
		if d.addr == "" {
			if b, err := os.ReadFile(portFile); err == nil && bytes.Contains(b, []byte(":")) {
				d.addr = string(b)
			}
		}
		if d.addr != "" && d.ready() {
			return d, time.Since(start), nil
		}
		nanosleep(100 * time.Microsecond)
	}
}

// ready reports whether GET /readyz answers 200 on a fresh connection.
func (d *daemon) ready() bool {
	c, err := dial(d.addr)
	if err != nil {
		return false
	}
	defer c.close()
	status, _, err := c.do("GET", "/readyz", nil)
	return err == nil && status == http.StatusOK
}

// finalSize matches the drain log line committing the sealed checkpoint.
var finalSize = regexp.MustCompile(`tenant default sealed final checkpoint size=(\d+)`)

// signalGrace separates lawgated's "serving" log line from SIGTERM.
// lawgated answers /readyz and logs that line before it installs its
// SIGTERM handler, so a SIGTERM sent in that window kills it with the
// default action instead of draining it.
const signalGrace = 100 * time.Millisecond

// stop sends SIGTERM and requires a clean drain: exit 0 within 20 s,
// with the final checkpoint logged. It returns the sealed size.
func (d *daemon) stop() (uint64, error) {
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(d.stderr.String(), "lawgated: serving"); {
		if time.Now().After(deadline) {
			d.kill()
			return 0, fmt.Errorf("lawgated never logged that it is serving: %s", d.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(signalGrace)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, fmt.Errorf("signalling lawgated: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.kill()
		return 0, fmt.Errorf("lawgated did not drain within 20s of SIGTERM")
	}
	if d.waitErr != nil {
		return 0, fmt.Errorf("lawgated drain: %v: %s", d.waitErr, d.stderr.String())
	}
	m := finalSize.FindStringSubmatch(d.stderr.String())
	if m == nil || !strings.Contains(d.stderr.String(), "drained clean") {
		return 0, fmt.Errorf("lawgated exited 0 without a clean drain log: %s", d.stderr.String())
	}
	return strconv.ParseUint(m[1], 10, 64)
}

// kill ends the process if it is still running and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // already exiting is fine; we wait below
	<-d.exited
}

// cpu is the CPU time, user and system, lawgated has used so far, from
// /proc/<pid>/stat. Time the hypervisor gave to other guests is not in
// it.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesized command name start at the
	// state, field 3; utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", s)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed /proc stat line %q: %w", s, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times, which Linux fixes
// at 100 for user space.
const clockTicks = 100

func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// client is one keep-alive HTTP/1.1 connection. Requests are written by
// hand and responses parsed with http.ReadResponse, so the load
// generator spends little CPU next to the server.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	out  []byte
	in   bytes.Buffer
	// body is scratch for rendering a request body.
	body []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one request and returns the status and body; the body is
// valid until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	c.out = append(c.out[:0], method...)
	c.out = append(c.out, ' ')
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: lawgated\r\n"...)
	if body != nil {
		c.out = append(c.out, "Content-Type: application/json\r\nContent-Length: "...)
		c.out = strconv.AppendInt(c.out, int64(len(body)), 10)
		c.out = append(c.out, "\r\n"...)
	}
	c.out = append(c.out, "\r\n"...)
	c.out = append(c.out, body...)
	if err := c.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(c.out); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

// readResponse parses one HTTP/1.1 response with either a
// Content-Length or a chunked body, reusing the client's buffers so the
// load generator allocates nothing per request.
func (c *client) readResponse() (int, []byte, error) {
	line, err := c.line()
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err := c.line()
		if err != nil {
			return 0, nil, err
		}
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	c.in.Reset()
	switch {
	case chunked:
		for {
			line, err := c.line()
			if err != nil {
				return 0, nil, err
			}
			size, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
			if err != nil {
				return 0, nil, fmt.Errorf("malformed chunk size %q", line)
			}
			if size > 0 {
				if _, err := io.CopyN(&c.in, c.br, int64(size)); err != nil {
					return 0, nil, err
				}
			}
			if line, err = c.line(); err != nil || len(line) != 0 {
				return 0, nil, fmt.Errorf("malformed chunk trailer %q: %v", line, err)
			}
			if size == 0 {
				return status, c.in.Bytes(), nil
			}
		}
	case length >= 0:
		if _, err := io.CopyN(&c.in, c.br, int64(length)); err != nil {
			return 0, nil, err
		}
		return status, c.in.Bytes(), nil
	}
	return 0, nil, fmt.Errorf("response with neither Content-Length nor chunked body")
}

// line reads one CRLF-terminated line without its terminator; it is
// valid until the next read.
func (c *client) line() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(line[:len(line)-1], []byte("\r")), nil
}

// getJSON fetches path and decodes a 200 response into v.
func (c *client) getJSON(path string, v any) error {
	status, body, err := c.do("GET", path, nil)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

// anchor is a checkpoint an auditor took earlier.
type anchor struct {
	size uint64
	root [32]byte
}

func parseAnchor(cp server.CheckpointResponse) (anchor, error) {
	root, err := unhex32(cp.Root)
	return anchor{size: cp.Size, root: root}, err
}

// verifyExtends checks, client-side, that the checkpoint response body
// carries a consistency proof that it extends a, and returns its size.
func verifyExtends(body []byte, a anchor) (uint64, error) {
	var cp server.CheckpointResponse
	if err := json.Unmarshal(body, &cp); err != nil {
		return 0, fmt.Errorf("checkpoint response: %w", err)
	}
	if cp.Consistency == nil || cp.Consistency.OldSize != a.size || cp.Consistency.NewSize != cp.Size {
		return 0, fmt.Errorf("checkpoint of size %d carries no proof from anchor size %d", cp.Size, a.size)
	}
	proof := ledger.ConsistencyProof{OldSize: cp.Consistency.OldSize, NewSize: cp.Consistency.NewSize}
	for _, h := range cp.Consistency.Path {
		node, err := unhex32(h)
		if err != nil {
			return 0, err
		}
		proof.Path = append(proof.Path, node)
	}
	root, err := unhex32(cp.Root)
	if err != nil {
		return 0, err
	}
	if !ledger.VerifyConsistency(proof, a.root, root) {
		return 0, fmt.Errorf("consistency proof %d -> %d rejected: the served ledger does not extend the anchor", a.size, cp.Size)
	}
	return cp.Size, nil
}

func unhex32(s string) ([32]byte, error) {
	var out [32]byte
	b, err := hex.DecodeString(s)
	if err != nil {
		return out, err
	}
	if len(b) != len(out) {
		return out, fmt.Errorf("digest %q is %d bytes, want %d", s, len(b), len(out))
	}
	copy(out[:], b)
	return out, nil
}

// nanosleep blocks the calling thread for d. time.Sleep rounds short
// waits up to the runtime's ~1 ms poller granularity, coarser than the
// few milliseconds lawgated takes to start.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
