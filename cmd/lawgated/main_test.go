package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serveChildEnv makes the test binary run main() instead of the tests,
// so a test can drive lawgated as a real process and signal it.
const serveChildEnv = "LAWGATED_TEST_SERVE"

func TestMain(m *testing.M) {
	if os.Getenv(serveChildEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMRightAfterPortFile sends SIGTERM the moment the port file
// is complete and requires a graceful drain: the signal handler must be
// in place before the port file announces the server. The port file is
// a FIFO, so the server's write returns only once the test reads it and
// the signal lands as close to that write as the scheduler allows.
func TestSIGTERMRightAfterPortFile(t *testing.T) {
	for i := 0; i < 5; i++ {
		dir := t.TempDir()
		portFile := filepath.Join(dir, "port")
		if err := syscall.Mkfifo(portFile, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		var stderr bytes.Buffer
		cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-port-file", portFile)
		cmd.Env = append(os.Environ(), serveChildEnv+"=1")
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		fifo, err := os.Open(portFile)
		if err != nil {
			_ = cmd.Process.Kill()
			t.Fatal(err)
		}
		addr, err := io.ReadAll(fifo)
		fifo.Close()
		if sigErr := cmd.Process.Signal(syscall.SIGTERM); sigErr != nil {
			t.Fatal(sigErr)
		}
		if err != nil || len(addr) == 0 {
			t.Fatalf("reading port file: %q, %v", addr, err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: lawgated exited with %v after SIGTERM right after its port file; stderr:\n%s", i, err, stderr.String())
			}
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatalf("run %d: lawgated did not exit after SIGTERM; stderr:\n%s", i, stderr.String())
		}
		if !strings.Contains(stderr.String(), "drained clean") {
			t.Fatalf("run %d: no graceful drain after SIGTERM; stderr:\n%s", i, stderr.String())
		}
	}
}
