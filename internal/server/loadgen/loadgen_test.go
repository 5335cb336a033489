package loadgen

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"lawgate/internal/legal"
	"lawgate/internal/server"
)

// TestChaosRunFullyAccounted is the harness proving the headline claim:
// a full chaos schedule — bursts, malformed, oversized, slow-loris,
// poisoned requests, mid-run hot swaps — completes with every request
// ending in a deliberate status, zero panic crashes, and no goroutine
// leak.
func TestChaosRunFullyAccounted(t *testing.T) {
	s, err := server.New(
		server.WithAdmission(4, 64),
		server.WithBodyReadTimeout(200*time.Millisecond),
		server.WithEvalHook(func(_ context.Context, _ string, a *legal.Action) {
			if a.Name == ChaosPanicName {
				panic("chaos: poisoned evaluation")
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	res, err := Run(Config{
		BaseURL:   "http://" + addr.String(),
		Workers:   8,
		Duration:  700 * time.Millisecond,
		Chaos:     true,
		SwapEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatalf("%v\nstatuses: %v", err, res.Statuses)
	}
	t.Logf("requests=%d statuses=%v swaps=%d p50=%s p99=%s rulings/sec=%.0f",
		res.Requests, res.Statuses, res.Swaps, res.P50, res.P99, res.RulingsPerSec)

	// The chaos schedule actually exercised the defenses.
	for status, why := range map[int]string{
		http.StatusBadRequest:            "malformed JSON",
		http.StatusRequestEntityTooLarge: "oversized body",
		http.StatusRequestTimeout:        "slow-loris body",
		http.StatusNotFound:              "unknown tenant",
		http.StatusInternalServerError:   "poisoned evaluation",
		http.StatusGatewayTimeout:        "zero deadline",
	} {
		if res.Statuses[status] == 0 {
			t.Errorf("chaos never produced %d (%s)", status, why)
		}
	}
	if res.Swaps == 0 {
		t.Error("no hot swap completed mid-run")
	}
	st := s.Stats()
	if st.Panics == 0 {
		t.Error("no panic was recovered; the poison probe never landed")
	}

	// Drain and prove no goroutine leak survived the chaos.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after chaos: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+5 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, started with %d: leak after chaos run",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(s.FinalCheckpoints()) == 0 {
		t.Fatal("drain sealed no final checkpoint")
	}
}

// TestResultCheck pins the accounting rules.
func TestResultCheck(t *testing.T) {
	ok := &Result{Requests: 10, Rulings: 5, Statuses: map[int]uint64{200: 5, 429: 5}}
	if err := ok.Check(); err != nil {
		t.Fatal(err)
	}
	err := (&Result{Requests: 10, Rulings: 5, Unaccounted: 1,
		Drops:    []string{"evaluate: connection reset by peer"},
		Statuses: map[int]uint64{200: 5}}).Check()
	if err == nil {
		t.Fatal("unaccounted request passed Check")
	}
	if !strings.Contains(err.Error(), "evaluate: connection reset by peer") {
		t.Fatalf("Check does not name the drop: %v", err)
	}
	if err := (&Result{Requests: 10, Rulings: 5,
		Statuses: map[int]uint64{200: 5, 502: 1}}).Check(); err == nil {
		t.Fatal("non-deliberate status passed Check")
	}
	if err := (&Result{Requests: 10, Statuses: map[int]uint64{400: 10}}).Check(); err == nil {
		t.Fatal("zero rulings passed Check")
	}
}

// overCtx reports a deadline already past while its Err is still nil:
// the window between the run's deadline and the context timer firing,
// which a loaded (race-built) process can stretch.
type overCtx struct{ context.Context }

func (overCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestSlowLorisDialAfterDeadline pins that a slow-loris dial the run's
// own deadline cuts short is the run ending, not a request the server
// dropped, even before the context reports done.
func TestSlowLorisDialAfterDeadline(t *testing.T) {
	ctx := overCtx{context.Background()}
	if ctx.Err() != nil {
		t.Fatal("overCtx must not report done")
	}
	if _, err := slowLoris(ctx, "127.0.0.1:1"); !errors.Is(err, errRunOver) {
		t.Fatalf("slowLoris after the deadline = %v, want errRunOver", err)
	}
}
