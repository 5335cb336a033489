package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
)

// testCtx returns a context that outlives the assertion it guards.
func testCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// validAction is a Title III wiretap: a government real-time content
// interception on a third-party network. It always evaluates cleanly
// and requires heavy process, so /v1/advise has redesigns to offer.
func validAction() legal.Action {
	return legal.Action{
		Name:   "wiretap-content",
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingRealTime,
		Data:   legal.DataContent,
		Source: legal.SourceThirdPartyNetwork,
	}
}

func mustServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, client *http.Client, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestEvaluateEndpoint(t *testing.T) {
	s := mustServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", validAction())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var out EvaluateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	if out.Tenant != "default" || out.Revision == 0 {
		t.Fatalf("tenant/revision = %q/%d", out.Tenant, out.Revision)
	}
	if out.Ruling.Required == "" || !out.Ruling.NeedsProcess {
		t.Fatalf("wiretap ruling = %+v, want process required", out.Ruling)
	}
	// The served ruling is sealed in the tenant ledger.
	led := s.Registry().Get("default").Ledger()
	if err := led.Verify(); err != nil {
		t.Fatalf("ledger verify: %v", err)
	}
	st := s.Stats()
	if st.Requests != 1 || st.OK != 1 || st.Rulings != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeliberateClientErrors(t *testing.T) {
	s := mustServer(t, WithMaxBody(512), WithMaxBatch(4))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	t.Run("malformed JSON is 400", func(t *testing.T) {
		resp, err := client.Post(ts.URL+"/v1/evaluate", "application/json",
			strings.NewReader(`{"Name": "broken`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
	})

	t.Run("oversized body is 413", func(t *testing.T) {
		big := `{"Name": "` + strings.Repeat("x", 4096) + `"}`
		resp, err := client.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", resp.StatusCode)
		}
	})

	t.Run("unknown tenant is 404", func(t *testing.T) {
		resp, _ := postJSON(t, client, ts.URL+"/v1/evaluate?tenant=nobody", validAction())
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", resp.StatusCode)
		}
	})

	t.Run("invalid action is 422", func(t *testing.T) {
		a := validAction()
		a.Actor = legal.Actor(99)
		resp, _ := postJSON(t, client, ts.URL+"/v1/evaluate", a)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status = %d, want 422", resp.StatusCode)
		}
	})

	t.Run("oversized batch is 413", func(t *testing.T) {
		batch := make([]legal.Action, 5)
		for i := range batch {
			batch[i] = validAction()
		}
		resp, _ := postJSON(t, client, ts.URL+"/v1/evaluate/batch", batch)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", resp.StatusCode)
		}
	})

	t.Run("wrong method is 405", func(t *testing.T) {
		resp, err := client.Get(ts.URL + "/v1/evaluate")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", resp.StatusCode)
		}
	})

	st := s.Stats()
	if st.ClientErrors == 0 {
		t.Fatalf("stats = %+v, want client errors counted", st)
	}
	if st.Panics != 0 {
		t.Fatalf("panics = %d during client-error exercise", st.Panics)
	}
}

func TestBatchEndpointPartialFailure(t *testing.T) {
	s := mustServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := validAction()
	bad.Actor = legal.Actor(99)
	bad2 := bad
	bad2.Name += " again"
	batch := []legal.Action{validAction(), bad, validAction(), bad2}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rulings) != 4 {
		t.Fatalf("rulings = %d, want 4 slots", len(out.Rulings))
	}
	if out.Rulings[0] == nil || out.Rulings[1] != nil || out.Rulings[2] == nil || out.Rulings[3] != nil {
		t.Fatalf("slot validity = [%v %v %v %v], want [ok nil ok nil]",
			out.Rulings[0] != nil, out.Rulings[1] != nil, out.Rulings[2] != nil, out.Rulings[3] != nil)
	}
	if len(out.Errors) != 2 || out.Errors[0].Index != 1 || out.Errors[1].Index != 3 ||
		!strings.HasPrefix(out.Errors[0].Error, "action 1: ") || !strings.HasPrefix(out.Errors[1].Error, "action 3: ") {
		t.Fatalf("errors = %+v, want one at index 1 and one at index 3, each naming its slot", out.Errors)
	}
	if got := s.Stats().Rulings; got != 2 {
		t.Fatalf("rulings counter = %d, want 2", got)
	}
}

func TestAdviseEndpoint(t *testing.T) {
	s := mustServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/advise", validAction())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var out AdviseResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Advice) == 0 {
		t.Fatalf("no advice for a super-warrant wiretap; body %s", data)
	}
	for _, ad := range out.Advice {
		if ad.Rule == "" || ad.Explanation == "" {
			t.Fatalf("advice item missing provenance: %+v", ad)
		}
	}
}

// TestCheckpointConsistency anchors a checkpoint, serves more rulings,
// then verifies — client-side, from the wire form alone — that the new
// checkpoint's ledger extends the anchored one.
func TestCheckpointConsistency(t *testing.T) {
	s := mustServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	for i := 0; i < 5; i++ {
		resp, data := postJSON(t, client, ts.URL+"/v1/evaluate", validAction())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup %d: status %d body %s", i, resp.StatusCode, data)
		}
	}
	old := getCheckpoint(t, client, ts.URL+"/v1/ledger/checkpoint")
	if old.Size == 0 {
		t.Fatal("anchored checkpoint is empty")
	}

	for i := 0; i < 7; i++ {
		postJSON(t, client, ts.URL+"/v1/evaluate", validAction())
	}
	cur := getCheckpoint(t, client,
		fmt.Sprintf("%s/v1/ledger/checkpoint?since=%d", ts.URL, old.Size))
	if cur.Consistency == nil {
		t.Fatal("no consistency proof returned for ?since")
	}
	proof := ledger.ConsistencyProof{
		OldSize: cur.Consistency.OldSize,
		NewSize: cur.Consistency.NewSize,
		Path:    make([][32]byte, len(cur.Consistency.Path)),
	}
	for i, h := range cur.Consistency.Path {
		proof.Path[i] = unhex32(t, h)
	}
	if !ledger.VerifyConsistency(proof, unhex32(t, old.Root), unhex32(t, cur.Root)) {
		t.Fatalf("consistency proof rejected: old %+v cur %+v", old, cur)
	}

	// A client claiming a checkpoint ahead of the ledger gets a 409.
	resp, err := client.Get(fmt.Sprintf("%s/v1/ledger/checkpoint?since=%d", ts.URL, cur.Size+100))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ahead-of-ledger since: status = %d, want 409", resp.StatusCode)
	}
}

func getCheckpoint(t *testing.T, client *http.Client, url string) CheckpointResponse {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status = %d, body %s", resp.StatusCode, data)
	}
	var cp CheckpointResponse
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	return cp
}

func unhex32(t *testing.T, s string) [32]byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		t.Fatalf("bad hex digest %q: %v", s, err)
	}
	var out [32]byte
	copy(out[:], b)
	return out
}

func TestRateLimit(t *testing.T) {
	s := mustServer(t, WithRateLimit(0.5, 1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", validAction())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", validAction())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	if got := s.Stats().RateLimited; got != 1 {
		t.Fatalf("rateLimited = %d, want 1", got)
	}
}

// TestAdmissionShedAndQueueDeadline drives both overload outcomes: a
// full wait queue sheds instantly with 429, and a queued request whose
// deadline expires before a slot frees gets 504.
func TestAdmissionShedAndQueueDeadline(t *testing.T) {
	gate := make(chan struct{})
	hook := func(ctx context.Context, _ string, a *legal.Action) {
		if a.Name == "block" {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
	}
	s := mustServer(t, WithAdmission(1, 0), WithEvalHook(hook))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Occupy the only slot.
	blocked := validAction()
	blocked.Name = "block"
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, client, ts.URL+"/v1/evaluate", blocked)
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.Stats().Requests >= 1 && len(s.adm.slots) == 1 })

	// maxWait=0: the next request is shed immediately.
	resp, _ := postJSON(t, client, ts.URL+"/v1/evaluate", validAction())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", resp.StatusCode)
	}
	if got := s.Stats().Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}

	close(gate)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("blocked request finished %d, want 200", st)
	}

	// Now with a wait queue: a queued request expires to 504 under its
	// own (client-lowered) deadline.
	s2 := mustServer(t, WithAdmission(1, 4), WithEvalHook(hook))
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	gate = make(chan struct{})
	defer close(gate)
	go func() {
		postJSON(t, ts2.Client(), ts2.URL+"/v1/evaluate", blocked)
	}()
	waitFor(t, func() bool { return len(s2.adm.slots) == 1 })

	body, _ := json.Marshal(validAction())
	req, _ := http.NewRequest("POST", ts2.URL+"/v1/evaluate", bytes.NewReader(body))
	req.Header.Set("X-Lawgate-Deadline-Ms", "80")
	resp2, err := ts2.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline status = %d, want 504", resp2.StatusCode)
	}
	if got := s2.Stats().DeadlineExpired; got != 1 {
		t.Fatalf("deadlineExpired = %d, want 1", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPanicRecovery(t *testing.T) {
	s := mustServer(t, WithEvalHook(func(_ context.Context, _ string, a *legal.Action) {
		if a.Name == "boom" {
			panic("chaos: poisoned request")
		}
	}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	poison := validAction()
	poison.Name = "boom"
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", poison)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned request: status = %d body %s, want 500", resp.StatusCode, data)
	}
	if got := s.Stats().Panics; got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
	// The process survived: the next request is served normally.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", validAction())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request: status = %d, want 200", resp.StatusCode)
	}
}

// TestSlowBodyTimeout stalls a request body on a raw TCP connection and
// expects a deliberate 408, not an open socket or a hang.
func TestSlowBodyTimeout(t *testing.T) {
	s := mustServer(t, WithBodyReadTimeout(100*time.Millisecond))
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(testCtx(t, 5*time.Second))

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/evaluate HTTP/1.1\r\nHost: lawgated\r\n"+
		"Content-Type: application/json\r\nContent-Length: 500\r\n\r\n{\"Name\":")
	// Stall: never deliver the remaining bytes.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("reading status line from stalled request: %v", err)
	}
	status := string(buf[:n])
	if !strings.HasPrefix(status, "HTTP/1.1 408") {
		t.Fatalf("stalled body got %q, want HTTP/1.1 408", strings.SplitN(status, "\r\n", 2)[0])
	}
}

// TestBodyDeadlineIgnoresInjectedClock posts a batch larger than what
// net/http reads ahead of the handler to a server whose injected clock
// is frozen in the past. The socket read deadline must come from the
// wall clock: a deadline taken from the injected clock has already
// passed, and the body read fails with 408.
func TestBodyDeadlineIgnoresInjectedClock(t *testing.T) {
	past := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	s := mustServer(t, WithClock(func() time.Time { return past }))
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(testCtx(t, 5*time.Second))

	batch := make([]legal.Action, 401)
	for i := range batch {
		batch[i] = validAction()
		batch[i].Name = fmt.Sprintf("case-%06d", i)
	}
	if body, _ := json.Marshal(batch); len(body) <= 8<<10 {
		t.Fatalf("batch body is %d bytes, want over 8 KB", len(body))
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	resp, data := postJSON(t, client, "http://"+addr.String()+"/v1/evaluate/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
}

// TestNoGoroutineLeaks drives a burst of deadline-expiring and shed
// requests and checks the goroutine count settles back to baseline.
func TestNoGoroutineLeaks(t *testing.T) {
	s := mustServer(t,
		WithAdmission(2, 2),
		WithDeadline(50*time.Millisecond),
		WithEvalHook(func(ctx context.Context, _ string, a *legal.Action) {
			if a.Name == "block" {
				<-ctx.Done()
			}
		}),
	)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()
	done := make(chan struct{}, 32)
	blocked := validAction()
	blocked.Name = "block"
	for i := 0; i < 32; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", blocked)
		}()
	}
	for i := 0; i < 32; i++ {
		<-done
	}
	// Idle keep-alive connections pin client and server goroutines;
	// drop them so only a genuine server-side leak keeps the count up.
	waitFor(t, func() bool {
		ts.Client().CloseIdleConnections()
		return runtime.NumGoroutine() <= before+5
	})
	st := s.Stats()
	if st.DeadlineExpired == 0 {
		t.Fatalf("stats = %+v, want some 504s from the burst", st)
	}
}

func TestInstallRulesValidation(t *testing.T) {
	s := mustServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	put := func(id string, cfg any) (*http.Response, []byte) {
		t.Helper()
		body, _ := json.Marshal(cfg)
		req, _ := http.NewRequest("PUT", ts.URL+"/v1/tenants/"+id+"/rules", bytes.NewReader(body))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	if resp, data := put("lab", RuleConfig{Container: "nested"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad container: status = %d body %s, want 400", resp.StatusCode, data)
	}
	if resp, data := put("lab", RuleConfig{Rules: []string{"no-such-rule"}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown rule: status = %d body %s, want 400", resp.StatusCode, data)
	}
	if resp, data := put("bad/id", RuleConfig{}); resp.StatusCode != http.StatusBadRequest {
		// "/" never reaches the handler as part of {id}; a character the
		// mux accepts but the registry rejects:
		_ = data
		_ = resp
	}
	if resp, data := put("lab!", RuleConfig{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tenant id: status = %d body %s, want 400", resp.StatusCode, data)
	}
	// A failed install must leave no tenant behind.
	if s.Registry().Get("lab") != nil {
		t.Fatal("failed install provisioned the tenant anyway")
	}

	resp, data := put("lab", RuleConfig{Container: "single", CacheCapacity: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good install: status = %d body %s", resp.StatusCode, data)
	}
	var tv TenantView
	if err := json.Unmarshal(data, &tv); err != nil {
		t.Fatal(err)
	}
	if tv.Tenant != "lab" || tv.Container != "single" || tv.RuleCount == 0 {
		t.Fatalf("install view = %+v", tv)
	}

	// Tenant info reflects the install, and engine stats are exposed.
	postJSON(t, client, ts.URL+"/v1/evaluate?tenant=lab", validAction())
	infoResp, infoData := func() (*http.Response, []byte) {
		r, err := client.Get(ts.URL + "/v1/tenants/lab")
		if err != nil {
			t.Fatal(err)
		}
		d, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, d
	}()
	if infoResp.StatusCode != http.StatusOK {
		t.Fatalf("tenant info: status = %d body %s", infoResp.StatusCode, infoData)
	}
	var info TenantView
	if err := json.Unmarshal(infoData, &info); err != nil {
		t.Fatal(err)
	}
	if info.Engine == nil || info.LedgerSize == 0 {
		t.Fatalf("tenant info missing engine stats or ledger size: %+v", info)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	s := mustServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Ready {
		t.Fatalf("metricsz = %+v, want ready", st)
	}
}
