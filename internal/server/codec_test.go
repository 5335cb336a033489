package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"lawgate/internal/legal"
	"lawgate/internal/report"
)

func codecRulings() []legal.Ruling {
	return []legal.Ruling{
		{},
		{
			Action:   legal.Action{Name: "seize stored email <inbox> & \"drafts\""},
			Required: legal.ProcessSearchWarrant,
			Regime:   legal.RegimeSCA,
			Rationale: []string{
				"stored content at a public provider",
				"SCA \u00a7 2703(a) requires a warrant",
			},
			Citations: []legal.Citation{{ID: "sca", Title: "18 U.S.C. \u00a7 2703"}},
		},
		{
			Action:     legal.Action{Name: "consent search"},
			Required:   legal.ProcessNone,
			Regime:     legal.RegimeFourthAmendment,
			Exceptions: []legal.ExceptionKind{1, 2},
			Rationale:  []string{},
			Citations:  []legal.Citation{},
		},
	}
}

// The hand-built evaluate envelope must be byte-identical to
// json.Marshal of the EvaluateResponse struct — the contract that
// keeps clients and the conformance probe oblivious to the codec.
func TestAppendEvaluateResponseMatchesStdlib(t *testing.T) {
	for i, r := range codecRulings() {
		want, err := json.Marshal(EvaluateResponse{
			Tenant:   "tenant-a",
			Revision: 7,
			Ruling:   report.FromRuling(r),
		})
		if err != nil {
			t.Fatal(err)
		}
		got := appendEvaluateResponse(nil, "tenant-a", 7, &r)
		if !bytes.Equal(got, want) {
			t.Errorf("ruling %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// relabel returns r under another action name, sharing r's slices as
// the engine's batch pass and ruling cache do.
func relabel(r legal.Ruling, name string) legal.Ruling {
	r.Action.Name = name
	return r
}

// manyTails returns n rulings with distinct Rationale slices, each
// followed by a re-labeled copy. Rulings of one line length share a
// home slot in the tail table, so the probe windows fill up.
func manyTails(n int) []legal.Ruling {
	var out []legal.Ruling
	for i := 0; i < n; i++ {
		r := legal.Ruling{
			Action:    legal.Action{Name: fmt.Sprintf("distinct %d", i)},
			Required:  legal.ProcessSubpoena,
			Regime:    legal.RegimeSCA,
			Rationale: []string{fmt.Sprintf("line %0*d", 3+i%3, i)},
		}
		out = append(out, r, relabel(r, fmt.Sprintf("again %d", i)))
	}
	return out
}

// sameHome returns two of the rulings vary(0), vary(1), ... that share
// a home slot in the tail table, each twice, so that rendering them
// rests on the table's identity check and not on its hash.
func sameHome(t *testing.T, vary func(i int) legal.Ruling) []legal.Ruling {
	t.Helper()
	seen := map[int]legal.Ruling{}
	for i := 0; i <= tailSlots; i++ {
		r := vary(i)
		if prev, ok := seen[tailHome(&r)]; ok {
			return []legal.Ruling{prev, r, prev, r}
		}
		seen[tailHome(&r)] = r
	}
	t.Fatal("no two rulings share a home slot")
	return nil
}

func TestAppendBatchResponseMatchesStdlib(t *testing.T) {
	rulings := codecRulings()
	shared, other := rulings[1], rulings[2]
	lines := make([]string, tailSlots+2)
	for i := range lines {
		lines[i] = "the same line"
	}
	shorter := sameHome(t, func(i int) legal.Ruling {
		return legal.Ruling{Action: legal.Action{Name: "lines"}, Rationale: lines[:i+1]}
	})
	otherRequired := sameHome(t, func(i int) legal.Ruling {
		r := relabel(shared, "required")
		r.Required = legal.Process(i)
		return r
	})
	otherRegime := sameHome(t, func(i int) legal.Ruling {
		r := relabel(shared, "regime")
		r.Regime = legal.Regime(i)
		return r
	})
	otherSlices := sameHome(t, func(i int) legal.Ruling {
		r := relabel(shared, "slices")
		r.Exceptions = []legal.ExceptionKind{legal.ExceptionKind(1 + i%3)}
		return r
	})
	otherSlices = append(otherSlices, sameHome(t, func(i int) legal.Ruling {
		r := relabel(shared, "rationale")
		r.Rationale = []string{fmt.Sprintf("line %c", 'a'+i%26)}
		return r
	})...)
	otherSlices = append(otherSlices, sameHome(t, func(i int) legal.Ruling {
		r := relabel(shared, "citations")
		r.Citations = []legal.Citation{{Title: fmt.Sprintf("title %d", i)}}
		return r
	})...)
	interleaved := []legal.Ruling{shared, relabel(shared, "b"), relabel(other, "c"),
		relabel(shared, "d"), other, relabel(shared, "f"), relabel(other, "g")}
	many := manyTails(3 * tailSlots)
	cases := []struct {
		name   string
		ruls   []legal.Ruling
		failed map[int]string // the failed slots and their error text
	}{
		{name: "empty", ruls: nil},
		{name: "all ok", ruls: rulings},
		{name: "one failed", ruls: rulings, failed: map[int]string{1: "invalid <action>"}},
		{name: "shared slices under other names", ruls: interleaved},
		{name: "rationale sharing a pointer at a shorter length", ruls: shorter},
		{name: "same slices under another required", ruls: otherRequired},
		{name: "same slices under another regime", ruls: otherRegime},
		{name: "equal lengths, other slices", ruls: otherSlices},
		{
			name: "failed slots between shared ones", ruls: interleaved,
			failed: map[int]string{1: "bad", 2: "bad", 5: "bad"},
		},
		{name: "more distinct rulings than the table holds", ruls: many},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Build the reply the pre-codec handler built, then require
			// the direct encoder to reproduce its exact bytes.
			resp := BatchResponse{Tenant: "t", Revision: 3,
				Rulings: make([]*report.RulingView, len(tc.ruls))}
			errs := make([]error, len(tc.ruls))
			for i := range tc.ruls {
				if msg, ok := tc.failed[i]; ok {
					errs[i] = errors.New(msg)
					resp.Errors = append(resp.Errors, BatchError{Index: i,
						Error: (&legal.SlotError{Index: i, Err: errs[i]}).Error()})
					continue
				}
				v := report.FromRuling(tc.ruls[i])
				resp.Rulings[i] = &v
			}
			want, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			got := appendBatchResponse(nil, "t", 3, tc.ruls, errs)
			if !bytes.Equal(got, want) {
				t.Errorf("\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestAppendBatchResponseAllocsZero pins the batch envelope, tail
// table and error text included, to no allocation into a warmed
// buffer.
func TestAppendBatchResponseAllocsZero(t *testing.T) {
	rulings := codecRulings()
	ruls := []legal.Ruling{rulings[1], relabel(rulings[1], "b"), rulings[2], {}, relabel(rulings[2], "e")}
	errs := make([]error, len(ruls))
	errs[3] = errors.New("bad")
	buf := appendBatchResponse(nil, "t", 3, ruls, errs)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendBatchResponse(buf[:0], "t", 3, ruls, errs)
	}); n != 0 {
		t.Errorf("appendBatchResponse allocs/op = %v, want 0", n)
	}
}

// TestPutScratchClearsBatchSlots checks that a scratch returned to the
// pool pins none of the rulings or errors a batch evaluated into it.
func TestPutScratchClearsBatchSlots(t *testing.T) {
	sc := &reqScratch{}
	rulings, errs := sc.batchSlots(3)
	rulings[1] = codecRulings()[1]
	errs[2] = errors.New("action 2: bad")
	putScratch(sc)
	for i := range rulings {
		if rulings[i].Rationale != nil || rulings[i].Action.Name != "" || errs[i] != nil {
			t.Fatalf("slot %d still holds %+v, %v after put", i, rulings[i], errs[i])
		}
	}
}

// End-to-end byte identity: the served /v1/evaluate body, decoded with
// encoding/json and re-marshaled, must reproduce the raw response
// exactly — the same assertion the lawgated probe makes on a live
// server.
func TestServedEvaluateBytesRoundTripStdlib(t *testing.T) {
	srv, err := New(WithTenants("default"))
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		`{"Name":"wiretap call contents","Actor":1,"Timing":1,"Data":1,"Source":3}`,
		`{"Name":"subpoena basic subscriber info","Actor":1,"Timing":2,"Data":3,"Source":4}`,
		`{"Name":"consent <search>","Actor":1,"Timing":2,"Data":1,"Source":4,"Consent":{"Scope":1}}`,
	}
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(body))
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		raw := rec.Body.Bytes()
		var resp EvaluateResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("response not valid JSON: %v", err)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(raw, want) {
			t.Errorf("served bytes diverge from stdlib rendering:\n got %s\nwant %s", raw, want)
		}
	}

	// Batch endpoint, including a failed slot.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/evaluate/batch",
		strings.NewReader(`[{"Name":"ok","Actor":1,"Timing":2,"Data":3,"Source":4},{"Name":"bad","Actor":99}]`))
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	raw := rec.Body.Bytes()
	var bresp BatchResponse
	if err := json.Unmarshal(raw, &bresp); err != nil {
		t.Fatalf("batch response not valid JSON: %v", err)
	}
	want, err := json.Marshal(bresp)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(raw, want) {
		t.Errorf("batch bytes diverge:\n got %s\nwant %s", raw, want)
	}
}

// The audit spool must flush on every external ledger observation:
// checkpoints, tenant views, and direct Ledger() access all see every
// request served so far.
func TestAuditSpoolFlushesOnReads(t *testing.T) {
	srv, err := New(WithTenants("default"))
	if err != nil {
		t.Fatal(err)
	}
	tn := srv.Registry().Get("default")
	base := tn.Ledger().Len()
	const served = 5 // below spoolFlushThreshold: only reads can flush
	for i := 0; i < served; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/evaluate",
			strings.NewReader(`{"Name":"wiretap","Actor":1,"Timing":1,"Data":1,"Source":3}`))
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	if got := tn.Ledger().Len(); got != base+served {
		t.Fatalf("Ledger() sees %d records, want %d", got, base+served)
	}
	if err := tn.Ledger().Verify(); err != nil {
		t.Fatalf("ledger verify after spool flush: %v", err)
	}

	// The checkpoint endpoint must commit to spooled requests too.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/evaluate",
		strings.NewReader(`{"Name":"wiretap","Actor":1,"Timing":1,"Data":1,"Source":3}`))
	srv.Handler().ServeHTTP(rec, req)
	crec := httptest.NewRecorder()
	creq := httptest.NewRequest("GET", "/v1/ledger/checkpoint", nil)
	srv.Handler().ServeHTTP(crec, creq)
	var cp CheckpointResponse
	if err := json.Unmarshal(crec.Body.Bytes(), &cp); err != nil {
		t.Fatal(err)
	}
	if cp.Size != uint64(base+served+1) {
		t.Fatalf("checkpoint size %d, want %d", cp.Size, base+served+1)
	}
}

// The spool drains inline once it reaches spoolFlushThreshold, so an
// unread ledger cannot buffer unboundedly.
func TestAuditSpoolThresholdFlush(t *testing.T) {
	srv, err := New(WithTenants("default"))
	if err != nil {
		t.Fatal(err)
	}
	tn := srv.Registry().Get("default")
	base := tn.led.Len() // direct: do not trigger a read flush
	for i := 0; i < spoolFlushThreshold; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/evaluate",
			strings.NewReader(`{"Name":"wiretap","Actor":1,"Timing":1,"Data":1,"Source":3}`))
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
	}
	if got := tn.led.Len(); got != base+spoolFlushThreshold {
		t.Fatalf("after %d requests ledger has %d records, want %d (threshold flush missing)",
			spoolFlushThreshold, got, base+spoolFlushThreshold)
	}
}

// TestEvaluateNoteBytes pins the precomputed audit notes to the bytes
// the per-request concatenation produced, so ledger roots over served
// rulings do not move; out-of-range levels fall back to concatenation.
func TestEvaluateNoteBytes(t *testing.T) {
	for p := legal.Process(-1); p <= legal.ProcessWiretapOrder+2; p++ {
		if got, want := evaluateNote(p), "evaluate -> "+p.String(); got != want {
			t.Errorf("evaluateNote(%d) = %q, want %q", int(p), got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = evaluateNote(legal.ProcessSearchWarrant)
	}); allocs != 0 {
		t.Errorf("evaluateNote allocs/op = %v, want 0", allocs)
	}
}
