package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lawgate/internal/legal"
	"lawgate/internal/report"
	"lawgate/internal/scenario"
)

// plainBatch is the design the served batch path optimizes, written
// the plain way: one uncached evaluation per decoded action and
// json.Marshal of the reply. It returns the status and body the batch
// handler must serve for actions.
func plainBatch(eng *legal.Engine, tenant string, revision uint64, actions []legal.Action) (int, []byte) {
	if len(actions) > DefaultMaxBatch {
		return http.StatusRequestEntityTooLarge, nil
	}
	resp := BatchResponse{Tenant: tenant, Revision: revision,
		Rulings: make([]*report.RulingView, len(actions))}
	for i, a := range actions {
		r, err := eng.Evaluate(a)
		if err != nil {
			resp.Errors = append(resp.Errors, BatchError{Index: i,
				Error: (&legal.SlotError{Index: i, Err: err}).Error()})
			continue
		}
		v := report.FromRuling(r)
		resp.Rulings[i] = &v
	}
	body, err := json.Marshal(resp)
	if err != nil {
		panic(err)
	}
	return http.StatusOK, append(body, '\n')
}

// servedBatchSeeds are batch bodies that reach every reuse layer
// between the request and the response: the wire decoder's remainder
// table (objects repeated under other leading names), the engine's
// batch pass (exact repeats, name-only variants, and variants of
// invalid slots), the ruling cache, and the envelope's tail table
// (more distinct rulings than it holds, and one ruling under many
// names). Slots are repeated, renamed, reordered, re-keyed in lower
// case, and invalid.
func servedBatchSeeds() [][]byte {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return b
	}
	batch := func(elems ...string) []byte {
		return []byte("[" + strings.Join(elems, ",") + "]")
	}
	scenes := scenario.Table1()
	var table1 []legal.Action
	for _, sc := range scenes {
		table1 = append(table1, sc.Action)
	}

	// The batch-closed workload's shape: Table 1 scenes under case
	// names, exact duplicates and Encrypted-flipped variants, shuffled.
	r := rand.New(rand.NewSource(1))
	var mixed []legal.Action
	for i := 0; i < 96; i++ {
		a := table1[r.Intn(len(table1))]
		a.Name = fmt.Sprintf("case-%06d", r.Intn(200_000))
		mixed = append(mixed, a)
	}
	for i := 0; i < 16; i++ {
		mixed = append(mixed, mixed[r.Intn(96)])
	}
	for i := 0; i < 16; i++ {
		a := mixed[r.Intn(96)]
		a.Encrypted = !a.Encrypted
		mixed = append(mixed, a)
	}
	r.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })

	// Every scene, then every scene again under other names: more
	// distinct rulings than fit one probe window, each under many names.
	var renamed []legal.Action
	for _, n := range []string{"", "again ", "<third> "} {
		for i, a := range table1 {
			a.Name = fmt.Sprintf("%sscene %d", n, i+1)
			renamed = append(renamed, a)
		}
	}

	// A lower-cased, a reordered and a duplicated-key spelling of
	// scene actions, each twice under other names.
	lower := strings.ToLower(string(marshal(table1[2])))
	reordered := `{"Source":3,"Data":1,"Timing":1,"Actor":1,"Name":"reordered"}`
	dupKeys := `{"Actor":2,"actor":1,"Timing":2,"Data":1,"Source":4,"Name":"dup","name":"dup2"}`

	// An invalid action that keys name-blind (Exposure is not in the
	// dispatch dimensions), repeated exactly and under another name.
	badExposure := `{"Name":"bad exposure","Actor":1,"Timing":2,"Data":1,"Source":4,"Exposure":[99]}`
	badRenamed := `{"Name":"bad again","Actor":1,"Timing":2,"Data":1,"Source":4,"Exposure":[99]}`
	badActor := `{"Name":"bad actor","Actor":99}`
	valid := string(marshal(table1[0]))

	// Remainders: objects that repeat after a leading name, including
	// ones that set Name again after it.
	remainders := []string{
		`{"Name":"r0","Actor":1,"Timing":2,"Data":1,"Source":4,"Name":"r0"}`,
		`{"Name":"r1","Actor":1,"Timing":2,"Data":1,"Source":4,"Name":"r0"}`,
		`{"Name":"r0","Actor":1,"Timing":2,"Data":1,"Source":4,"Consent":{"Scope":1},"name":"r0"}`,
		`{"Name":"r2","Actor":1,"Timing":2,"Data":1,"Source":4,"Consent":{"Scope":1},"name":"r0"}`,
		`{"Name":null,"Actor":1,"Timing":2,"Data":1,"Source":4}`,
		`{"Name":"x","Actor":1,"Timing":2,"Data":1,"Source":4}`,
		`{"Name": "spaced" ,"Actor":1,"Timing":2,"Data":1,"Source":4}`,
		`{"Name":"esc \u0041\n","Actor":1,"Timing":2,"Data":1,"Source":4}`,
	}

	return [][]byte{
		marshal(mixed),
		marshal(renamed),
		marshal(table1),
		batch(lower, reordered, dupKeys, lower, reordered, dupKeys),
		batch(badExposure, badExposure, badRenamed, valid, badActor, badActor, valid),
		batch(valid, badRenamed, valid, badExposure),
		batch(remainders...),
		batch(append(remainders, remainders...)...),
		[]byte(`[]`),
		[]byte(`null`),
		[]byte(`[{}]`),
	}
}

// FuzzServedBatch checks the served batch endpoint, status and bytes,
// against plainBatch on the same body. Three tenants serve every input:
// the default configuration, a 16-entry ruling cache whose generations
// evict in the middle of a batch, and the single-container doctrine.
// Their engines keep their caches across inputs, so the cache answers
// later inputs from earlier ones. Bodies encoding/json rejects carry
// no expectation beyond the handler not panicking. The seeds are whole
// batches, so minimizing each new interesting input costs thousands of
// batch evaluations: a short run wants -fuzzminimizetime 1x.
func FuzzServedBatch(f *testing.F) {
	for _, seed := range servedBatchSeeds() {
		f.Add(seed)
	}
	srv, err := New(WithTenants("default"))
	if err != nil {
		f.Fatal(err)
	}
	tenants := []struct {
		id     string
		cfg    RuleConfig
		oracle *legal.Engine
	}{
		{id: "default", oracle: legal.NewEngine()},
		{id: "small", cfg: RuleConfig{CacheCapacity: 16}, oracle: legal.NewEngine()},
		{id: "single", cfg: RuleConfig{Container: "single"},
			oracle: legal.NewEngine(legal.WithContainerDoctrine(legal.ContainerSingle))},
	}
	for _, tn := range tenants[1:] {
		if _, _, err := srv.Registry().Install(tn.id, tn.cfg); err != nil {
			f.Fatal(err)
		}
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, tn := range tenants {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST",
				"/v1/evaluate/batch?tenant="+tn.id, bytes.NewReader(body)))
			var actions []legal.Action
			if json.Unmarshal(body, &actions) != nil {
				continue
			}
			revision := srv.Registry().Get(tn.id).Engine().Revision
			status, want := plainBatch(tn.oracle, tn.id, revision, actions)
			if rec.Code != status {
				t.Fatalf("tenant %s: status %d, want %d: %s", tn.id, rec.Code, status, rec.Body.Bytes())
			}
			if status == http.StatusOK && !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("tenant %s: served batch diverges from the plain design on %s:\n got %s\nwant %s",
					tn.id, body, rec.Body.Bytes(), want)
			}
		}
	})
}
