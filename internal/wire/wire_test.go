package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"lawgate/internal/legal"
	"lawgate/internal/report"
	"lawgate/internal/scenario"
	"lawgate/internal/wire"
)

// sampleActions spans the Action surface: every pointer populated and
// nil, nil vs empty vs populated slices, and names exercising the
// escaper (HTML significands, control characters, line separators,
// invalid UTF-8).
func sampleActions() []legal.Action {
	return []legal.Action{
		{},
		{
			Name: "wiretap", Actor: legal.ActorGovernment, Timing: legal.TimingRealTime,
			Data: legal.DataContent, Source: legal.SourceOwnNetwork, Encrypted: true,
		},
		{
			Name:     "subpoena <records> & \"logs\"\n\ttab",
			Exposure: []legal.ExposureFact{},
		},
		{
			Name:     "exposure",
			Exposure: []legal.ExposureFact{1, 2, 3},
			Consent:  &legal.Consent{Scope: 2, Revoked: true},
			Exigency: &legal.Exigency{Kind: 1, Approved: true},
		},
		{
			Name:      "unicode \u2028\u2029 caf\u00e9 \xff\xfe bad",
			Tech:      &legal.SpecializedTech{GeneralPublicUse: true},
			Workplace: &legal.WorkplaceSearch{GovernmentEmployer: true, PermissibleScope: true},
		},
		{
			Name: "provider", ProviderRole: 2, ProviderPublic: true,
			InterceptsThirdParty: true, SearchBeyondAuthority: true,
			PlainView: true, LawfulVantage: true, ProbationSearch: true,
		},
	}
}

func sampleRulings() []legal.Ruling {
	return []legal.Ruling{
		{},
		{
			Action: sampleActions()[1],
			Verdict: &legal.Verdict{
				Required:   legal.ProcessWiretapOrder,
				Regime:     legal.RegimeWiretap,
				Exceptions: []legal.ExceptionKind{1},
				Privacy: &legal.PrivacyFinding{
					Reasonable: true,
					Reasons:    []string{"content of communications"},
					Citations:  []legal.Citation{{ID: "katz", Title: "Katz v. United States"}},
				},
				Rationale: []string{"real-time content", "Title III governs"},
				Citations: []legal.Citation{{ID: "t3", Title: "18 U.S.C. \u00a7 2511"}},
				Applied:   []string{"wiretap-rule"},
			},
		},
		{
			Action: sampleActions()[3],
			Verdict: &legal.Verdict{
				Required:   legal.ProcessNone,
				Regime:     legal.RegimeNone,
				Exceptions: []legal.ExceptionKind{},
				Rationale:  []string{},
				Citations:  []legal.Citation{},
				Applied:    nil,
			},
		},
	}
}

// edgeStrings are escaper torture inputs for the byte-identity check.
var edgeStrings = []string{
	"",
	"plain ascii",
	"<script>&amp;</script>",
	"ctrl \x00\x01\x1f\x7f del",
	"quotes \" and \\ backslash / slash",
	"\b\f\n\r\t",
	"line seps \u2028 \u2029",
	"caf\u00e9 \u65e5\u672c\u8a9e \U0001d11e",
	"bad utf8 \xff\xfe\xed\xa0\x80 end",
	"truncated \xc3",
}

func TestAppendStringMatchesStdlib(t *testing.T) {
	for _, s := range edgeStrings {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("stdlib refused %q: %v", s, err)
		}
		got := wire.AppendString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q)\n got %s\nwant %s", s, got, want)
		}
	}
}

func TestAppendRulingViewMatchesStdlib(t *testing.T) {
	for i, r := range sampleRulings() {
		want, err := json.Marshal(report.FromRuling(r))
		if err != nil {
			t.Fatal(err)
		}
		if got := wire.AppendRulingViewFromRuling(nil, &r); !bytes.Equal(got, want) {
			t.Errorf("view %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// decodeInputs are hand-written bodies covering the decode semantics
// the codec must share with encoding/json.
var decodeInputs = []string{
	`{}`,
	`null`,
	` { "Name" : "spaced" , "Actor" : 2 } `,
	`{"name":"lowercase keys","actor":1,"ENCRYPTED":true}`,
	`{"NaMe":"mixed","searchbeyondauthority":true}`,
	`{"Name":"dup","Name":"last wins"}`,
	`{"Unknown":{"deep":[1,{"x":null}]},"Name":"after unknown","other":1.5e3}`,
	`{"Exposure":null,"Consent":null,"Tech":null}`,
	`{"Exposure":[],"Consent":{},"Exigency":{"Kind":2}}`,
	`{"Exposure":[1,2,3],"Workplace":{"WorkRelated":true,"unknown":"x"}}`,
	`{"Consent":{"Scope":1},"Consent":{"Revoked":true}}`,
	`{"Consent":{"Scope":1},"Consent":null}`,
	`{"Name":"esc \u0041\u2028\ud834\udd1e\n","Actor":-1}`,
	`{"Name":null,"Actor":null,"Encrypted":null}`,
	`{"Exposure":[null,2]}`,
	`{"Actor":0}`,
}

func TestDecodeActionMatchesStdlib(t *testing.T) {
	for _, a := range sampleActions() {
		j, _ := json.Marshal(a)
		decodeActionBoth(t, j)
	}
	for _, in := range decodeInputs {
		decodeActionBoth(t, []byte(in))
	}
}

func decodeActionBoth(t *testing.T, data []byte) {
	t.Helper()
	var want legal.Action
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("stdlib rejected %s: %v", data, err)
	}
	var got legal.Action
	if err := wire.DecodeAction(data, &got); err != nil {
		t.Fatalf("wire rejected %s: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decode %s:\n got %+v\nwant %+v", data, got, want)
	}
}

func TestDecodeActionRejects(t *testing.T) {
	for _, in := range []string{
		``, `{`, `{"Name"}`, `{"Name":}`, `{"Name":"x"`, `[1]`, `"s"`, `42`,
		`{"Actor":1.5}`, `{"Actor":1e3}`, `{"Actor":007}`, `{"Actor":99999999999999999999}`,
		`{"Name":"raw ` + "\x01" + ` ctrl"}`, `{"Name":"bad \q escape"}`,
		`{"Encrypted":yes}`, `{"Name":"x" "y":1}`, `{"Exposure":[1,]}`,
		`{"Name`, `{"Name"`, `{"Name" `, `{"Name";1}`, `{"` + strings.Repeat("k", 32),
	} {
		var a legal.Action
		if err := wire.DecodeAction([]byte(in), &a); err == nil {
			t.Errorf("DecodeAction accepted %q", in)
		}
	}
}

// Decoded pointer fields must never alias an earlier decode's
// allocations: the engine's ruling cache retains a shallow Action
// copy, so shared backing would let one request corrupt another's
// cached ruling.
func TestDecodeActionFreshAllocations(t *testing.T) {
	data := []byte(`{"Name":"a","Exposure":[1,2],"Consent":{"Scope":1},"Exigency":{"Kind":1},"Tech":{},"Workplace":{}}`)
	var a1, a2 legal.Action
	if err := wire.DecodeAction(data, &a1); err != nil {
		t.Fatal(err)
	}
	if err := wire.DecodeAction(data, &a2); err != nil {
		t.Fatal(err)
	}
	if a1.Consent == a2.Consent || a1.Exigency == a2.Exigency ||
		a1.Tech == a2.Tech || a1.Workplace == a2.Workplace {
		t.Fatal("pointer fields alias across decodes")
	}
	if &a1.Exposure[0] == &a2.Exposure[0] {
		t.Fatal("exposure backing aliases across decodes")
	}
	a1.Consent.Scope = 99
	a1.Exposure[0] = 99
	if a2.Consent.Scope == 99 || a2.Exposure[0] == 99 {
		t.Fatal("mutating one decode's result changed another's")
	}
}

func TestDecodeActionsReusesBacking(t *testing.T) {
	data := []byte(`[{"Name":"a"},{"Name":"b","Actor":2},{"Name":"c"}]`)
	var want []legal.Action
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got, err := wire.DecodeActions(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
	p0 := &got[0]
	// A second decode into the same slice reuses the backing array.
	got2, err := wire.DecodeActions([]byte(`[{"Name":"z"}]`), got)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 || got2[0].Name != "z" {
		t.Fatalf("second decode: %+v", got2)
	}
	if &got2[0] != p0 {
		t.Fatal("backing array not reused")
	}
	// Empty and null both yield the truncated destination.
	for _, in := range []string{`[]`, `null`, ` [ ] `} {
		out, err := wire.DecodeActions([]byte(in), got2)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if len(out) != 0 {
			t.Fatalf("%q: len %d", in, len(out))
		}
	}
}

// keyCases are object bodies exercising member-key matching: recased,
// reordered, duplicated, unknown, escaped, spaced and over-long keys,
// and Unicode case folding.
func keyCases() []string {
	canon := fullAction()
	// Only keys are re-cased: each is a quoted word followed by ':'.
	keyRE := regexp.MustCompile(`"\w+":`)
	recase := func(f func(string) string) string {
		return keyRE.ReplaceAllStringFunc(string(canon), f)
	}
	mixed := func(k string) string {
		b := []byte(strings.ToLower(k))
		for i := 1; i < len(b); i += 2 {
			b[i] = strings.ToUpper(string(b[i]))[0]
		}
		return string(b)
	}
	k32, k33 := strings.Repeat("k", 32), strings.Repeat("K", 33)
	return []string{
		string(canon),
		recase(strings.ToLower),
		recase(strings.ToUpper),
		recase(mixed),
		// Reordered, duplicated and unknown keys.
		`{"SearchBeyondAuthority":true,"Source":3,"Data":1,"Timing":2,"Actor":1,"Name":"reordered"}`,
		`{"Actor":1,"actor":2,"ACTOR":3,"Consent":{"Scope":1,"scope":2},"Name":"dup","name":"dup2"}`,
		`{"Unknown":1,"Name":"unknown","NameX":"x","Nam":"y","Consent":{"Bogus":[1,{"a":2}],"Revoked":true}}`,
		// An escaped key and whitespace before ':' take the general path.
		`{"N\u0061me":"escaped","Act\u006fr":2,"Consent":{"Sc\u006Fpe":1}}`,
		`{"Name" :"spaced","Actor"` + "\t\n" + `:2,"Consent":{"Revoked"  : true}}`,
		`{"Name":"pad", "Actor"` + " \r" + `: 1 }`,
		// Keys of exactly the fold buffer's length and one byte past it.
		`{"` + k32 + `":1,"Name":"k32","Exigency":{"` + k32 + `":{"x":1},"Kind":2}}`,
		`{"` + k33 + `":1,"Name":"k33","Exigency":{"` + k33 + `":[],"Kind":2}}`,
		`{"` + k32 + `":"` + k33 + `","` + strings.ToUpper(k32) + `":null}`,
		// The Kelvin sign folds to k and the long s to s, escaped or raw.
		`{"Exigency":{"\u212aind":3},"Con\u017fent":{"\u017fcope":1}}`,
		`{"Exigency":{"` + "\u212a" + `ind":3},"` + "Con\u017fent" + `":{"Revoked":true}}`,
		`{"` + "Wor\u212aplace" + `":{"` + "Wor\u212aRelated" + `":true}}`,
		// An empty key.
		`{"":1,"Name":"empty key"}`,
	}
}

// fullAction is json.Marshal of an action with every member set, each
// to a value other than its zero value.
func fullAction() []byte {
	canon, err := json.Marshal(legal.Action{
		Name: "keys", Actor: 1, Timing: 2, Data: 1, Source: 3, Encrypted: true,
		Exposure: []legal.ExposureFact{1}, Consent: &legal.Consent{Scope: 2, Revoked: true, ExceedsScope: true, AllPartiesRequired: true},
		Exigency: &legal.Exigency{Kind: 1, Approved: true}, Tech: &legal.SpecializedTech{GeneralPublicUse: true, RevealsHomeInterior: true},
		Workplace:    &legal.WorkplaceSearch{GovernmentEmployer: true, WorkRelated: true, JustifiedAtInception: true, PermissibleScope: true},
		ProviderRole: 2, PlainView: true, LawfulVantage: true, ProbationSearch: true, ProviderPublic: true,
		InterceptsThirdParty: true, SearchBeyondAuthority: true,
	})
	if err != nil {
		panic(err)
	}
	return canon
}

// reorder re-emits the JSON object obj with its members, and those of
// the objects nested in it, in the order perm leaves a list of their
// indexes in. Any other value is returned as it is.
func reorder(obj []byte, perm func(idx []int)) string {
	if len(obj) == 0 || obj[0] != '{' {
		return string(obj)
	}
	type member struct {
		key string
		val json.RawMessage
	}
	var ms []member
	dec := json.NewDecoder(bytes.NewReader(obj))
	if _, err := dec.Token(); err != nil {
		panic(err)
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			panic(err)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			panic(err)
		}
		ms = append(ms, member{k.(string), v})
	}
	idx := make([]int, len(ms))
	for i := range idx {
		idx[i] = i
	}
	perm(idx)
	var b strings.Builder
	b.WriteByte('{')
	for j, i := range idx {
		if j > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(ms[i].key)
		b.Write(k)
		b.WriteByte(':')
		b.WriteString(reorder(ms[i].val, perm))
	}
	b.WriteByte('}')
	return b.String()
}

func reverse(idx []int) {
	for i, j := 0, len(idx)-1; i < j; i, j = i+1, j-1 {
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// orderCases are object bodies exercising the declared-order key match
// (a member spelled exactly as json.Marshal writes it, right after the
// member decoded before it) and each shape that leaves it for the
// folded lookup.
func orderCases() []string {
	canon := fullAction()
	r := rand.New(rand.NewSource(7))
	shuffle := func(idx []int) { r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] }) }
	return []string{
		string(canon),
		reorder(canon, reverse),
		reorder(canon, shuffle),
		reorder(canon, shuffle),
		// Scalar duplicates are last-wins; pointer duplicates merge.
		`{"Name":"a","Actor":1,"Actor":2,"Timing":2,"Name":"b","Timing":1}`,
		`{"Name":"a","Consent":{"Scope":1},"Consent":{"Revoked":true},"Exigency":{"Kind":1},"Exigency":null,"Exigency":{"Approved":true}}`,
		`{"Name":"a","Exposure":[1],"Consent":{"Scope":1,"Revoked":true,"Scope":2,"Revoked":false}}`,
		// Recased keys, and the Kelvin sign, where the exact key is next.
		`{"name":"lower","actor":1,"timing":2,"data":1,"source":3,"consent":{"scope":1,"revoked":true}}`,
		`{"NAME":"upper","ACTOR":1,"TIMING":2,"Data":1,"SOURCE":3,"CONSENT":{"SCOPE":1}}`,
		`{"Name":"kelvin","Exigency":{"\u212aind":2,"Approved":true},"Tech":null,"Wor` + "\u212a" + `place":{"GovernmentEmployer":true,"Wor` + "\u212a" + `Related":true}}`,
		// An escaped key, and whitespace before ':'.
		`{"N\u0061me":"escaped","Actor":1,"Tim\u0069ng":2,"Data":1}`,
		`{"Name" :"spaced","Actor":1,"Timing"` + "\t" + `:2,"Data":1,"Consent":{"Scope" :1,"Revoked":true}}`,
		// Unknown keys between known ones.
		`{"Name":"unknown","Bogus":1,"Actor":1,"Other":{"Timing":9},"Timing":2,"Consent":{"Scope":1,"X":[],"Revoked":true}}`,
		// Keys that extend or cut short a member name.
		`{"Name":"prefix","Data":1,"Database":2,"Tech":{"GeneralPublicUse":true},"TechX":{"GeneralPublicUse":false}}`,
		`{"Names":"x","Name":"prefix","Nam":"y","Dat":3,"Data":2,"Datab":1,"TechX":null,"Tech":null,"Tec":{}}`,
	}
}

// truncatedAfterKey are bodies cut right after a key the declared-order
// match accepts; encoding/json rejects each.
var truncatedAfterKey = []string{
	`{"Name":`,
	`{"Name":"a","Actor":`,
	`{"Name":"a","Actor":1,"Consent":{"Scope":`,
	`{"Name":"a","Tech":{"GeneralPublicUse": `,
	`[{"Name":"a"},{"Name":`,
}

// decodeCasesBoth checks each case against encoding/json singly, then
// all cases as one batch, element by element.
func decodeCasesBoth(t *testing.T, cases []string) {
	t.Helper()
	for _, in := range cases {
		decodeActionBoth(t, []byte(in))
	}
	decodeBatchBoth(t, []byte("["+strings.Join(cases, ",")+"]"))
}

// TestKeyMatchingMatchesStdlib checks member-key matching against
// encoding/json case by case, singly and as one batch element by
// element.
func TestKeyMatchingMatchesStdlib(t *testing.T) {
	decodeCasesBoth(t, keyCases())
}

// TestKeyOrderMatchesStdlib checks the declared-order key match and
// its fallbacks against encoding/json: members in any order, recased,
// escaped, duplicated, unknown or prefix-confusable, and input cut
// right after an exactly matched key.
func TestKeyOrderMatchesStdlib(t *testing.T) {
	decodeCasesBoth(t, orderCases())
	for _, in := range truncatedAfterKey {
		var a legal.Action
		var as []legal.Action
		if json.Unmarshal([]byte(in), &a) == nil || json.Unmarshal([]byte(in), &as) == nil {
			t.Fatalf("stdlib accepted %q", in)
		}
		if err := wire.DecodeAction([]byte(in), &a); err == nil {
			t.Errorf("DecodeAction accepted %q", in)
		}
		if _, err := wire.DecodeActions([]byte(in), nil); err == nil {
			t.Errorf("DecodeActions accepted %q", in)
		}
	}
}

// FuzzWireRoundTrip is the differential proof of the codec's contract
// on the functions lawgated serves through: any input encoding/json
// accepts as an Action or an []Action, DecodeAction and DecodeActions
// must decode to deeply equal values; any input it accepts as a
// Ruling, AppendRulingViewFromRuling must render to the exact bytes
// json.Marshal(report.FromRuling(r)) produces. Arbitrary bytes also
// feed the string escaper directly. In repeat mode, an input object is
// also decoded as a batch of 2 or 3 slots under other leading names
// (withLeadingName), so later slots may be served from an earlier
// slot's remainder.
func FuzzWireRoundTrip(f *testing.F) {
	for _, a := range sampleActions() {
		j, _ := json.Marshal(a)
		f.Add(j)
	}
	for _, r := range sampleRulings() {
		j, _ := json.Marshal(r)
		f.Add(j)
		j2, _ := json.Marshal(report.FromRuling(r))
		f.Add(j2)
	}
	for _, in := range decodeInputs {
		f.Add([]byte(in))
	}
	f.Add([]byte(`{"\u004eAME":"escaped key","\u212aind":1}`))
	f.Add([]byte(`{"name":"\ud800 lone \udc00 pair \ud834\udd1e"}`))
	for _, in := range decodeInputs {
		f.Add([]byte("[" + in + "]"))
	}
	// Short shapes leave the mutator few bytes to spend on the enum
	// values and array edges the long marshaled seeds bury.
	f.Add([]byte(`[ ]`))
	f.Add([]byte(`{"Required":2,"Regime":1,"Exceptions":[3],"Rationale":[""],"Citations":[{}]}`))
	for _, in := range append(keyCases(), orderCases()...) {
		f.Add([]byte(in))
		f.Add([]byte("[" + in + "]"))
	}
	for _, in := range truncatedAfterKey {
		f.Add([]byte(in))
	}
	for _, in := range remainderCases {
		f.Add([]byte(in))
	}
	f.Add(repeated(remainderCases))
	f.Add([]byte(`[{"Name":"a","Actor":1,"Consent":{"Scope":1}},{"Name":"b","Actor":1,"Consent":{"Sco`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The escaper must match stdlib on arbitrary string content.
		s := string(data)
		if want, err := json.Marshal(s); err == nil {
			if got := wire.AppendString(nil, s); !bytes.Equal(got, want) {
				t.Fatalf("AppendString(%q)\n got %s\nwant %s", s, got, want)
			}
		}

		var wantA legal.Action
		if err := json.Unmarshal(data, &wantA); err == nil {
			var gotA legal.Action
			if err := wire.DecodeAction(data, &gotA); err != nil {
				t.Fatalf("wire.DecodeAction rejected stdlib-accepted %q: %v", data, err)
			}
			if !reflect.DeepEqual(gotA, wantA) {
				t.Fatalf("decode mismatch on %q:\n got %+v\nwant %+v", data, gotA, wantA)
			}
		}

		// DecodeActions may return nil where stdlib returns an empty
		// slice (it truncates its destination), so lengths and elements
		// are compared, not the slice headers.
		checkBatch := func(data []byte) {
			var wantAs []legal.Action
			if err := json.Unmarshal(data, &wantAs); err != nil {
				return
			}
			gotAs, err := wire.DecodeActions(data, nil)
			if err != nil {
				t.Fatalf("wire.DecodeActions rejected stdlib-accepted %q: %v", data, err)
			}
			if len(gotAs) != len(wantAs) {
				t.Fatalf("batch decode on %q: got %d actions, want %d", data, len(gotAs), len(wantAs))
			}
			for i := range wantAs {
				if !reflect.DeepEqual(gotAs[i], wantAs[i]) {
					t.Fatalf("batch decode mismatch at %d on %q:\n got %+v\nwant %+v", i, data, gotAs[i], wantAs[i])
				}
			}
		}
		checkBatch(data)
		if withLeadingName(data, "") != nil {
			slots := make([][]byte, 2+len(data)%2)
			for i := range slots {
				slots[i] = withLeadingName(data, repeatNames[i])
			}
			checkBatch(append(append([]byte("["), bytes.Join(slots, []byte(","))...), ']'))
		}

		var r legal.Ruling
		if err := json.Unmarshal(data, &r); err == nil {
			std, err := json.Marshal(report.FromRuling(r))
			if err != nil {
				t.Fatal(err)
			}
			if got := wire.AppendRulingViewFromRuling(nil, &r); !bytes.Equal(got, std) {
				t.Fatalf("view encode mismatch on %q:\n got %s\nwant %s", data, got, std)
			}
		}
	})
}

// hotAction is the scalar-only shape the serving hot path decodes:
// no pointers, no exposure slice — the shape that must cost zero
// allocations at steady state.
var hotAction = legal.Action{
	Name: "seize stored email", Actor: 1, Timing: 2, Data: 1, Source: 3,
	Encrypted: true, ProviderRole: 2, ProviderPublic: true,
}

// hotRuling approximates a served ruling: a few rationale lines and
// citations, no privacy finding pointer chasing beyond the slices.
var hotRuling = legal.Ruling{
	Action: hotAction,
	Verdict: &legal.Verdict{
		Required: legal.ProcessSearchWarrant,
		Regime:   legal.RegimeSCA,
		Rationale: []string{
			"stored content at a public provider",
			"SCA \u00a7 2703(a) requires a warrant for content",
		},
		Citations: []legal.Citation{{ID: "sca", Title: "18 U.S.C. \u00a7 2703"}},
		Applied:   []string{"sca-content-rule"},
	},
}

// TestWireEncodeAllocsZero pins the encoder's zero-allocation claim:
// appending the served ruling projection into a warmed pooled buffer
// allocates nothing.
func TestWireEncodeAllocsZero(t *testing.T) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	buf.B = wire.AppendRulingViewFromRuling(buf.B[:0], &hotRuling)
	if n := testing.AllocsPerRun(200, func() {
		buf.B = wire.AppendRulingViewFromRuling(buf.B[:0], &hotRuling)
	}); n != 0 {
		t.Errorf("AppendRulingViewFromRuling allocs/op = %v, want 0", n)
	}
}

// TestWireDecodeAllocsNamesOnly pins the decoder's steady-state claim:
// decoding the scalar-only hot shape allocates only the action's name,
// once per decoded object.
func TestWireDecodeAllocsNamesOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the decode path; AllocsPerRun is meaningless here")
	}
	data, err := json.Marshal(hotAction)
	if err != nil {
		t.Fatal(err)
	}
	var a legal.Action
	if err := wire.DecodeAction(data, &a); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := wire.DecodeAction(data, &a); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("DecodeAction allocs/op = %v, want 1 (the name)", n)
	}

	batch := []byte(`[` + string(data) + `,` + string(data) + `,` + string(data) + `]`)
	actions, err := wire.DecodeActions(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		actions, err = wire.DecodeActions(batch, actions)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Errorf("DecodeActions allocs/op = %v, want 3 (one name per slot)", n)
	}
}

// BenchmarkWireEncode is the gated serving-response encode: the direct
// Ruling -> view-JSON projection on a pooled buffer. Must stay at
// 0 allocs/op.
func BenchmarkWireEncode(b *testing.B) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.B = wire.AppendRulingViewFromRuling(buf.B[:0], &hotRuling)
	}
}

// BenchmarkWireEncodeStdlib is the encoding/json baseline for the same
// projection (FromRuling + Marshal) — the path writeJSON used before
// this codec.
func BenchmarkWireEncodeStdlib(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(report.FromRuling(hotRuling)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode is the gated serving-request decode: the hot
// action shape into a reused struct. Must stay at 1 allocs/op, the
// decoded name.
func BenchmarkWireDecode(b *testing.B) {
	data, err := json.Marshal(hotAction)
	if err != nil {
		b.Fatal(err)
	}
	var a legal.Action
	if err := wire.DecodeAction(data, &a); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.DecodeAction(data, &a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeStdlib is the encoding/json baseline decode.
func BenchmarkWireDecodeStdlib(b *testing.B) {
	data, err := json.Marshal(hotAction)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var a legal.Action
		if err := json.Unmarshal(data, &a); err != nil {
			b.Fatal(err)
		}
	}
}

// batchActions mirrors the batches lawgated's batch-closed workload
// sends: 192 Table 1 scene actions under distinct case names, 32 exact
// duplicates of earlier slots and 32 variants with Encrypted flipped,
// shuffled, 256 in all.
func batchActions() []legal.Action {
	scenes := scenario.Table1()
	r := rand.New(rand.NewSource(1))
	var actions []legal.Action
	for i := 0; i < 192; i++ {
		a := scenes[r.Intn(len(scenes))].Action
		a.Name = fmt.Sprintf("case-%06d", r.Intn(200_000))
		actions = append(actions, a)
	}
	for i := 0; i < 32; i++ {
		actions = append(actions, actions[r.Intn(192)])
	}
	for i := 0; i < 32; i++ {
		a := actions[r.Intn(192)]
		a.Encrypted = !a.Encrypted
		actions = append(actions, a)
	}
	r.Shuffle(len(actions), func(i, j int) { actions[i], actions[j] = actions[j], actions[i] })
	return actions
}

// BenchmarkWireDecodeBatch decodes one 256-action batch per op into a
// reused slice. Its only allocations are the names and the fresh
// Exposure slices and sub-objects the batch's scene actions carry (see
// TestWireDecodeBatchAllocs).
func BenchmarkWireDecodeBatch(b *testing.B) {
	data, err := json.Marshal(batchActions())
	if err != nil {
		b.Fatal(err)
	}
	actions, err := wire.DecodeActions(data, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if actions, err = wire.DecodeActions(data, actions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeBatchStdlib is the encoding/json baseline for
// BenchmarkWireDecodeBatch: json.Unmarshal of the same batch.
func BenchmarkWireDecodeBatchStdlib(b *testing.B) {
	data, err := json.Marshal(batchActions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var actions []legal.Action
		if err := json.Unmarshal(data, &actions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeBatchReordered decodes BenchmarkWireDecodeBatch's
// batch with every object's keys in reverse order, so no key takes the
// declared-order match: the fallback path's cost, under the same
// allocation budget.
func BenchmarkWireDecodeBatchReordered(b *testing.B) {
	var objs []string
	for _, a := range batchActions() {
		j, err := json.Marshal(a)
		if err != nil {
			b.Fatal(err)
		}
		objs = append(objs, reorder(j, reverse))
	}
	data := []byte("[" + strings.Join(objs, ",") + "]")
	actions, err := wire.DecodeActions(data, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if actions, err = wire.DecodeActions(data, actions); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireDecodeBatchAllocs pins the batch decode's allocations to the
// ones the decoded values must own: one per non-empty Name, and one per
// non-nil Exposure slice and sub-object, which the engine's ruling
// cache may retain. The scalar fields allocate nothing.
func TestWireDecodeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the decode path; AllocsPerRun is meaningless here")
	}
	batch := batchActions()
	forced := 0
	for _, a := range batch {
		for _, set := range []bool{a.Name != "", a.Exposure != nil, a.Consent != nil, a.Exigency != nil, a.Tech != nil, a.Workplace != nil} {
			if set {
				forced++
			}
		}
	}
	data, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	actions, err := wire.DecodeActions(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if actions, err = wire.DecodeActions(data, actions); err != nil {
			t.Fatal(err)
		}
	}); int(n) != forced {
		t.Errorf("DecodeActions allocs/op = %v, want the %d fresh names, slices and sub-objects", n, forced)
	}
}
