package wire_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"lawgate/internal/legal"
	"lawgate/internal/wire"
)

// withLeadingName returns obj, a JSON object, opening with a "Name"
// member whose value is the JSON text name, as json.Marshal opens an
// action: a leading "Name" member has its value replaced, and any
// other object gets one prepended, so a later "Name" or "name" in it
// sets Name again. It returns nil when obj is not an object.
func withLeadingName(obj []byte, name string) []byte {
	q := []byte(name)
	const lead = `{"Name":`
	if rest, ok := bytes.CutPrefix(obj, []byte(lead)); ok {
		dec := json.NewDecoder(bytes.NewReader(rest))
		var v json.RawMessage
		if dec.Decode(&v) == nil {
			return append(append([]byte(lead), q...), rest[dec.InputOffset():]...)
		}
	}
	if len(obj) == 0 || obj[0] != '{' {
		return nil
	}
	out := append([]byte(lead), q...)
	if body := bytes.TrimLeft(obj[1:], " \t\r\n"); len(body) > 0 && body[0] != '}' {
		out = append(out, ',')
	}
	return append(out, obj[1:]...)
}

// repeatNames are the leading Name values, as JSON text, each object
// is repeated under: plain, null, escaped, and spaced on both sides. A
// remainder that sets Name to "r0" again must not be reused: the first
// slot's result then equals its leading name, the later slots' results
// do not.
var repeatNames = []string{`"r0"`, `"r1"`, `null`, `"r\u0033\n"`, ` "r4" `}

// repeated returns a batch of every body as it is, then every body
// under every repeatNames name: all bodies under the first name, then
// all under the second, and so on, so each body's later slots find the
// first in the table among the others.
func repeated(bodies []string) []byte {
	elems := append([]string(nil), bodies...)
	for _, n := range repeatNames {
		for _, b := range bodies {
			elems = append(elems, string(withLeadingName([]byte(b), n)))
		}
	}
	return []byte("[" + strings.Join(elems, ",") + "]")
}

// remainderCases are bodies that exercise DecodeActions' remainder
// table: remainders that set Name again, the empty remainder, a null
// and an escaped leading name, whitespace around the Name value, a
// Name that is not the first member, and remainders that differ only
// after their first '}'.
var remainderCases = []string{
	`{"Name":"r0","Actor":1,"Name":"r0"}`,
	`{"Name":"r0","Consent":{"Scope":1},"name":"r0"}`,
	`{"Actor":2,"NAME":"r0","Exposure":[1]}`,
	`{"Name":"x"}`,
	`{"Name":null,"Actor":2,"Tech":{"GeneralPublicUse":true}}`,
	`{"Name":"esc \u0041\u2028\ud834\udd1e\n","Actor":2,"Exposure":[]}`,
	`{"Name": "spaced" ,"Actor":1 ,"Exigency":{"Kind":1} }`,
	`{"Name":"pad"   }`,
	`{"Actor":1,"Name":"second","Workplace":{"WorkRelated":true}}`,
	`{"Name":"a","Consent":{"Scope":1},"Consent":{"Revoked":true},"Consent":null,"Consent":{"ExceedsScope":true}}`,
	`{"Name":"a","Unknown":"}","Actor":3}`,
	// Remainders that share their bytes through the first '}'.
	`{"Name":"a","Consent":{"Scope":1},"Actor":1}`,
	`{"Name":"a","Consent":{"Scope":1},"Actor":2}`,
}

// decodeBatchBoth decodes batch with DecodeActions and encoding/json
// and compares them element by element.
func decodeBatchBoth(t *testing.T, batch []byte) {
	t.Helper()
	var want []legal.Action
	if err := json.Unmarshal(batch, &want); err != nil {
		t.Fatalf("stdlib rejected %s: %v", batch, err)
	}
	got, err := wire.DecodeActions(batch, nil)
	if err != nil {
		t.Fatalf("wire rejected %s: %v", batch, err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d actions, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("element %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestRemainderMatchesStdlib checks batches in which objects repeat
// under other leading names against encoding/json, element by element.
func TestRemainderMatchesStdlib(t *testing.T) {
	bodies := append(append(keyCases(), string(fullAction())), remainderCases...)
	decodeBatchBoth(t, repeated(bodies))
	for _, b := range bodies {
		decodeBatchBoth(t, repeated([]string{b}))
	}
	// A batch where the remainder repeats, not the whole object.
	for _, a := range batchActions()[:8] {
		j, _ := json.Marshal(a)
		decodeBatchBoth(t, repeated([]string{string(j)}))
	}
}

// TestRemainderRejectsTruncated checks that a remainder cut short, a
// prefix of one decoded earlier in the batch, is rejected as
// encoding/json rejects it.
func TestRemainderRejectsTruncated(t *testing.T) {
	full := `{"Name":"a","Actor":1,"Consent":{"Scope":1},"Exigency":{"Kind":2}}`
	rem := full[len(`{"Name":"a"`):]
	for n := 0; n < len(rem); n++ {
		in := "[" + full + `,{"Name":"b"` + rem[:n]
		var as []legal.Action
		if json.Unmarshal([]byte(in), &as) == nil {
			t.Fatalf("stdlib accepted %q", in)
		}
		if _, err := wire.DecodeActions([]byte(in), nil); err == nil {
			t.Errorf("DecodeActions accepted %q", in)
		}
		if in += "]"; json.Unmarshal([]byte(in), &as) == nil {
			t.Fatalf("stdlib accepted %q", in)
		}
		if _, err := wire.DecodeActions([]byte(in), nil); err == nil {
			t.Errorf("DecodeActions accepted %q", in)
		}
	}
}

// mutate writes a new value into every element of a's slice and every
// field of its sub-objects.
func mutate(a *legal.Action) {
	for i := range a.Exposure {
		a.Exposure[i] += 100
	}
	if c := a.Consent; c != nil {
		c.Scope += 100
		c.Revoked, c.ExceedsScope, c.AllPartiesRequired = !c.Revoked, !c.ExceedsScope, !c.AllPartiesRequired
	}
	if x := a.Exigency; x != nil {
		x.Kind += 100
		x.Approved = !x.Approved
	}
	if s := a.Tech; s != nil {
		s.GeneralPublicUse, s.RevealsHomeInterior = !s.GeneralPublicUse, !s.RevealsHomeInterior
	}
	if w := a.Workplace; w != nil {
		w.GovernmentEmployer, w.WorkRelated = !w.GovernmentEmployer, !w.WorkRelated
		w.JustifiedAtInception, w.PermissibleScope = !w.JustifiedAtInception, !w.PermissibleScope
	}
}

// TestRemainderNoAliasing checks that slots decoded from one remainder
// share no memory: mutating every slice element and sub-object field
// of one slot leaves every other slot as encoding/json decodes it.
func TestRemainderNoAliasing(t *testing.T) {
	batch := repeated([]string{string(fullAction()), `{"Name":"e","Exposure":[1,2],"Tech":{}}`})
	var want []legal.Action
	if err := json.Unmarshal(batch, &want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		got, err := wire.DecodeActions(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		mutate(&got[i])
		for j := range got {
			if j != i && !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("mutating slot %d changed slot %d:\n got %+v\nwant %+v", i, j, got[j], want[j])
			}
		}
	}
}
