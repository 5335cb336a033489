package wire

import (
	"reflect"
	"strings"
	"testing"

	"lawgate/internal/legal"
)

// TestMembersInDeclarationOrder pins each members table to its struct:
// entry i must be field i's name, as encoding/json writes it, or the
// declared-order match would never fire and the member functions'
// field indexes would set the wrong fields.
func TestMembersInDeclarationOrder(t *testing.T) {
	for _, tc := range []struct {
		m *members
		v any
	}{
		{actionMembers, legal.Action{}},
		{consentMembers, legal.Consent{}},
		{exigencyMembers, legal.Exigency{}},
		{techMembers, legal.SpecializedTech{}},
		{workplaceMembers, legal.WorkplaceSearch{}},
	} {
		typ := reflect.TypeOf(tc.v)
		if len(tc.m.exact) != typ.NumField() || len(tc.m.folded) != typ.NumField() {
			t.Errorf("%s: %d names for %d fields", typ, len(tc.m.exact), typ.NumField())
			continue
		}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if tc.m.exact[i] != `"`+name+`":` || tc.m.folded[i] != strings.ToLower(name) {
				t.Errorf("%s field %d is %s, table has %s and %s", typ, i, name, tc.m.exact[i], tc.m.folded[i])
			}
		}
	}
}
