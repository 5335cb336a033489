package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"lawgate/internal/legal"
	"lawgate/internal/report"
	"lawgate/internal/scenario"
)

// checkView encodes r and compares it with the stdlib rendering of its
// report view.
func checkView(t *testing.T, r *legal.Ruling) {
	t.Helper()
	want, err := json.Marshal(report.FromRuling(*r))
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendRulingViewFromRuling(nil, r); !bytes.Equal(got, want) {
		t.Fatalf("view mismatch:\n got %s\nwant %s", got, want)
	}
}

// memoHolds reports whether any memo slot holds s.
func memoHolds(s string) bool {
	for i := range memo {
		if e := memo[i].Load(); e != nil && e.s == s {
			return true
		}
	}
	return false
}

// clearMemo empties the escape memo. A test that fills every set
// empties it when done: the memo is process-wide, and two strings of
// one ruling that share a full set's slot evict each other on every
// render, which makes a later test's warm-memo pin miss.
func clearMemo() {
	for i := range memo {
		memo[i].Store(nil)
	}
}

// TestMemoEvictionByteIdentical renders rulings whose rationale lines
// and citation titles outnumber the memo's slots three times over,
// interleaved so that sets keep evicting each other, and requires
// every rendering to stay byte-identical to encoding/json.
func TestMemoEvictionByteIdentical(t *testing.T) {
	t.Cleanup(clearMemo)
	const distinct = 3 * memoSlots
	line := func(i int) string {
		return fmt.Sprintf("rationale %d <&> \u2028 line", i)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < distinct; i += 4 {
			// Pair each line with one half the pool away, so the strings
			// of one ruling were last seen far apart.
			j := (i + distinct/2) % distinct
			r := legal.Ruling{Verdict: &legal.Verdict{
				Rationale: []string{line(i), line(j), line(i + 1)},
				Citations: []legal.Citation{{Title: line(i + 2)}, {Title: line(j + 3)}},
			}}
			checkView(t, &r)
		}
	}
}

// TestMemoContentKeyed pins that the memo keys on a string's content,
// never its address: equal content at different addresses renders
// identically, and a string next to its own prefix (same address,
// shorter length) renders as itself.
func TestMemoContentKeyed(t *testing.T) {
	base := "consent by a co-occupant with common authority"
	clone := strings.Clone(base)
	prefix := base[:len("consent by a")]
	for _, rat := range [][]string{
		{base, clone},
		{clone, base},
		{base, prefix, base},
		{prefix, base, prefix},
	} {
		r := legal.Ruling{Verdict: &legal.Verdict{Rationale: rat, Citations: []legal.Citation{{Title: prefix}, {Title: base}}}}
		checkView(t, &r)
	}
	if !memoHolds(base) || !memoHolds(prefix) {
		t.Fatal("memo lacks the string or its prefix")
	}
}

// TestMemoSkipsLongStrings pins the memo's bound: a line longer than
// maxMemoLen renders correctly and is never stored.
func TestMemoSkipsLongStrings(t *testing.T) {
	long := strings.Repeat("a long <line> ", maxMemoLen/8)
	r := legal.Ruling{Verdict: &legal.Verdict{Rationale: []string{long, long}}}
	checkView(t, &r)
	if memoHolds(long) {
		t.Fatal("memo holds a line longer than maxMemoLen")
	}
}

// TestMemoConcurrentEncodes renders Table 1 rulings and colliding
// filler from many goroutines at once; under -race it checks the
// memo's publication, and each rendering is checked for identity.
func TestMemoConcurrentEncodes(t *testing.T) {
	t.Cleanup(clearMemo)
	rulings := table1Rulings(t)
	want := make([][]byte, len(rulings))
	for i := range rulings {
		var err error
		if want[i], err = json.Marshal(report.FromRuling(rulings[i])); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for n := 0; n < 200; n++ {
				i := (g + n) % len(rulings)
				if buf = AppendRulingViewFromRuling(buf[:0], &rulings[i]); !bytes.Equal(buf, want[i]) {
					errs <- fmt.Errorf("goroutine %d ruling %d:\n got %s\nwant %s", g, i, buf, want[i])
					return
				}
				filler := legal.Ruling{Verdict: &legal.Verdict{Rationale: []string{fmt.Sprintf("filler %d %d", g, n)}}}
				buf = AppendRulingViewFromRuling(buf[:0], &filler)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// table1Rulings rules every Table 1 scene on a cached engine, as
// lawgated does, so repeated rulings share their strings.
func table1Rulings(tb testing.TB) []legal.Ruling {
	eng := legal.NewEngine(legal.WithRulingCache(0))
	var rulings []legal.Ruling
	for _, sc := range scenario.Table1() {
		r, err := eng.Evaluate(sc.Action)
		if err != nil {
			tb.Fatal(err)
		}
		rulings = append(rulings, r)
	}
	return rulings
}

// TestWireEncodeTable1AllocsZero pins the escape-once claim: once the
// memo is warm, rendering any Table 1 ruling allocates nothing.
func TestWireEncodeTable1AllocsZero(t *testing.T) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	for i, r := range table1Rulings(t) {
		checkView(t, &r)
		if n := testing.AllocsPerRun(50, func() {
			buf.B = AppendRulingViewFromRuling(buf.B[:0], &r)
		}); n != 0 {
			t.Errorf("Table 1 ruling %d (%s): allocs/op = %v, want 0", i, r.Action.Name, n)
		}
	}
}

// TestMemoSkipsActionNames pins that the client-supplied action name
// never enters the memo: only the doctrine vocabulary is memoized.
func TestMemoSkipsActionNames(t *testing.T) {
	for _, r := range table1Rulings(t) {
		r.Action.Name = "client name " + r.Action.Name
		for n := 0; n < 3; n++ {
			checkView(t, &r)
		}
		if memoHolds(r.Action.Name) {
			t.Fatalf("memo holds the action name %q", r.Action.Name)
		}
		if len(r.Rationale) > 0 && !memoHolds(r.Rationale[0]) {
			t.Fatalf("memo lacks the rationale line %q", r.Rationale[0])
		}
	}
}

// BenchmarkWireEncodeTable1 encodes one Table 1 ruling per op, cycling
// through all 20, on a pooled buffer warmed with one pass: the
// doctrine vocabulary comes from the escape-once tables and the memo.
func BenchmarkWireEncodeTable1(b *testing.B) {
	rulings := table1Rulings(b)
	buf := GetBuffer()
	defer PutBuffer(buf)
	for i := range rulings {
		buf.B = AppendRulingViewFromRuling(buf.B[:0], &rulings[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.B = AppendRulingViewFromRuling(buf.B[:0], &rulings[i%len(rulings)])
	}
}
