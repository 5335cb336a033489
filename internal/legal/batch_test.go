package legal

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestEvaluateBatchMatchesSequential: the batch API is a keyed
// refactoring of the sequential loop, so across a broad sweep the rulings
// must be identical, in input order.
func TestEvaluateBatchMatchesSequential(t *testing.T) {
	actions := sweepActions()
	e := NewEngine()
	want := make([]Ruling, len(actions))
	for i, a := range actions {
		r, err := e.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	got, err := NewEngine().EvaluateBatch(context.Background(), actions)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rulings, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("ruling %d diverged from sequential:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestEvaluateBatchWithCacheMatchesSequential: batch + cache together —
// several batches running at once on one cache-enabled engine must each
// reproduce the sequential rulings (this is also the race-detector
// workout for the lock-free cache's concurrent readers and writers).
func TestEvaluateBatchWithCacheMatchesSequential(t *testing.T) {
	actions := sweepActions()
	// Duplicate the set so cache hits occur mid-batch.
	actions = append(actions, actions...)
	plain := NewEngine()
	want := make([]Ruling, len(actions))
	for i, a := range actions {
		r, err := plain.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	cached := NewEngine(WithRulingCache(0))
	const batches = 4
	got := make([][]Ruling, batches)
	errs := make([]error, batches)
	var wg sync.WaitGroup
	for b := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each batch starts at another offset, so the batches
			// insert and probe the same keys in different orders.
			rotated := append(append([]Action(nil), actions[b*len(actions)/batches:]...),
				actions[:b*len(actions)/batches]...)
			got[b], errs[b] = cached.EvaluateBatch(context.Background(), rotated)
		}()
	}
	wg.Wait()
	for b := range got {
		if errs[b] != nil {
			t.Fatalf("batch %d: %v", b, errs[b])
		}
		off := b * len(actions) / batches
		for i := range got[b] {
			if w := want[(i+off)%len(actions)]; !reflect.DeepEqual(got[b][i], w) {
				t.Fatalf("batch %d: cached ruling %d diverged:\n got %+v\nwant %+v", b, i, got[b][i], w)
			}
		}
	}
	if n := cached.CacheSize(); n == 0 || n > len(actions)/2 {
		t.Errorf("cache size %d outside (0, %d]", n, len(actions)/2)
	}
}

// TestEvaluateBatchPartialErrors: invalid actions error by index without
// aborting the rest of the batch.
func TestEvaluateBatchPartialErrors(t *testing.T) {
	valid := Action{
		Name: "ok", Actor: ActorGovernment, Timing: TimingStored,
		Data: DataDeviceContents, Source: SourceTargetDevice,
	}
	actions := []Action{valid, {Name: "broken"}, valid}
	rulings, err := NewEngine().EvaluateBatch(context.Background(), actions)
	if err == nil {
		t.Fatal("batch with an invalid action must report an error")
	}
	if !strings.Contains(err.Error(), "action 1") {
		t.Errorf("error does not attribute the failing index: %v", err)
	}
	if rulings[0].Required != ProcessSearchWarrant || rulings[2].Required != ProcessSearchWarrant {
		t.Error("valid actions around the failure were not evaluated")
	}
	if rulings[1].Verdict != nil || rulings[1].Action.Name != "" {
		t.Error("failed slot must stay zero")
	}
}

// TestEvaluateBatchCanceled: a canceled context aborts the batch.
func TestEvaluateBatchCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	actions := make([]Action, 10_000)
	for i := range actions {
		actions[i] = Action{
			Name: "canceled", Actor: ActorGovernment, Timing: TimingStored,
			Data: DataDeviceContents, Source: SourceTargetDevice,
		}
	}
	if _, err := NewEngine().EvaluateBatch(ctx, actions); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	rulings, errs := make([]Ruling, len(actions)), make([]error, len(actions))
	if err := NewEngine().EvaluateBatchInto(ctx, actions, rulings, errs); !errors.Is(err, context.Canceled) {
		t.Errorf("EvaluateBatchInto err = %v, want context.Canceled", err)
	}
}

// TestEvaluateBatchPanicReachesCaller: a rule that panics mid-batch
// panics on the caller's goroutine, where the caller's recover sees it
// (a panic on any other goroutine would kill the process instead).
func TestEvaluateBatchPanicReachesCaller(t *testing.T) {
	rules := []Rule{{
		Name:     "panics",
		Apply:    func(*RuleContext) { panic("rule panicked") },
		Terminal: true,
	}}
	e := NewEngine(WithRules(rules))
	actions := make([]Action, 2*batchCheck)
	for i := range actions {
		actions[i] = Action{
			Name: "panic", Actor: ActorGovernment, Timing: TimingStored,
			Data: DataClass(i%6 + 1), Source: SourceTargetDevice, Encrypted: i%2 == 0,
		}
	}
	recovered := func() (r any) {
		defer func() { r = recover() }()
		e.EvaluateBatch(context.Background(), actions)
		return nil
	}()
	if recovered != "rule panicked" {
		t.Fatalf("recover() = %v, want the rule's panic", recovered)
	}
}

// TestPanickedBatchLeavesNoKeyTable: a batch that a custom rule panics
// out of returns its pooled key table with its slots still in it, and
// the next batch must not be answered from them. The next batch's only
// action has the key the panicked batch stored at slot 0, so a stale
// slot would answer it from its own ruling before that was written.
func TestPanickedBatchLeavesNoKeyTable(t *testing.T) {
	rules := []Rule{
		{
			Name:  "boom",
			When:  func(rc *RuleContext) bool { return rc.Action.Name == "boom" },
			Apply: func(*RuleContext) { panic("boom") },
		},
		{
			Name:     "default",
			Apply:    func(rc *RuleContext) { rc.Require(ProcessCourtOrder, RegimePenTrap, "default requires") },
			Terminal: true,
		},
	}
	e := NewEngine(WithRules(rules))
	a := Action{Name: "a", Actor: ActorGovernment, Timing: TimingRealTime, Data: DataContent, Source: SourceOwnNetwork}
	boom := a
	boom.Name = "boom"
	want, err := e.Evaluate(a)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the boom rule did not panic")
			}
		}()
		e.EvaluateBatchInto(ctx, []Action{a, boom}, make([]Ruling, 2), make([]error, 2))
	}()
	rulings, errs := make([]Ruling, 1), make([]error, 1)
	if err := e.EvaluateBatchInto(ctx, []Action{a}, rulings, errs); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || !reflect.DeepEqual(rulings[0], want) {
		t.Fatalf("batch after a panicked one = (%+v, %v), want (%+v, nil)", rulings[0], errs[0], want)
	}
}

// TestBatchTableReplacedWhenOversized: a pooled key table that keyed a
// 4,096-slot batch is replaced, not cleared, for a 1-slot batch, since
// clearing costs in proportion to the large table's buckets. A batch
// of at least a quarter of the table's most slots reuses it.
func TestBatchTableReplacedWhenOversized(t *testing.T) {
	sc := new(evalScratch)
	fill := func(m map[uint64]batchSource, n int) {
		for i := range n {
			m[uint64(i)] = batchSource{slot: i}
		}
	}
	big := sc.batchTable(4096)
	fill(big, 4096)
	quarter := sc.batchTable(1024)
	if len(big) != 0 || len(quarter) != 0 {
		t.Fatalf("a 1,024-slot batch got a table of %d keys and left the 4,096-slot one %d", len(quarter), len(big))
	}
	fill(quarter, 4096)
	small := sc.batchTable(1)
	if len(small) != 0 {
		t.Fatalf("1-slot batch got a table holding %d keys", len(small))
	}
	if len(big) != 4096 {
		t.Fatalf("1-slot batch cleared the 4,096-slot table (now %d keys) instead of replacing it", len(big))
	}
	if sc.seenMax != 1 {
		t.Fatalf("replaced table's seenMax = %d, want 1", sc.seenMax)
	}
}

// TestEvaluateBatchEmpty: an empty batch is a no-op.
func TestEvaluateBatchEmpty(t *testing.T) {
	rulings, err := NewEngine().EvaluateBatch(context.Background(), nil)
	if err != nil || rulings != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", rulings, err)
	}
}
