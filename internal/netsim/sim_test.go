package netsim

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestSimulatorOrdering(t *testing.T) {
	s := NewSimulator(1)
	var got []int
	if err := s.Schedule(30*time.Millisecond, func() { got = append(got, 3) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(10*time.Millisecond, func() { got = append(got, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(20*time.Millisecond, func() { got = append(got, 2) }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
	if s.Steps() != 3 {
		t.Errorf("Steps = %d, want 3", s.Steps())
	}
}

func TestSimulatorSameTimeFIFO(t *testing.T) {
	s := NewSimulator(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		if err := s.Schedule(5*time.Millisecond, func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestSimulatorPastEvent(t *testing.T) {
	s := NewSimulator(1)
	if err := s.Schedule(time.Millisecond, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := s.ScheduleAt(0, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("err = %v, want ErrPastEvent", err)
	}
	if err := s.Schedule(-time.Millisecond, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("negative delay err = %v, want ErrPastEvent", err)
	}
}

func TestSimulatorNestedScheduling(t *testing.T) {
	s := NewSimulator(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			if err := s.Schedule(time.Millisecond, tick); err != nil {
				t.Errorf("nested schedule: %v", err)
			}
		}
	}
	if err := s.Schedule(time.Millisecond, tick); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	if s.Now() != 100*time.Millisecond {
		t.Errorf("Now = %v, want 100ms", s.Now())
	}
}

func TestSimulatorRunUntil(t *testing.T) {
	s := NewSimulator(1)
	fired := map[int]bool{}
	for _, ms := range []int{10, 20, 30, 40} {
		ms := ms
		if err := s.Schedule(time.Duration(ms)*time.Millisecond, func() { fired[ms] = true }); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(25 * time.Millisecond)
	if !fired[10] || !fired[20] || fired[30] || fired[40] {
		t.Errorf("fired = %v", fired)
	}
	if s.Now() != 25*time.Millisecond {
		t.Errorf("Now = %v, want 25ms", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if !fired[30] || !fired[40] {
		t.Error("remaining events must fire on Run")
	}
}

func TestSimulatorStepOnEmpty(t *testing.T) {
	s := NewSimulator(1)
	if s.Step() {
		t.Error("Step on empty queue must report false")
	}
}

func TestSimulatorDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := NewSimulator(42)
		var times []time.Duration
		for i := 0; i < 50; i++ {
			delay := time.Duration(s.Rand().Int63n(int64(time.Second)))
			if err := s.Schedule(delay, func() { times = append(times, s.Now()) }); err != nil {
				t.Fatal(err)
			}
		}
		s.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d at %v vs %v: same seed must reproduce exactly", i, a[i], b[i])
		}
	}
}

// Property: the clock is monotone — events never observe time moving
// backwards.
func TestSimulatorClockMonotone(t *testing.T) {
	f := func(delays []uint32) bool {
		s := NewSimulator(7)
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			delay := time.Duration(d % 1e9)
			if err := s.Schedule(delay, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			}); err != nil {
				return false
			}
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("clock monotonicity violated: %v", err)
	}
}

// TestNoOriginEventsFireInSchedulingOrder: events scheduled outside any
// node's context take the run itself as their origin. On a simulator
// with no nodes, same-time ones — nested ones included — fire in
// scheduling order; once nodes exist they still fire before same-time
// node events, and a node's event that has finished running lends its
// origin to nothing scheduled afterwards at top level.
func TestNoOriginEventsFireInSchedulingOrder(t *testing.T) {
	s := NewSimulator(1)
	var order []string
	at := time.Millisecond
	for _, name := range []string{"a", "b", "c", "d"} {
		name := name
		if err := s.ScheduleAt(at, func() {
			order = append(order, name)
			if name == "a" {
				if err := s.ScheduleAt(at, func() { order = append(order, "a-nested") }); err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if want := []string{"a", "b", "c", "d", "a-nested"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("node-less same-time order = %v, want %v", order, want)
	}

	n := NewNetwork(s)
	if err := n.AddNode("node", nil); err != nil {
		t.Fatal(err)
	}
	order = nil
	at = 2 * time.Millisecond
	if err := n.scheduleNode(0, at-s.Now(), func() { order = append(order, "node") }); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleAt(at, func() { order = append(order, "setup") }); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if want := []string{"setup", "node"}; !reflect.DeepEqual(order, want) {
		t.Errorf("same-time order = %v, want %v (no-origin events first)", order, want)
	}
	if err := s.Schedule(0, func() {}); err != nil {
		t.Fatal(err)
	}
	if seq := s.queue.head().seq; seq>>32 != int64(noOrigin) {
		t.Errorf("top-level event after a node's event has origin %d, want noOrigin", seq>>32)
	}
}
