package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ErrPastEvent is returned when an event is scheduled before the current
// virtual time.
var ErrPastEvent = errors.New("netsim: event scheduled in the past")

// ErrStepBudget is returned (by RunMaxSteps) or reported (by Exhausted)
// when a run stops because its step allowance ran out before the event
// queue drained — the runaway-loop guard for buggy trials that would
// otherwise spin forever inside an experiment worker.
var ErrStepBudget = errors.New("netsim: step budget exhausted")

// event is one pending entry in the scheduler's queue: either a plain
// callback (fn != nil) or a typed packet delivery (fn == nil) executed
// without any per-event closure. It is the unit callers hand to push and
// the barrier buffers in its outboxes; inside the queue its ordering key
// and its body are stored apart (see eventQueue).
type event struct {
	at  time.Duration
	seq int64 // tie-break: the packed (origin, counter) key, see seqFor
	eventBody
}

// eventBody is what an event does once it fires.
type eventBody struct {
	fn  func()
	del delivery // valid when fn == nil
	// owner is the dense index of the node whose context executes this
	// event — the scheduling node for callbacks, the destination for
	// deliveries — or noOrigin for events scheduled outside any node's
	// context. The simulator restores it as the current origin while the
	// event runs, so nested scheduling attributes sequence keys to the
	// right node.
	owner int32
}

// eventKey is one heap entry: the (at, seq) order and the slab slot
// holding the event's body. It contains no pointers, so sifting moves
// three plain words with no GC write barriers.
type eventKey struct {
	at   time.Duration
	seq  int64
	slot int32
}

// before reports the heap order: (at, seq) ascending.
func (k *eventKey) before(o *eventKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// eventQueue is a 4-ary min-heap of eventKeys over a slab of event
// bodies with a free list. Sifts move 24-byte keys only; each body is
// copied once into the slab on push, and read in place once popped. Slab,
// heap and free list are reused for the simulation's lifetime, so
// steady-state push/pop performs no allocation once they have grown to
// the simulation's high-water mark. The 4-ary layout halves the tree
// depth of a binary heap — fewer moves per sift and better cache
// locality on the wide, shallow levels.
type eventQueue struct {
	keys []eventKey
	slab []eventBody
	free []int32
}

// len returns the number of queued events.
func (q *eventQueue) len() int { return len(q.keys) }

// head returns the earliest event's key; the queue must be non-empty.
func (q *eventQueue) head() *eventKey { return &q.keys[0] }

// push queues e and restores the heap invariant.
func (q *eventQueue) push(e event) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = e.eventBody
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, e.eventBody)
	}
	k := eventKey{at: e.at, seq: e.seq, slot: slot}
	keys := append(q.keys, k)
	q.keys = keys
	i := len(keys) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(&keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
}

// pop removes the earliest event's key and returns its time and slab
// slot. The body stays in the slot until release.
func (q *eventQueue) pop() (time.Duration, int32) {
	keys := q.keys
	root := keys[0]
	n := len(keys) - 1
	last := keys[n]
	keys = keys[:n]
	q.keys = keys
	if n > 0 {
		// Sift the former last key down from the root, moving the hole.
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if keys[c].before(&keys[min]) {
					min = c
				}
			}
			if !keys[min].before(&last) {
				break
			}
			keys[i] = keys[min]
			i = min
		}
		keys[i] = last
	}
	return root.at, root.slot
}

// release zeroes a popped slot, so it does not pin dead callbacks or
// packets, and puts it on the free list.
func (q *eventQueue) release(slot int32) {
	q.slab[slot] = eventBody{}
	q.free = append(q.free, slot)
}

// Simulator is a deterministic discrete-event scheduler with a virtual
// clock: the event loop of one partition of a ShardedNetwork. A
// simulator from NewSimulator drives the only partition of a
// one-partition run, the serial case. It is not safe for concurrent
// use: each partition is a single loop, so results are reproducible.
type Simulator struct {
	now    time.Duration
	queue  eventQueue
	rng    *rand.Rand
	steps  int64
	budget int64 // lifetime step cap; 0 = unlimited
	// run is the sharded run this simulator drives one partition of, and
	// net that partition's network view.
	run *ShardedNetwork
	net *Network
	// cur is the dense index of the node whose event is executing, or
	// noOrigin between events. Sequence keys for events scheduled now
	// come from its counter (see ShardedNetwork.seqFor).
	cur int32
}

// noOrigin is the origin of events scheduled outside any node's context:
// top-level setup, and callbacks of such events. Their sequence keys
// come from the run's own counter and sort before every node's at equal
// times, in scheduling order.
const noOrigin int32 = -1

// pushEvent inserts a fully formed event whose origin-packed sequence
// key was minted for a node other than the current origin.
func (s *Simulator) pushEvent(ev event) error {
	if ev.at < s.now {
		return ErrPastEvent
	}
	s.queue.push(ev)
	return nil
}

// NewSimulator returns the simulator of a new one-partition run whose
// randomness derives entirely from seed. NewNetwork returns the run's
// network.
func NewSimulator(seed int64) *Simulator {
	return NewShardedNetwork(seed, 1).sims[0]
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulator's seeded random source: a stream of its
// partition, derived from the run's seed and the partition index.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Steps returns the number of events executed so far.
func (s *Simulator) Steps() int64 { return s.steps }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return s.queue.len() }

// Schedule queues fn to run delay after the current virtual time. A
// negative delay returns ErrPastEvent.
func (s *Simulator) Schedule(delay time.Duration, fn func()) error {
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time at, in the
// context of the node whose event is executing (or of no node, outside
// any event).
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) error {
	if at < s.now {
		return ErrPastEvent
	}
	s.queue.push(event{at: at, seq: s.run.seqFor(s.cur), eventBody: eventBody{fn: fn, owner: s.cur}})
	return nil
}

// Step executes the next event, advancing the clock to its time. It
// reports whether an event was executed.
func (s *Simulator) Step() bool {
	if s.queue.len() == 0 {
		return false
	}
	at, slot := s.queue.pop()
	s.now = at
	s.steps++
	// Read the body's fields in place and free the slot before running
	// the event, which may reuse it: copying the whole body out would go
	// through memory, and the origin store would wait on that copy.
	b := &s.queue.slab[slot]
	s.cur = b.owner
	if fn := b.fn; fn != nil {
		s.queue.release(slot)
		fn()
	} else {
		del := b.del
		s.queue.release(slot)
		del.run()
	}
	s.cur = noOrigin
	return true
}

// SetStepBudget caps the simulator's lifetime step count: once steps
// reach n, Run and RunUntil stop executing events (Exhausted reports
// the condition). Zero removes the cap. Step itself is not gated, so
// manual single-stepping past the budget remains possible.
func (s *Simulator) SetStepBudget(n int64) { s.budget = n }

// Exhausted reports whether a step budget is set and spent with events
// still queued — the signature of a runaway simulation.
func (s *Simulator) Exhausted() bool {
	return s.budget > 0 && s.steps >= s.budget && s.queue.len() > 0
}

// Run executes events until the queue drains or the step budget (if
// set) is exhausted.
func (s *Simulator) Run() {
	for !s.Exhausted() && s.Step() {
	}
}

// RunMaxSteps executes at most n more events, returning nil when the
// queue drained within the allowance and ErrStepBudget when events
// remain — the fail-fast entry point for bounded trials.
func (s *Simulator) RunMaxSteps(n int64) error {
	for executed := int64(0); executed < n; executed++ {
		if !s.Step() {
			return nil
		}
	}
	if s.queue.len() > 0 {
		return fmt.Errorf("%w: %d steps executed, %d events still pending at t=%s",
			ErrStepBudget, n, s.queue.len(), s.now)
	}
	return nil
}

// RunUntil executes events with time ≤ deadline, then advances the clock
// to the deadline. Events scheduled past the deadline remain queued. A
// step budget (if set) stops execution early; the clock still advances.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for s.queue.len() > 0 && s.queue.head().at <= deadline && !s.Exhausted() {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}
