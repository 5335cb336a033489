package netsim

// Conservative-lookahead synchronization (synchronous-window PDES, the
// YAWNS / bounded-lag family). Each round:
//
//  1. globalMin = the earliest pending event time across partitions;
//  2. every partition executes, in parallel, all of its events with
//     at < globalMin + lookahead (lookahead = minimum cross-partition
//     link latency, computed at Freeze);
//  3. barrier: cross-partition messages buffered in outboxes merge into
//     their destination queues.
//
// Safety: an event executing at time t ≥ globalMin can only produce a
// cross-partition message at t + latency ≥ globalMin + lookahead — at or
// past the window end — so no message can arrive in a partition's past.
// Locally produced events with at < windowEnd are drained within the
// same window (the per-partition loop re-checks its own queue head), so
// after the barrier every queued event is ≥ windowEnd and windows never
// overlap in time. Progress: lookahead > 0 (enforced by Freeze), so the
// partition holding globalMin always executes at least one event per
// window.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// forever is the sentinel "no deadline / unbounded window" time.
const forever = time.Duration(math.MaxInt64)

// Run executes events until every queue drains or the step budget (if
// set) is exhausted, using up to `workers` OS threads (≤0 means
// NumCPU). Results are identical at any worker count.
func (o *ShardedNetwork) Run(workers int) error {
	return o.run(0, false, workers)
}

// RunUntil executes events with time ≤ deadline, then advances every
// partition clock to the deadline, mirroring Simulator.RunUntil.
func (o *ShardedNetwork) RunUntil(deadline time.Duration, workers int) error {
	return o.run(deadline, true, workers)
}

// run is the window loop.
func (o *ShardedNetwork) run(deadline time.Duration, haveDeadline bool, workers int) error {
	if err := o.Freeze(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > o.parts {
		workers = o.parts
	}
	for {
		minAt := forever
		for _, s := range o.sims {
			if s.queue.len() > 0 && s.queue.head().at < minAt {
				minAt = s.queue.head().at
			}
		}
		if minAt == forever || (haveDeadline && minAt > deadline) {
			break // drained, or nothing left on this side of the deadline
		}
		end := forever
		if o.hasCross {
			end = minAt + o.lookahead
			if end < minAt { // overflow
				end = forever
			}
		}
		// RunUntil semantics: events AT the deadline still execute, so the
		// exclusive window bound is deadline+1ns.
		if haveDeadline && (end == forever || end > deadline+1) {
			end = deadline + 1
		}
		maxSteps := int64(math.MaxInt64)
		if o.budget > 0 {
			remaining := o.budget - o.steps()
			if remaining <= 0 {
				break // Exhausted() now reports true
			}
			// Budget is apportioned at the window boundary: each partition
			// may run up to the full remainder, so the run can overshoot by
			// up to (parts-1)×remaining — deterministic for a fixed
			// partition count because it depends only on window boundaries,
			// never on goroutine interleaving.
			maxSteps = remaining
		}
		if err := o.forEachPartition(workers, func(p int) error {
			o.runPartitionWindow(p, end, maxSteps)
			return nil
		}); err != nil {
			return err
		}
		if err := o.mergeOutboxes(workers, end); err != nil {
			return err
		}
	}
	if haveDeadline {
		for _, s := range o.sims {
			if s.now < deadline {
				s.now = deadline
			}
		}
	}
	return nil
}

// runPartitionWindow drains partition p's queue up to (exclusive) end,
// executing at most maxSteps events, recording trace keys when enabled.
// It touches only partition-private state plus per-node tables at
// indices this partition owns.
func (o *ShardedNetwork) runPartitionWindow(p int, end time.Duration, maxSteps int64) {
	sim := o.sims[p]
	executed := int64(0)
	for sim.queue.len() > 0 && sim.queue.head().at < end && executed < maxSteps {
		if o.trace != nil {
			top := sim.queue.head()
			o.trace[p] = append(o.trace[p], TraceEntry{At: top.at, Seq: top.seq})
		}
		sim.Step()
		executed++
	}
}

// mergeOutboxes moves buffered cross-partition messages into their
// destination queues. Each destination partition drains its own column
// (parallel-safe: writes touch only that partition's queue), reading
// source rows in fixed order — though order cannot matter, because
// sequence keys impose a total order inside the heap.
func (o *ShardedNetwork) mergeOutboxes(workers int, windowEnd time.Duration) error {
	return o.forEachPartition(workers, func(dst int) error {
		sim := o.sims[dst]
		for src := 0; src < o.parts; src++ {
			box := o.outbox[src][dst]
			if len(box) == 0 {
				continue
			}
			for _, ev := range box {
				if ev.at < windowEnd {
					return fmt.Errorf("%w: message at t=%s inside window ending t=%s",
						ErrLookaheadViolation, ev.at, windowEnd)
				}
				sim.queue.push(ev)
			}
			o.outbox[src][dst] = box[:0]
		}
		return nil
	})
}

// forEachPartition runs fn once per partition, concurrently when
// workers > 1, using claim-based scheduling (an atomic cursor) so
// stragglers never idle a worker. Errors are collected per partition
// and the lowest-index one returned, keeping error reporting
// deterministic too.
func (o *ShardedNetwork) forEachPartition(workers int, fn func(p int) error) error {
	if workers <= 1 || o.parts == 1 {
		for p := 0; p < o.parts; p++ {
			if err := fn(p); err != nil {
				return err
			}
		}
		return nil
	}
	for i := range o.werrs {
		o.werrs[i] = nil
	}
	var cursor int32 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p := int(atomic.AddInt32(&cursor, 1))
				if p >= o.parts {
					return
				}
				o.werrs[p] = fn(p)
			}
		}()
	}
	wg.Wait()
	for _, err := range o.werrs {
		if err != nil {
			return err
		}
	}
	return nil
}
