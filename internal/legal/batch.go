package legal

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// batchChunk is the number of actions a worker claims per scheduling
// round. Single evaluations are sub-microsecond, so claiming work in
// chunks keeps coordination cost far below evaluation cost.
const batchChunk = 64

// EvaluateBatch evaluates actions concurrently across a bounded worker
// pool and returns the rulings in input order. The pool size is
// min(WithBatchWorkers, len(actions)), defaulting to one worker per
// available CPU.
//
// Identical actions within the batch are evaluated once: duplicate
// slots receive the first occurrence's ruling (sharing its slices —
// rulings are immutable) in their original positions. Near-duplicates
// — actions identical except for Name, when every rule in their
// dispatch bucket declares it does not read Name — are factored into
// base+delta chains: the base is evaluated once and each chained slot
// receives the base ruling re-labeled with its own name. Each worker
// reuses one evaluation scratch across its share of the batch.
//
// Invalid actions do not abort the batch: their ruling slot is left zero
// and the returned error joins one error per failed index, in order. On
// context cancellation EvaluateBatch returns ctx.Err(); already-computed
// rulings are discarded.
func (e *Engine) EvaluateBatch(ctx context.Context, actions []Action) ([]Ruling, error) {
	if len(actions) == 0 {
		return nil, nil
	}

	work, dup, chain := e.dedupBatch(actions)
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}

	rulings := make([]Ruling, len(actions))
	errs := make([]error, len(actions))
	if workers == 1 {
		var sc evalScratch
		for _, i := range work {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rulings[i], errs[i] = e.evaluate(&actions[i], &sc)
		}
		e.fillChains(actions, rulings, errs, chain)
		fillDuplicates(rulings, errs, dup)
		return rulings, joinIndexed(errs)
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		canceled atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc evalScratch
			for {
				start := int(next.Add(batchChunk)) - batchChunk
				if start >= len(work) {
					return
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				end := start + batchChunk
				if end > len(work) {
					end = len(work)
				}
				for _, i := range work[start:end] {
					rulings[i], errs[i] = e.evaluate(&actions[i], &sc)
				}
			}
		}()
	}
	wg.Wait()
	if canceled.Load() {
		return nil, ctx.Err()
	}
	e.fillChains(actions, rulings, errs, chain)
	fillDuplicates(rulings, errs, dup)
	return rulings, joinIndexed(errs)
}

// dedupBatch partitions the batch into the indices to evaluate (first
// occurrences, in input order), a map from each duplicate index to the
// first occurrence it repeats, and a map from each chained index to the
// same-shape base it differs from only by Name. Duplicates are detected
// by action hash and confirmed structurally, so two distinct actions
// that collide on the hash are simply both evaluated.
//
// The chain pre-pass extends dedup to near-duplicates: when an action's
// exact packed word and exposure sequence match an earlier work item —
// which, packing being injective for valid actions, means the two
// differ only in Name — and the dispatch bucket provably never reads
// Name, the later action is factored into a delta chain off the base
// and skipped by the workers. fillChains re-labels the base ruling for
// each chained slot afterwards.
func (e *Engine) dedupBatch(actions []Action) (work []int, dup, chain map[int]int) {
	if len(actions) < 2 {
		work = make([]int, len(actions))
		for i := range work {
			work[i] = i
		}
		return work, nil, nil
	}
	seen := make(map[uint64]int, len(actions))
	var (
		shapes map[uint64]int
		ws     []uint64
	)
	work = make([]int, 0, len(actions))
	for i := range actions {
		h, w, exact := hashActionKey(e.seed, &actions[i])
		if j, ok := seen[h]; ok && actionsEqual(&actions[j], &actions[i]) {
			if dup == nil {
				dup = make(map[int]int)
			}
			dup[i] = j
			continue
		} else if !ok {
			seen[h] = i
		}
		if exact {
			if ws == nil {
				ws = make([]uint64, len(actions))
			}
			ws[i] = w
			// Name-blind shape hash: the packed scalar word folded with
			// the exposure sequence.
			sh := w
			for _, x := range actions[i].Exposure {
				sh = sh*0x9e3779b97f4a7c15 + uint64(x)
			}
			sh = mix64(sh)
			if shapes == nil {
				shapes = make(map[uint64]int, len(actions))
			}
			if j, ok := shapes[sh]; ok && ws[j] == w &&
				exposuresEqual(actions[j].Exposure, actions[i].Exposure) &&
				e.dispatch.nameBlind(w) {
				if chain == nil {
					chain = make(map[int]int)
				}
				chain[i] = j
				continue
			} else if !ok {
				shapes[sh] = i
			}
		}
		work = append(work, i)
	}
	if e.statsOn {
		e.counters.batchDeduped.Add(uint64(len(dup)))
		e.counters.batchChained.Add(uint64(len(chain)))
	}
	return work, dup, chain
}

// fillChains materializes each chained slot from its base: the base
// ruling with the chained action's own name. Bases that failed
// validation are not copied — their error text names the base action —
// so those slots are evaluated individually.
func (e *Engine) fillChains(actions []Action, rulings []Ruling, errs []error, chain map[int]int) {
	var sc *evalScratch
	for i, j := range chain {
		if errs[j] != nil {
			if sc == nil {
				sc = new(evalScratch)
			}
			rulings[i], errs[i] = e.evaluate(&actions[i], sc)
			continue
		}
		r := rulings[j]
		r.Action.Name = actions[i].Name
		rulings[i] = r
	}
}

// fillDuplicates copies each first occurrence's result into the slots
// that repeated it, preserving the batch's original index order.
func fillDuplicates(rulings []Ruling, errs []error, dup map[int]int) {
	for i, j := range dup {
		rulings[i] = rulings[j]
		errs[i] = errs[j]
	}
}

// joinIndexed wraps each non-nil error with its batch index and joins
// them in order, so a caller can attribute failures to inputs.
func joinIndexed(errs []error) error {
	var out []error
	for i, err := range errs {
		if err != nil {
			out = append(out, fmt.Errorf("action %d: %w", i, err))
		}
	}
	return errors.Join(out...)
}
