package legal

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// batchChunk is the number of actions a worker claims per scheduling
// round. Single evaluations are sub-microsecond, so claiming work in
// chunks keeps coordination cost far below evaluation cost.
const batchChunk = 64

// SlotError is the failure of one EvaluateBatch slot: the slot's index
// in the batch and the error evaluating its action returned.
type SlotError struct {
	Index int
	Err   error
}

func (e *SlotError) Error() string {
	return "action " + strconv.Itoa(e.Index) + ": " + e.Err.Error()
}

func (e *SlotError) Unwrap() error { return e.Err }

// EvaluateBatch evaluates actions concurrently across a bounded worker
// pool and returns the rulings in input order. The pool size is
// min(WithBatchWorkers, len(actions)), defaulting to one worker per
// available CPU.
//
// A slot whose ruling-cache key (see Engine.cacheKey) matches an
// earlier slot's is answered by that slot instead of a fresh
// evaluation. The key drops Name exactly where no rule in the action's
// dispatch bucket reads it, so an answered slot is either an exact
// repeat, which receives the earlier ruling (sharing its slices —
// rulings are immutable), or a name-only variant, which receives the
// earlier ruling re-labeled with its own name. Each worker reuses one
// evaluation scratch across its share of the batch.
//
// Invalid actions do not abort the batch: their ruling slot is left zero
// and the returned error joins one *SlotError per failed index, in
// order. A name-only variant of an invalid slot is evaluated itself, so
// every error names its own action. On context cancellation
// EvaluateBatch returns ctx.Err(); already-computed rulings are
// discarded.
func (e *Engine) EvaluateBatch(ctx context.Context, actions []Action) ([]Ruling, error) {
	if len(actions) == 0 {
		return nil, nil
	}
	rulings := make([]Ruling, len(actions))
	err := e.EvaluateBatchInto(ctx, actions, rulings, make([]error, len(actions)))
	if err != nil && err == ctx.Err() {
		return nil, err
	}
	return rulings, err
}

// EvaluateBatchInto is EvaluateBatch writing into caller-owned slices,
// which a caller serving many batches can reuse: slot i's ruling goes
// to rulings[i] and its error, unwrapped, to errs[i]. Both must be at
// least len(actions) long; their first len(actions) elements are all
// overwritten and the rest are left alone. It returns the joined
// *SlotError list, or ctx.Err() itself on cancellation, when the slots
// hold no usable result.
func (e *Engine) EvaluateBatchInto(ctx context.Context, actions []Action, rulings []Ruling, errs []error) error {
	if len(actions) == 0 {
		return nil
	}
	work, src := e.dedupBatch(actions)
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}

	rulings, errs = rulings[:len(actions)], errs[:len(actions)]
	var (
		next     atomic.Int64
		canceled atomic.Bool
	)
	worker := func() {
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
			end := min(start+batchChunk, len(work))
			for _, i := range work[start:end] {
				rulings[i], errs[i] = e.evaluate(&actions[i], &sc)
			}
		}
	}
	if workers == 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	if canceled.Load() {
		return ctx.Err()
	}
	e.fillAnswered(actions, rulings, errs, src)
	return joinIndexed(errs)
}

// batchSource is the first slot of a batch that carried a key: its
// index, packed word and key name (see Engine.cacheKey).
type batchSource struct {
	slot int
	w    uint64
	name string
}

// dedupBatch keys every slot as the ruling cache does and returns the
// slots to evaluate (first occurrences of their key, in input order)
// and, per slot, the slot that answers it: itself when it is evaluated,
// otherwise the earlier slot with the same key. A hash hit is verified
// with keyMatches, so two distinct keys that collide on the hash are
// simply both evaluated.
func (e *Engine) dedupBatch(actions []Action) (work, src []int) {
	src = make([]int, len(actions))
	work = make([]int, 0, len(actions))
	seen := make(map[uint64]batchSource, len(actions))
	for i := range actions {
		a := &actions[i]
		w, exact := packAction(a)
		h, name := e.cacheKey(a, w, exact)
		if s, ok := seen[h]; ok && keyMatches(a, w, exact, name, &actions[s.slot], s.w, s.name) {
			src[i] = s.slot
			continue
		} else if !ok {
			seen[h] = batchSource{slot: i, w: w, name: name}
		}
		src[i] = i
		work = append(work, i)
	}
	return work, src
}

// fillAnswered fills each slot answered by an earlier one (src[i] != i)
// once every evaluated slot holds its result: a same-name slot copies
// the ruling and error, another name copies the ruling re-labeled with
// its own name — or, when the answering slot failed, is evaluated
// itself, since that error text names the other action.
func (e *Engine) fillAnswered(actions []Action, rulings []Ruling, errs []error, src []int) {
	var (
		sc               *evalScratch
		deduped, chained uint64
	)
	for i, j := range src {
		switch {
		case j == i:
		case actions[i].Name == actions[j].Name:
			rulings[i], errs[i] = rulings[j], errs[j]
			deduped++
		case errs[j] != nil:
			if sc == nil {
				sc = new(evalScratch)
			}
			rulings[i], errs[i] = e.evaluate(&actions[i], sc)
		default:
			rulings[i] = rulings[j]
			rulings[i].Action.Name = actions[i].Name
			chained++
		}
	}
	if e.statsOn {
		e.counters.batchDeduped.Add(deduped)
		e.counters.batchChained.Add(chained)
	}
}

// joinIndexed wraps each non-nil error in a *SlotError carrying its
// batch index and joins them in order, so a caller can attribute
// failures to inputs.
func joinIndexed(errs []error) error {
	var out []error
	for i, err := range errs {
		if err != nil {
			out = append(out, &SlotError{Index: i, Err: err})
		}
	}
	return errors.Join(out...)
}
