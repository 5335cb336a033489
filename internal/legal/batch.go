package legal

import (
	"context"
	"errors"
	"strconv"
)

// batchCheck is how many slots the batch loop evaluates between context
// checks. Single evaluations are sub-microsecond, so checking every 64
// slots keeps the check's cost far below evaluation cost.
const batchCheck = 64

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

// EvaluateBatch evaluates actions in order on the caller's goroutine
// and returns the rulings in input order.
//
// A slot whose ruling-cache key (see Engine.cacheKey) matches an
// earlier slot's is answered by that slot instead of a fresh
// evaluation. The key drops Name exactly where no rule in the action's
// dispatch bucket reads it, so an answered slot is either an exact
// repeat, which receives the earlier ruling, or a name-only variant,
// which receives its own action with the earlier ruling's verdict.
// Either way the slot shares the answering slot's *Verdict.
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
	errs := make([]error, len(actions))
	if err := e.EvaluateBatchInto(ctx, actions, rulings, errs); err != nil {
		return nil, err
	}
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, &SlotError{Index: i, Err: err})
		}
	}
	return rulings, errors.Join(failed...)
}

// EvaluateBatchInto is EvaluateBatch writing into caller-owned slices,
// which a caller serving many batches can reuse: slot i's ruling goes
// to rulings[i] and its error to errs[i], so slot i failed exactly when
// errs[i] != nil. Both must be at least len(actions) long; their first
// len(actions) elements are all overwritten and the rest are left
// alone. It returns ctx.Err() on cancellation, when the slots hold no
// usable result, and nil otherwise.
func (e *Engine) EvaluateBatchInto(ctx context.Context, actions []Action, rulings []Ruling, errs []error) error {
	rulings, errs = rulings[:len(actions)], errs[:len(actions)]
	var (
		deduped, chained uint64
		err              error
	)
	seen := make(map[uint64]batchSource, len(actions))
	for i := range actions {
		if i%batchCheck == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		a := &actions[i]
		w, exact := packAction(a)
		h, name := e.cacheKey(a, w, exact)
		if s, ok := seen[h]; !ok {
			seen[h] = batchSource{slot: i, w: w, name: name}
		} else if keyMatches(a, w, exact, name, &actions[s.slot], s.w, s.name) {
			// The answering slot is earlier, so it is already done. A
			// name-only variant of a failed slot falls through and is
			// evaluated itself, since that error text names the other
			// action.
			j := s.slot
			if a.Name == actions[j].Name {
				rulings[i], errs[i] = rulings[j], errs[j]
				deduped++
				continue
			}
			if errs[j] == nil {
				rulings[i], errs[i] = Ruling{Action: *a, Verdict: rulings[j].Verdict}, nil
				chained++
				continue
			}
		}
		if v := e.lookup(a, h, w, exact, name); v != nil {
			rulings[i], errs[i] = Ruling{Action: *a, Verdict: v}, nil
			continue
		}
		rulings[i], errs[i] = e.evaluateMiss(a, h, w, name)
	}
	if e.statsOn {
		e.counters.batchDeduped.Add(deduped)
		e.counters.batchChained.Add(chained)
	}
	return err
}

// batchSource is the first slot of a batch that carried a key: its
// index, packed word and key name (see Engine.cacheKey). A later slot
// whose key hashes the same is answered by it only when keyMatches
// confirms the keys are equal, so two distinct keys that collide on
// the hash are simply both evaluated.
type batchSource struct {
	slot int
	w    uint64
	name string
}
