package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"lawgate/internal/legal"
	"lawgate/internal/wire"
)

// This file is the serving hot path's request/response lifecycle:
// pooled body reads, wire-codec decoding of actions, and response
// envelopes appended straight from rulings into pooled buffers. Every
// byte written here is pinned byte-identical to what writeJSON
// (json.Marshal on the response structs) would produce — codec_test.go
// proves it — so clients, golden files, and the conformance probe see
// no change. The cold endpoints (checkpoint, tenant views, metrics,
// errors) stay on writeJSON: their cost is not on the serving path and
// stdlib keeps them trivially correct.

// reqScratch is the pooled per-request state: the body buffer every
// read reuses, the action slice batch decoding appends into, and the
// per-slot rulings and errors a batch evaluates into. The actions
// backing is safe to reuse because the engine copies actions by value;
// the sub-objects inside each decoded action are always fresh (see
// wire.DecodeAction). Rulings and errors are cleared on put, so the
// pool pins no ruling.
type reqScratch struct {
	body    []byte
	actions []legal.Action
	rulings []legal.Ruling
	errs    []error
}

// maxRetainedScratch caps what a pathological request can pin in the
// pool — one oversized body or batch does not hold its high-water
// backing forever.
const maxRetainedScratch = 1 << 20

var scratchPool = sync.Pool{
	New: func() any { return &reqScratch{body: make([]byte, 0, 4096)} },
}

func getScratch() *reqScratch { return scratchPool.Get().(*reqScratch) }

func putScratch(sc *reqScratch) {
	if cap(sc.body) > maxRetainedScratch || cap(sc.actions) > DefaultMaxBatch {
		return
	}
	clear(sc.rulings)
	clear(sc.errs)
	scratchPool.Put(sc)
}

// batchSlots returns the scratch's rulings and errors resliced to n
// slots, growing them when they are too short.
func (sc *reqScratch) batchSlots(n int) ([]legal.Ruling, []error) {
	if cap(sc.rulings) < n {
		sc.rulings, sc.errs = make([]legal.Ruling, n), make([]error, n)
	}
	sc.rulings, sc.errs = sc.rulings[:n], sc.errs[:n]
	return sc.rulings, sc.errs
}

// readBody reads the whole request body into buf under the same
// robustness caps readJSON enforces: at most maxBody bytes (413
// beyond), delivered within bodyReadTimeout (408), read failures as
// 400. The returned slice reuses buf's backing.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, *apiError) {
	rc := http.NewResponseController(w)
	// Best effort: test recorders don't support deadlines; real
	// connections do, and that is where slow-loris defense matters.
	_ = rc.SetReadDeadline(time.Now().Add(s.bodyReadTimeout))
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				break
			}
			var tooLarge *http.MaxBytesError
			switch {
			case errors.As(err, &tooLarge):
				return buf, &apiError{status: http.StatusRequestEntityTooLarge,
					msg: fmt.Sprintf("request body exceeds %d bytes", s.maxBody)}
			case errors.Is(err, os.ErrDeadlineExceeded):
				return buf, &apiError{status: http.StatusRequestTimeout,
					msg: fmt.Sprintf("request body not delivered within %s", s.bodyReadTimeout)}
			default:
				return buf, &apiError{status: http.StatusBadRequest, msg: "malformed JSON: " + err.Error()}
			}
		}
	}
	// Reset the read deadline so response writing is not affected.
	_ = rc.SetReadDeadline(time.Time{})
	return buf, nil
}

// readAction reads and decodes one action through the wire codec.
func (s *Server) readAction(w http.ResponseWriter, r *http.Request, sc *reqScratch, a *legal.Action) *apiError {
	body, aerr := s.readBody(w, r, sc.body)
	sc.body = body
	if aerr != nil {
		return aerr
	}
	if err := wire.DecodeAction(sc.body, a); err != nil {
		return &apiError{status: http.StatusBadRequest, msg: "malformed JSON: " + err.Error()}
	}
	return nil
}

// readActions reads and decodes a batch of actions into the scratch's
// reused slice — the batch body is materialized once (the pooled body
// buffer) and decoded once, never copied into an intermediate value.
func (s *Server) readActions(w http.ResponseWriter, r *http.Request, sc *reqScratch) *apiError {
	body, aerr := s.readBody(w, r, sc.body)
	sc.body = body
	if aerr != nil {
		return aerr
	}
	actions, err := wire.DecodeActions(sc.body, sc.actions)
	sc.actions = actions
	if err != nil {
		return &apiError{status: http.StatusBadRequest, msg: "malformed JSON: " + err.Error()}
	}
	return nil
}

var newline = []byte{'\n'}

// writeRaw writes pre-encoded JSON exactly as writeJSON writes
// marshaled bytes: Content-Type, status, body, trailing newline.
func writeRaw(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
	w.Write(newline)
}

// appendEvaluateResponse appends the /v1/evaluate envelope —
// byte-identical to json.Marshal(EvaluateResponse{...}) — projecting
// the ruling straight into view JSON without materializing a
// RulingView.
func appendEvaluateResponse(dst []byte, tenant string, revision uint64, r *legal.Ruling) []byte {
	dst = append(dst, `{"tenant":`...)
	dst = wire.AppendString(dst, tenant)
	dst = append(dst, `,"revision":`...)
	dst = wire.AppendUint(dst, revision)
	dst = append(dst, `,"ruling":`...)
	dst = wire.AppendRulingViewFromRuling(dst, r)
	return append(dst, '}')
}

// appendBatchResponse appends the /v1/evaluate/batch envelope straight
// from the engine's rulings: one slot per input action, null for
// failed slots, errors listed when present — byte-identical to
// json.Marshal(BatchResponse{...}) without materializing the
// []*report.RulingView. errs holds each slot's error, as
// Engine.EvaluateBatchInto fills it: slot i failed exactly when
// errs[i] != nil. Each distinct ruling tail is rendered once and
// copied for every later slot that shares it (see tailTable).
func appendBatchResponse(dst []byte, tenant string, revision uint64, rulings []legal.Ruling, errs []error) []byte {
	var tails tailTable
	dst = append(dst, `{"tenant":`...)
	dst = wire.AppendString(dst, tenant)
	dst = append(dst, `,"revision":`...)
	dst = wire.AppendUint(dst, revision)
	dst = append(dst, `,"rulings":[`...)
	for i := range rulings {
		if i > 0 {
			dst = append(dst, ',')
		}
		if errs[i] != nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, `{"action":`...)
		dst = wire.AppendString(dst, rulings[i].Action.Name)
		dst = tails.append(dst, &rulings[i])
	}
	dst = append(dst, ']')
	listed := len(dst) // the errors list is open once dst has grown
	for i, err := range errs[:len(rulings)] {
		if err == nil {
			continue
		}
		if len(dst) == listed {
			dst = append(dst, `,"errors":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"index":`...)
		dst = wire.AppendInt(dst, int64(i))
		dst = append(dst, `,"error":`...)
		dst = appendSlotError(dst, i, err)
		dst = append(dst, '}')
	}
	if len(dst) > listed {
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendSlotError appends (&legal.SlotError{Index: i, Err: err}).Error()
// as a JSON string without building it: the "action i: " prefix needs
// no escaping, so it goes in ahead of the escaped message, whose
// opening quote is then dropped.
func appendSlotError(dst []byte, i int, err error) []byte {
	dst = append(dst, `"action `...)
	dst = wire.AppendInt(dst, int64(i))
	dst = append(dst, ": "...)
	start := len(dst)
	dst = wire.AppendString(dst, err.Error())
	return append(dst[:start], dst[start+1:]...)
}

// tailSlots sizes a batch response's tail table, about twice the
// distinct rulings a batch of Table 1 scenes carries (~30); tailProbes
// bounds the linear probe from a ruling's home slot.
const (
	tailBits   = 6
	tailSlots  = 1 << tailBits
	tailProbes = 4
)

// tailID is what a ruling's view after its action name is a function
// of: Required, Regime, and the Exceptions, Rationale and Citations
// slices by data pointer and length. Two rulings with one tailID read
// the same memory, so they render the same tail. Rulings are immutable
// and share their slices across repeated and same-shape evaluations
// (see legal.Ruling), so the slots a batch re-labels and those the
// ruling cache answers carry the tailID of the ruling that answered
// them.
type tailID struct {
	required                            legal.Process
	regime                              legal.Regime
	exceptions                          *legal.ExceptionKind
	rationale                           *string
	citations                           *legal.Citation
	nExceptions, nRationale, nCitations int
}

func tailIDOf(r *legal.Ruling) tailID {
	id := tailID{required: r.Required, regime: r.Regime,
		nExceptions: len(r.Exceptions), nRationale: len(r.Rationale), nCitations: len(r.Citations)}
	if len(r.Exceptions) > 0 {
		id.exceptions = &r.Exceptions[0]
	}
	if len(r.Rationale) > 0 {
		id.rationale = &r.Rationale[0]
	}
	if len(r.Citations) > 0 {
		id.citations = &r.Citations[0]
	}
	return id
}

// tailHome is r's first slot in a tail table. An address cannot be
// hashed without unsafe, so it mixes what else the tailID carries with
// the lengths of the first and last rationale lines; distinct rulings
// that share a home cost only a probe.
func tailHome(r *legal.Ruling) int {
	h := uint64(r.Required)<<56 ^ uint64(r.Regime)<<48 ^ uint64(len(r.Exceptions))<<40 ^
		uint64(len(r.Rationale))<<32 ^ uint64(len(r.Citations))<<24
	if n := len(r.Rationale); n > 0 {
		h ^= uint64(len(r.Rationale[0]))<<12 ^ uint64(len(r.Rationale[n-1]))
	}
	return int((h * 0x9e3779b97f4a7c15) >> (64 - tailBits))
}

// tailTable remembers where in one batch response each distinct ruling
// tail was first rendered, as offsets into the response, so later
// slots with the same tailID copy those bytes instead of rendering
// them again. It lives on the stack for one response and never evicts:
// a ruling whose probe window is taken by other rulings is rendered in
// full.
type tailTable [tailSlots]struct {
	id         tailID
	start, end int // end == 0: the slot is free (a tail is never empty)
}

// append appends r's view tail to dst.
func (t *tailTable) append(dst []byte, r *legal.Ruling) []byte {
	id := tailIDOf(r)
	for i, h := 0, tailHome(r); i < tailProbes; i++ {
		s := &t[(h+i)%tailSlots]
		switch {
		case s.end == 0:
			start := len(dst)
			dst = wire.AppendRulingViewTail(dst, r)
			s.id, s.start, s.end = id, start, len(dst)
			return dst
		case s.id == id:
			return append(dst, dst[s.start:s.end]...)
		}
	}
	return wire.AppendRulingViewTail(dst, r)
}
