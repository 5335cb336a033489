package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
	"lawgate/internal/report"
	"lawgate/internal/wire"
)

// EvaluateResponse is the /v1/evaluate reply.
type EvaluateResponse struct {
	Tenant   string            `json:"tenant"`
	Revision uint64            `json:"revision"`
	Ruling   report.RulingView `json:"ruling"`
}

// BatchResponse is the /v1/evaluate/batch reply: one ruling slot per
// input action, with failed slots null and their errors listed.
type BatchResponse struct {
	Tenant   string               `json:"tenant"`
	Revision uint64               `json:"revision"`
	Rulings  []*report.RulingView `json:"rulings"`
	Errors   []BatchError         `json:"errors,omitempty"`
}

// BatchError names one failed batch slot.
type BatchError struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// AdviceItem is one advisor redesign.
type AdviceItem struct {
	Required    string `json:"required"`
	Regime      string `json:"regime"`
	Explanation string `json:"explanation"`
	Rule        string `json:"rule"`
}

// AdviseResponse is the /v1/advise reply.
type AdviseResponse struct {
	Tenant   string            `json:"tenant"`
	Revision uint64            `json:"revision"`
	Ruling   report.RulingView `json:"ruling"`
	Advice   []AdviceItem      `json:"advice"`
}

// CheckpointResponse is the /v1/ledger/checkpoint reply. Consistency is
// present when the request carried ?since=M: the proof that this
// checkpoint extends the size-M checkpoint the tenant anchored earlier.
type CheckpointResponse struct {
	Tenant      string           `json:"tenant"`
	Size        uint64           `json:"size"`
	Root        string           `json:"root"`
	Head        string           `json:"head"`
	Consistency *ConsistencyView `json:"consistency,omitempty"`
}

// ConsistencyView is a hex-rendered ledger.ConsistencyProof.
type ConsistencyView struct {
	OldSize uint64   `json:"oldSize"`
	NewSize uint64   `json:"newSize"`
	Path    []string `json:"path"`
}

// TenantView is the /v1/tenants/{id} (and rules-install) reply.
type TenantView struct {
	Tenant      string             `json:"tenant"`
	Revision    uint64             `json:"revision"`
	Container   string             `json:"container"`
	RuleCount   int                `json:"ruleCount"`
	InstalledAt time.Time          `json:"installedAt"`
	LedgerSize  int                `json:"ledgerSize"`
	Engine      *legal.EngineStats `json:"engine,omitempty"`
}

// tenant resolves the request's tenant from ?tenant= or the
// X-Lawgate-Tenant header, defaulting to "default".
func (s *Server) tenant(r *http.Request) (*Tenant, *apiError) {
	id := r.URL.Query().Get("tenant")
	if id == "" {
		id = r.Header.Get("X-Lawgate-Tenant")
	}
	if id == "" {
		id = "default"
	}
	t := s.reg.Get(id)
	if t == nil {
		return nil, &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown tenant %q", id)}
	}
	return t, nil
}

// admitRequest runs the admission pipeline shared by the evaluation
// endpoints: tenant rate limit, then the bounded work queue, under the
// request deadline. On success the caller owns release().
func (s *Server) admitRequest(ctx context.Context, t *Tenant) (release func(), aerr *apiError) {
	if t.bucket != nil {
		if ok, retry := t.bucket.take(); !ok {
			s.stats.rateLimited.Add(1)
			return nil, &apiError{status: http.StatusTooManyRequests,
				msg: fmt.Sprintf("tenant %q over rate limit", t.ID), retryAfter: retry}
		}
	}
	release, err := s.adm.admit(ctx)
	switch {
	case err == nil:
		return release, nil
	case errors.Is(err, errShed):
		s.stats.shed.Add(1)
		return nil, &apiError{status: http.StatusTooManyRequests,
			msg: "server over capacity, request shed", retryAfter: time.Second}
	default:
		return nil, &apiError{status: http.StatusGatewayTimeout,
			msg: "deadline expired while queued for admission"}
	}
}

func deadlineErr(stage string) *apiError {
	return &apiError{status: http.StatusGatewayTimeout,
		msg: "deadline expired during " + stage}
}

// evaluateNotes holds the audit note for a served ruling per process
// level, built once so the hot path does not concatenate a note per
// request.
var evaluateNotes = func() (notes [legal.ProcessWiretapOrder + 1]string) {
	for p := legal.ProcessNone; p <= legal.ProcessWiretapOrder; p++ {
		notes[p] = "evaluate -> " + p.String()
	}
	return notes
}()

// evaluateNote returns the audit note recording that a ruling requiring
// p was served.
func evaluateNote(p legal.Process) string {
	if p >= legal.ProcessNone && int(p) < len(evaluateNotes) {
		return evaluateNotes[p]
	}
	return "evaluate -> " + p.String()
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) *apiError {
	t, aerr := s.tenant(r)
	if aerr != nil {
		return aerr
	}
	sc := getScratch()
	defer putScratch(sc)
	var a legal.Action
	if aerr := s.readAction(w, r, sc, &a); aerr != nil {
		return aerr
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	release, aerr := s.admitRequest(ctx, t)
	if aerr != nil {
		return aerr
	}
	defer release()
	if s.hook != nil {
		s.hook(ctx, t.ID, &a)
	}
	if ctx.Err() != nil {
		return deadlineErr("evaluation")
	}
	ev := t.Engine()
	ruling, err := ev.Engine.Evaluate(a)
	if err != nil {
		return &apiError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	s.stats.rulings.Add(1)
	t.audit(ledger.Draft{
		At:      s.now().UnixNano(),
		Kind:    ledger.KindService,
		Code:    ServiceRulingServed,
		Actor:   "lawgated",
		Subject: a.Name,
		Note:    evaluateNote(ruling.Required),
	})
	buf := wire.GetBuffer()
	buf.B = appendEvaluateResponse(buf.B[:0], t.ID, ev.Revision, &ruling)
	writeRaw(w, http.StatusOK, buf.B)
	wire.PutBuffer(buf)
	return nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) *apiError {
	t, aerr := s.tenant(r)
	if aerr != nil {
		return aerr
	}
	sc := getScratch()
	defer putScratch(sc)
	if aerr := s.readActions(w, r, sc); aerr != nil {
		return aerr
	}
	actions := sc.actions
	if len(actions) > s.maxBatch {
		return &apiError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("batch of %d actions exceeds the %d-action cap", len(actions), s.maxBatch)}
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	release, aerr := s.admitRequest(ctx, t)
	if aerr != nil {
		return aerr
	}
	defer release()
	if s.hook != nil {
		var probe legal.Action
		if len(actions) > 0 {
			probe = actions[0]
		}
		s.hook(ctx, t.ID, &probe)
	}
	ev := t.Engine()
	rulings, slotErrs := sc.batchSlots(len(actions))
	if err := ev.Engine.EvaluateBatchInto(ctx, actions, rulings, slotErrs); err != nil {
		return deadlineErr("batch evaluation")
	}
	failed := 0
	for _, err := range slotErrs {
		if err != nil {
			failed++
		}
	}
	s.stats.rulings.Add(uint64(len(rulings) - failed))
	t.audit(ledger.Draft{
		At:      s.now().UnixNano(),
		Kind:    ledger.KindService,
		Code:    ServiceRulingServed,
		Actor:   "lawgated",
		Subject: t.ID,
		Note:    fmt.Sprintf("batch: %d actions, %d invalid", len(actions), failed),
	})
	// Encode straight from the engine's rulings: the response never
	// materializes a []*report.RulingView.
	buf := wire.GetBuffer()
	buf.B = appendBatchResponse(buf.B[:0], t.ID, ev.Revision, rulings, slotErrs)
	writeRaw(w, http.StatusOK, buf.B)
	wire.PutBuffer(buf)
	return nil
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) *apiError {
	t, aerr := s.tenant(r)
	if aerr != nil {
		return aerr
	}
	sc := getScratch()
	defer putScratch(sc)
	var a legal.Action
	if aerr := s.readAction(w, r, sc, &a); aerr != nil {
		return aerr
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	release, aerr := s.admitRequest(ctx, t)
	if aerr != nil {
		return aerr
	}
	defer release()
	if s.hook != nil {
		s.hook(ctx, t.ID, &a)
	}
	if ctx.Err() != nil {
		return deadlineErr("advisory")
	}
	ev := t.Engine()
	ruling, err := ev.Engine.Evaluate(a)
	if err != nil {
		return &apiError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	advice, err := ev.Engine.Advise(a)
	if err != nil {
		return &apiError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	resp := AdviseResponse{Tenant: t.ID, Revision: ev.Revision, Ruling: report.FromRuling(ruling)}
	for _, ad := range advice {
		resp.Advice = append(resp.Advice, AdviceItem{
			Required:    ad.Ruling.Required.String(),
			Regime:      ad.Ruling.Regime.String(),
			Explanation: ad.Explanation,
			Rule:        ad.Rule,
		})
	}
	s.stats.rulings.Add(1)
	t.audit(ledger.Draft{
		At:      s.now().UnixNano(),
		Kind:    ledger.KindService,
		Code:    ServiceAdviceServed,
		Actor:   "lawgated",
		Subject: a.Name,
		Note:    fmt.Sprintf("advise: %d redesigns", len(resp.Advice)),
	})
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) *apiError {
	t, aerr := s.tenant(r)
	if aerr != nil {
		return aerr
	}
	// Ledger() drains the audit spool first, so the checkpoint commits
	// to every request served before it.
	led := t.Ledger()
	cp := led.Checkpoint()
	resp := CheckpointResponse{
		Tenant: t.ID,
		Size:   cp.Size,
		Root:   hex.EncodeToString(cp.Root[:]),
		Head:   hex.EncodeToString(cp.Head[:]),
	}
	if sinceStr := r.URL.Query().Get("since"); sinceStr != "" {
		since, err := strconv.ParseUint(sinceStr, 10, 64)
		if err != nil {
			return &apiError{status: http.StatusBadRequest, msg: "invalid since: " + err.Error()}
		}
		if since > cp.Size {
			// The client claims a checkpoint ahead of this ledger: one
			// side has been rolled back or forged — a conflict worth a
			// dedicated status, not a silent empty proof.
			return &apiError{status: http.StatusConflict,
				msg: fmt.Sprintf("anchored size %d is ahead of ledger size %d", since, cp.Size)}
		}
		proof, err := led.ConsistencyProof(since, cp.Size)
		if err != nil {
			return &apiError{status: http.StatusInternalServerError, msg: err.Error()}
		}
		view := &ConsistencyView{OldSize: proof.OldSize, NewSize: proof.NewSize,
			Path: make([]string, len(proof.Path))}
		for i := range proof.Path {
			view.Path[i] = hex.EncodeToString(proof.Path[i][:])
		}
		resp.Consistency = view
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleInstallRules(w http.ResponseWriter, r *http.Request) *apiError {
	id := r.PathValue("id")
	var cfg RuleConfig
	if aerr := s.readJSON(w, r, &cfg); aerr != nil {
		return aerr
	}
	t, v, err := s.reg.Install(id, cfg)
	if err != nil {
		return &apiError{status: http.StatusBadRequest, msg: err.Error()}
	}
	writeJSON(w, http.StatusOK, tenantView(t, v, nil))
	return nil
}

func (s *Server) handleTenantInfo(w http.ResponseWriter, r *http.Request) *apiError {
	id := r.PathValue("id")
	t := s.reg.Get(id)
	if t == nil {
		return &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown tenant %q", id)}
	}
	v := t.Engine()
	stats := v.Engine.Stats()
	writeJSON(w, http.StatusOK, tenantView(t, v, &stats))
	return nil
}

func tenantView(t *Tenant, v *engineVersion, stats *legal.EngineStats) TenantView {
	container := v.Config.Container
	if container == "" {
		container = "per-file"
	}
	return TenantView{
		Tenant:      t.ID,
		Revision:    v.Revision,
		Container:   container,
		RuleCount:   v.RuleCount,
		InstalledAt: v.InstalledAt,
		LedgerSize:  t.Ledger().Len(),
		Engine:      stats,
	}
}
