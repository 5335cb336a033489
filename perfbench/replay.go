package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
	"lawgate/internal/server"
	"lawgate/internal/wire"
)

// spoolThreshold mirrors the server's audit spool: served-request
// drafts seal through ledger.AppendBatch in groups of this size.
const spoolThreshold = 64

// newServer builds the server the way cmd/lawgated does with its
// default serving flags.
func newServer() (*server.Server, error) {
	return server.New(
		server.WithTenants(servedTenant),
		server.WithAdmission(0, server.DefaultMaxWait),
		server.WithRateLimit(0, 0),
		server.WithDeadline(server.DefaultDeadline),
		server.WithBodyReadTimeout(server.DefaultBodyReadTimeout),
		server.WithMaxBody(server.DefaultMaxBody),
		server.WithDrainDelay(0),
	)
}

// tenantEngine builds an engine the way the server compiles a tenant's
// default RuleConfig.
func tenantEngine() *legal.Engine {
	return legal.NewEngine(
		legal.WithRules(legal.DefaultRules()),
		legal.WithContainerDoctrine(legal.ContainerPerFile),
		legal.WithRulingCache(0),
		legal.WithRulingCacheCapacity(0),
		legal.WithEngineStats(),
	)
}

// discard is a reusable in-process http.ResponseWriter that keeps the
// status and body.
type discard struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (d *discard) Header() http.Header { return d.h }
func (d *discard) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discard) Write(b []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	return d.body.Write(b)
}

func (d *discard) reset() {
	d.status = 0
	d.body.Reset()
}

// replayReq is a prepared in-process request: the http.Request is
// built up front so the timed calls exclude its construction.
type replayReq struct {
	q    *request
	r    *http.Request
	body *bytes.Reader
}

func prepare(qs []request, a anchor) []replayReq {
	out := make([]replayReq, len(qs))
	for i := range qs {
		q := &qs[i]
		rr := replayReq{q: q, body: bytes.NewReader(q.body)}
		switch {
		case q.checkpoint:
			rr.r, _ = http.NewRequest("GET", "/v1/ledger/checkpoint?since="+strconv.FormatUint(a.size, 10), nil)
		case q.actions > 1:
			rr.r, _ = http.NewRequest("POST", "/v1/evaluate/batch", rr.body)
		default:
			rr.r, _ = http.NewRequest("POST", "/v1/evaluate", rr.body)
		}
		out[i] = rr
	}
	return out
}

// rewind makes every prepared request's body readable again.
func rewind(rs []replayReq) {
	for i := range rs {
		rs[i].body.Reset(rs[i].q.body)
		rs[i].r.Body = io.NopCloser(rs[i].body)
	}
}

// replayResult is the traced replay's per-layer view.
type replayResult struct {
	tr *tracer
	// untracedNs and tracedHandlerNs are the handler's total time
	// without and with tracing; allocsPerRequest comes from the
	// untraced pass.
	untracedNs, tracedHandlerNs float64
	allocsPerRequest            float64
	records                     int
	requestBytes                []float64
	decodeNs, encodeNs          []float64 // per action / per ruling, one per request
	// handlerUs and selfUs are per ruling request: the handler span,
	// and the handler span minus the layer spans replayed beside it.
	handlerUs, selfUs []float64
	batchNsPerAction  []float64
}

// replayStream runs qs through an in-process server one request at a time,
// first untraced (for the overhead baseline and the allocation count),
// then traced: per request a span around the whole handler plus spans
// around the layer calls it makes, replayed beside it on the same
// inputs: wire decode, engine evaluation on a tenant-built engine,
// ledger.AppendBatch in spool-sized groups, and wire encode.
func replayStream(qs []request) (*replayResult, error) {
	out := &replayResult{}
	anc := anchor{size: 2} // a fresh tenant ledger: created + installed
	reqs := prepare(qs, anc)
	w := &discard{h: http.Header{}}

	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	rewind(reqs)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := range reqs {
		w.reset()
		h.ServeHTTP(w, reqs[i].r)
	}
	out.untracedNs = float64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	out.allocsPerRequest = float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))

	srv, err = newServer()
	if err != nil {
		return nil, err
	}
	h = srv.Handler()
	rewind(reqs)
	eng := tenantEngine()
	led := ledger.New()
	led.AppendBatch([]ledger.Draft{
		{Kind: ledger.KindService, Code: server.ServiceTenantCreated, Actor: "lawgated", Subject: servedTenant},
		{Kind: ledger.KindService, Code: server.ServiceRulesInstalled, Actor: "lawgated", Subject: servedTenant},
	})
	var (
		pending []ledger.Draft
		action  legal.Action
		actions []legal.Action
		enc     []byte
	)
	tr := newTracer()
	flush := func(i, parent int) float64 {
		if len(pending) == 0 {
			return 0
		}
		s := tr.begin(spAppendBatch, i, parent, "")
		led.AppendBatch(pending)
		tr.end(s)
		out.records += len(pending)
		pending = pending[:0]
		return tr.spans[s].dur()
	}
	for i := range reqs {
		rq := &reqs[i]
		q := rq.q
		root := tr.begin(spRequest, i, -1, "")
		hs := tr.begin(spHandler, i, root, "")
		w.reset()
		h.ServeHTTP(w, rq.r)
		tr.end(hs)
		if w.status != http.StatusOK {
			return nil, fmt.Errorf("in-process replay: request %d: status %d: %.200s", i, w.status, w.body.Bytes())
		}
		handlerNs := tr.spans[hs].dur()
		out.tracedHandlerNs += handlerNs
		var childNs float64
		switch {
		case q.checkpoint:
			flush(i, hs)
			s := tr.begin(spCheckpoint, i, hs, "")
			cp := led.Checkpoint()
			_, err := led.ConsistencyProof(anc.size, cp.Size)
			tr.end(s)
			if err != nil {
				return nil, err
			}
		case q.actions == 1:
			if !bytes.Equal(w.body.Bytes(), q.want) {
				return nil, fmt.Errorf("in-process replay: request %d: ruling differs from the reference", i)
			}
			out.requestBytes = append(out.requestBytes, float64(len(q.body)))
			s := tr.begin(spDecode, i, hs, "")
			err := wire.DecodeAction(q.body, &action)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			out.decodeNs = append(out.decodeNs, tr.spans[s].dur())
			childNs += tr.spans[s].dur()
			s = tr.begin(spEvaluate, i, hs, "")
			ruling, err := eng.Evaluate(action)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			childNs += tr.spans[s].dur()
			pending = append(pending, ledger.Draft{
				At: time.Now().UnixNano(), Kind: ledger.KindService, Code: server.ServiceRulingServed,
				Actor: "lawgated", Subject: action.Name, Note: "evaluate -> " + ruling.Required.String(),
			})
			if len(pending) >= spoolThreshold {
				childNs += flush(i, hs)
			}
			s = tr.begin(spEncode, i, hs, "")
			enc = wire.AppendRulingViewFromRuling(enc[:0], &ruling)
			tr.end(s)
			out.encodeNs = append(out.encodeNs, tr.spans[s].dur())
			childNs += tr.spans[s].dur()
		default:
			if !bytes.Equal(w.body.Bytes(), q.want) {
				return nil, fmt.Errorf("in-process replay: batch %d: rulings differ from the reference", i)
			}
			out.requestBytes = append(out.requestBytes, float64(len(q.body)))
			s := tr.begin(spDecode, i, hs, "")
			actions, err = wire.DecodeActions(q.body, actions)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			n := float64(len(actions))
			out.decodeNs = append(out.decodeNs, tr.spans[s].dur()/n)
			childNs += tr.spans[s].dur()
			s = tr.begin(spEvaluateBatch, i, hs, "")
			rulings, err := eng.EvaluateBatch(context.Background(), actions)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			out.batchNsPerAction = append(out.batchNsPerAction, tr.spans[s].dur()/n)
			childNs += tr.spans[s].dur()
			pending = append(pending, ledger.Draft{
				At: time.Now().UnixNano(), Kind: ledger.KindService, Code: server.ServiceRulingServed,
				Actor: "lawgated", Subject: servedTenant,
				Note: fmt.Sprintf("batch: %d actions, %d invalid", len(actions), 0),
			})
			if len(pending) >= spoolThreshold {
				childNs += flush(i, hs)
			}
			s = tr.begin(spEncode, i, hs, "")
			enc = enc[:0]
			for k := range rulings {
				enc = wire.AppendRulingViewFromRuling(enc, &rulings[k])
			}
			tr.end(s)
			out.encodeNs = append(out.encodeNs, tr.spans[s].dur()/n)
			childNs += tr.spans[s].dur()
		}
		tr.end(root)
		if !q.checkpoint {
			out.handlerUs = append(out.handlerUs, handlerNs/1e3)
			out.selfUs = append(out.selfUs, (handlerNs-childNs)/1e3)
		}
	}
	// The final audit read: flush and prove, as the server does.
	last := len(reqs)
	root := tr.begin(spRequest, last, -1, "final")
	flush(last, root)
	s := tr.begin(spCheckpoint, last, root, "")
	cp := led.Checkpoint()
	_, err = led.ConsistencyProof(anc.size, cp.Size)
	tr.end(s)
	tr.end(root)
	if err != nil {
		return nil, err
	}
	out.tr = tr
	return out, nil
}
