// Package report renders lawgate results — engine rulings, the Table 1
// reproduction, case-study checks — as JSON for machine consumption and
// Markdown for documents like EXPERIMENTS.md. The views are flat,
// string-typed projections so downstream tooling never needs the legal
// package's enums.
package report

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"lawgate/internal/legal"
	"lawgate/internal/scenario"
)

// RulingView is a serialization-friendly projection of a legal.Ruling.
type RulingView struct {
	Action       string   `json:"action"`
	Required     string   `json:"required"`
	Regime       string   `json:"regime"`
	NeedsProcess bool     `json:"needsProcess"`
	Exceptions   []string `json:"exceptions,omitempty"`
	Rationale    []string `json:"rationale"`
	Citations    []string `json:"citations"`
}

// FromRuling projects a ruling.
func FromRuling(r legal.Ruling) RulingView {
	if r.Verdict == nil {
		r.Verdict = new(legal.Verdict) // a zero ruling views as a zero verdict
	}
	v := RulingView{
		Action:       r.Action.Name,
		Required:     r.Required.String(),
		Regime:       r.Regime.String(),
		NeedsProcess: r.NeedsProcess(),
		Rationale:    append([]string(nil), r.Rationale...),
	}
	for _, e := range r.Exceptions {
		v.Exceptions = append(v.Exceptions, e.String())
	}
	for _, c := range r.Citations {
		v.Citations = append(v.Citations, c.Title)
	}
	return v
}

// SceneView is one Table 1 row: the paper's answer next to the engine's.
type SceneView struct {
	Number      int    `json:"number"`
	Description string `json:"description"`
	PaperAnswer string `json:"paperAnswer"`
	EngineNeeds bool   `json:"engineNeedsProcess"`
	Required    string `json:"required"`
	Regime      string `json:"regime"`
	Match       bool   `json:"match"`
}

// Table1Report evaluates every scene through the engine's batch API and
// pairs each with the paper's answer.
func Table1Report(engine *legal.Engine) ([]SceneView, error) {
	rulings, err := scenario.EvaluateTable1(context.Background(), engine)
	if err != nil {
		return nil, err
	}
	out := make([]SceneView, 0, len(rulings))
	for _, sr := range rulings {
		out = append(out, SceneView{
			Number:      sr.Scene.Number,
			Description: sr.Scene.Description,
			PaperAnswer: sr.Scene.Answer(),
			EngineNeeds: sr.Ruling.NeedsProcess(),
			Required:    sr.Ruling.Required.String(),
			Regime:      sr.Ruling.Regime.String(),
			Match:       sr.Matches(),
		})
	}
	return out, nil
}

// CaseStudyView is one Section IV check.
type CaseStudyView struct {
	ID            string `json:"id"`
	Description   string `json:"description"`
	PaperRequires string `json:"paperRequires"`
	EngineRequire string `json:"engineRequires"`
	Match         bool   `json:"match"`
}

// CaseStudiesReport evaluates the Section IV situations through the
// engine's batch API.
func CaseStudiesReport(engine *legal.Engine) ([]CaseStudyView, error) {
	rulings, err := scenario.EvaluateCaseStudies(context.Background(), engine)
	if err != nil {
		return nil, err
	}
	out := make([]CaseStudyView, 0, len(rulings))
	for _, cr := range rulings {
		out = append(out, CaseStudyView{
			ID:            cr.Study.ID,
			Description:   cr.Study.Description,
			PaperRequires: cr.Study.PaperProcess.String(),
			EngineRequire: cr.Ruling.Required.String(),
			Match:         cr.Matches(),
		})
	}
	return out, nil
}

// WriteJSON writes v as indented JSON.
func WriteJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Table1Markdown renders the Table 1 report as a Markdown table.
func Table1Markdown(views []SceneView) string {
	var b strings.Builder
	b.WriteString("| # | Paper | Engine | Regime | Required | Match |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, v := range views {
		engine := "No need"
		if v.EngineNeeds {
			engine = "Need"
		}
		match := "OK"
		if !v.Match {
			match = "MISMATCH"
		}
		fmt.Fprintf(&b, "| %d | %s | %s | %s | %s | %s |\n",
			v.Number, v.PaperAnswer, engine, v.Regime, v.Required, match)
	}
	return b.String()
}

// Matches counts matching rows.
func Matches(views []SceneView) int {
	n := 0
	for _, v := range views {
		if v.Match {
			n++
		}
	}
	return n
}
