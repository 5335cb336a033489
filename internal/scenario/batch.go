package scenario

import (
	"context"
	"fmt"

	"lawgate/internal/legal"
)

// SceneRuling pairs a Table 1 scene with the engine's ruling for it.
type SceneRuling struct {
	Scene  Scene
	Ruling legal.Ruling
}

// Matches reports whether the engine agrees with the paper's answer.
func (sr SceneRuling) Matches() bool {
	return sr.Ruling.NeedsProcess() == sr.Scene.PaperNeeds
}

// CaseStudyRuling pairs a Section IV case study with the engine's ruling.
type CaseStudyRuling struct {
	Study  CaseStudy
	Ruling legal.Ruling
}

// Matches reports whether the engine agrees with the paper's conclusion.
func (cr CaseStudyRuling) Matches() bool {
	return cr.Ruling.Required == cr.Study.PaperProcess
}

// EvaluateTable1 evaluates all twenty Table 1 scenes through the engine's
// batch API and returns the rulings in table order.
func EvaluateTable1(ctx context.Context, engine *legal.Engine) ([]SceneRuling, error) {
	scenes := Table1()
	actions := make([]legal.Action, len(scenes))
	for i, s := range scenes {
		actions[i] = s.Action
	}
	rulings, err := engine.EvaluateBatch(ctx, actions)
	if err != nil {
		return nil, fmt.Errorf("scenario: table 1: %w", err)
	}
	out := make([]SceneRuling, len(scenes))
	for i := range scenes {
		out[i] = SceneRuling{Scene: scenes[i], Ruling: rulings[i]}
	}
	return out, nil
}

// EvaluateCaseStudies evaluates the Section IV situations through the
// engine's batch API, in catalog order.
func EvaluateCaseStudies(ctx context.Context, engine *legal.Engine) ([]CaseStudyRuling, error) {
	studies := CaseStudies()
	actions := make([]legal.Action, len(studies))
	for i, cs := range studies {
		actions[i] = cs.Action
	}
	rulings, err := engine.EvaluateBatch(ctx, actions)
	if err != nil {
		return nil, fmt.Errorf("scenario: case studies: %w", err)
	}
	out := make([]CaseStudyRuling, len(studies))
	for i := range studies {
		out[i] = CaseStudyRuling{Study: studies[i], Ruling: rulings[i]}
	}
	return out, nil
}
