package scenario

import (
	"fmt"

	"lawgate/internal/legal"
)

// SceneEvent is one step of a scene's what-if chain: the mutation that
// occurred, the ruling now in force, and whether the event moved the
// required process or governing regime.
type SceneEvent struct {
	// Label names the event.
	Label string
	// Delta is the mutation, in canonical encoding.
	Delta string
	// Ruling is the determination after the event.
	Ruling legal.Ruling
	// Changed reports whether the event moved Required or Regime.
	Changed bool
}

// SceneChain is a Table 1 scene ruled at rest and then pushed through
// its event chain.
type SceneChain struct {
	// Scene is the Table 1 row.
	Scene Scene
	// Base is the ruling for the scene as the paper states it.
	Base legal.Ruling
	// Events are the chain steps, each re-ruled from the previous one.
	Events []SceneEvent
}

// chainSteps derives the what-if mutations for one scene, cumulative
// and in a fixed order: encrypt the channel, escalate the collection to
// content, revoke any consent relied upon, let any exigency lapse. Only
// the steps that actually change the action are emitted.
func chainSteps(a legal.Action) []struct {
	label string
	next  legal.Action
} {
	var steps []struct {
		label string
		next  legal.Action
	}
	add := func(label string, next legal.Action) {
		steps = append(steps, struct {
			label string
			next  legal.Action
		}{label, next})
	}
	cur := a
	if !cur.Encrypted {
		next := cur
		next.Encrypted = true
		add("encrypt", next)
		cur = next
	}
	if cur.Data != legal.DataContent {
		next := cur
		next.Data = legal.DataContent
		add("escalate-to-content", next)
		cur = next
	}
	if cur.Consent != nil && !cur.Consent.Revoked {
		next := cur
		c := *cur.Consent
		c.Revoked = true
		next.Consent = &c
		add("revoke-consent", next)
		cur = next
	}
	if cur.Exigency != nil {
		next := cur
		next.Exigency = nil
		add("lapse-exigency", next)
		cur = next
	}
	return steps
}

// DeltaChains rules every Table 1 scene and then replays its what-if
// event chain — the channel gets encrypted, the collection escalates to
// content, consent is revoked, the exigency lapses — with each step
// re-ruled from the previous ruling through Engine.EvaluateDelta. This is the paper's Table 1 read as a stream:
// the same twenty scenes, but under the legal-facts drift a live
// investigation experiences. Chains are returned in table order.
func DeltaChains(engine *legal.Engine) ([]SceneChain, error) {
	scenes := Table1()
	out := make([]SceneChain, len(scenes))
	for i, s := range scenes {
		base, err := engine.Evaluate(s.Action)
		if err != nil {
			return nil, fmt.Errorf("scenario: scene %d base: %w", s.Number, err)
		}
		chain := SceneChain{Scene: s, Base: base}
		prev := base
		cur := s.Action
		for _, step := range chainSteps(s.Action) {
			d := legal.Diff(&cur, &step.next)
			r, err := engine.EvaluateDelta(&prev, d)
			if err != nil {
				return nil, fmt.Errorf("scenario: scene %d %s: %w", s.Number, step.label, err)
			}
			chain.Events = append(chain.Events, SceneEvent{
				Label:   step.label,
				Delta:   d.Encoding(),
				Ruling:  r,
				Changed: r.Required != prev.Required || r.Regime != prev.Regime,
			})
			prev = r
			cur = step.next
		}
		out[i] = chain
	}
	return out, nil
}
