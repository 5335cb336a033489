// Package lawgate is the public API of the lawgate library: an executable
// model of the legal regime governing digital-forensic evidence
// acquisition, reproducing "When Digital Forensic Research Meets Laws"
// (Huang, Ling, Xiang, Wang, Fu — ICDCS 2012 Workshops).
//
// # Architecture
//
// The core is the compliance engine (internal/legal): describe an
// investigative step as an Action and Evaluate returns the Ruling — the
// required process (none / subpoena / court order / search warrant /
// wiretap order), the governing regime (Fourth Amendment, Wiretap Act,
// Pen/Trap statute, SCA), the exceptions applied, and a cited rationale
// chain. The paper's Table 1 (twenty digital-crime scenes) is encoded in
// internal/scenario and reproduced exactly.
//
// Internally the engine is a declarative rule pipeline: every doctrine
// the paper cites is one named Rule value (predicate, ruling
// contribution, citations, and optionally the counterfactual the advisor
// explores) in the ordered table DefaultRules returns. Evaluate walks
// the table first-match; a Ruling records which rules fired in its
// Applied field. Adding a doctrine means adding one Rule — typically via
// InsertRuleBefore plus WithRules on a custom engine — with no change to
// the pipeline itself.
//
// For corpus-scale work the engine compiles its rule table into a
// dispatch index (evaluation consults only the candidate rules for an
// action's enum coordinates), offers EvaluateBatch, which evaluates a
// slice of Actions in one pass on the caller's goroutine and answers
// repeats and name-only variants from the earlier slot with the same
// cache key, and WithRulingCache, a lock-free hash-keyed memoization cache whose hit
// path allocates nothing. Rulings are immutable, so cached results are
// shared, not copied. WithEngineStats adds cache/dispatch counters
// (EngineStats) for observability.
//
// Around the engine sit the substrates the paper's scenarios need:
//
//   - evidence: hash-chained chain of custody and exclusionary-rule taint
//     analysis (fruit of the poisonous tree);
//   - court: showings, probable cause with staleness, warrant issuance,
//     scope, expiry, and plain view;
//   - netsim: a deterministic discrete-event packet network;
//   - capture: pen registers, trap-and-trace devices, header sniffers,
//     rate meters, and wiretaps, legally gated;
//   - provider: ISPs under the SCA (ECS/RCS lifecycle, § 2702/§ 2703);
//   - p2p: the anonymous-filesharing timing attack of § IV-A;
//   - anonet + watermark: the Tor-like network and DSSS PN-code flow
//     watermark of § IV-B;
//   - disk: images, a recoverable filesystem, carving, hash search;
//   - investigation: end-to-end case flows with suppression hearings.
//
// This package re-exports the main entry points so downstream users need
// a single import.
package lawgate

import (
	"context"
	"time"

	"lawgate/internal/capture"
	"lawgate/internal/court"
	"lawgate/internal/evidence"
	"lawgate/internal/experiment"
	"lawgate/internal/faults"
	"lawgate/internal/investigation"
	"lawgate/internal/ledger"
	"lawgate/internal/legal"
	"lawgate/internal/netsim"
	"lawgate/internal/p2p"
	"lawgate/internal/scenario"
	"lawgate/internal/watermark"
)

// Core legal-engine types.
type (
	// Engine is the statutory/constitutional compliance engine.
	Engine = legal.Engine
	// Action describes one investigative acquisition step.
	Action = legal.Action
	// Ruling is the engine's determination for an Action.
	Ruling = legal.Ruling
	// Process is a level of legal process (none … wiretap order).
	Process = legal.Process
	// Showing is an evidentiary basis (mere suspicion … probable cause).
	Showing = legal.Showing
	// Regime identifies the governing body of law.
	Regime = legal.Regime
	// Citation is a legal authority reference.
	Citation = legal.Citation
	// Rule is one named doctrine in the engine's declarative pipeline.
	Rule = legal.Rule
	// RuleContext is the evaluation state a Rule predicates on and
	// mutates.
	RuleContext = legal.RuleContext
	// EngineOption configures NewEngine (rule table, cache, stats).
	EngineOption = legal.EngineOption
	// EngineStats is a snapshot of the engine's evaluation counters.
	EngineStats = legal.EngineStats
)

// Process levels, re-exported.
const (
	ProcessNone          = legal.ProcessNone
	ProcessSubpoena      = legal.ProcessSubpoena
	ProcessCourtOrder    = legal.ProcessCourtOrder
	ProcessSearchWarrant = legal.ProcessSearchWarrant
	ProcessWiretapOrder  = legal.ProcessWiretapOrder
)

// Governing regimes, re-exported (custom Rules pass one to
// RuleContext.Require).
const (
	RegimeNone            = legal.RegimeNone
	RegimeFourthAmendment = legal.RegimeFourthAmendment
	RegimeWiretap         = legal.RegimeWiretap
	RegimePenTrap         = legal.RegimePenTrap
	RegimeSCA             = legal.RegimeSCA
)

// NewEngine returns a ready-to-use compliance engine.
func NewEngine(opts ...legal.EngineOption) *Engine { return legal.NewEngine(opts...) }

// DefaultRules returns the engine's doctrine table: the paper's rules in
// precedence order, one named Rule per doctrine.
func DefaultRules() []Rule { return legal.DefaultRules() }

// InsertRuleBefore returns a copy of rules with r inserted before the
// named rule — the extension point for registering a new doctrine on a
// custom engine via WithRules.
func InsertRuleBefore(rules []Rule, name string, r Rule) ([]Rule, error) {
	return legal.InsertRuleBefore(rules, name, r)
}

// WithRules substitutes the engine's rule table.
func WithRules(rules []Rule) EngineOption { return legal.WithRules(rules) }

// WithRulingCache enables the lock-free ruling memoization cache
// (sizeHint <= 0 selects the default initial table size).
func WithRulingCache(sizeHint int) EngineOption { return legal.WithRulingCache(sizeHint) }

// WithRulingCacheCapacity bounds the ruling cache at maxEntries
// memoized rulings, evicting by generational flush when full.
func WithRulingCacheCapacity(maxEntries int) EngineOption {
	return legal.WithRulingCacheCapacity(maxEntries)
}

// WithEngineStats enables the engine's evaluation counters; read them
// with Engine.Stats.
func WithEngineStats() EngineOption { return legal.WithEngineStats() }

// Advice is one advisor suggestion for lowering an action's process
// requirement — the paper's recommendation to researchers operationalized.
type Advice = legal.Advice

// Event-carried delta pipeline: describe how an action changed as an
// ActionDelta and re-rule it with Engine.EvaluateDelta, which evaluates
// the mutated action exactly as Evaluate would.
type (
	// ActionDelta is an ordered set of field-level mutations to an
	// Action, applied with Apply and reversed with Unapply.
	ActionDelta = legal.ActionDelta
	// FieldDelta is one field's old-to-new transition inside a delta.
	FieldDelta = legal.FieldDelta
	// Field identifies one Action field in a delta.
	Field = legal.Field
)

// Delta field identifiers, re-exported for building deltas by hand
// (Diff derives them automatically).
const (
	FieldName                  = legal.FieldName
	FieldActor                 = legal.FieldActor
	FieldTiming                = legal.FieldTiming
	FieldData                  = legal.FieldData
	FieldSource                = legal.FieldSource
	FieldProviderRole          = legal.FieldProviderRole
	FieldEncrypted             = legal.FieldEncrypted
	FieldConsent               = legal.FieldConsent
	FieldExigency              = legal.FieldExigency
	FieldSearchBeyondAuthority = legal.FieldSearchBeyondAuthority
)

// Diff computes the ActionDelta that transforms old into new.
func Diff(old, new *Action) ActionDelta { return legal.Diff(old, new) }

// Scenario catalog (the paper's Table 1 and Section IV case studies).
type (
	// Scene is one row of Table 1.
	Scene = scenario.Scene
	// CaseStudy is one Section IV analysis.
	CaseStudy = scenario.CaseStudy
	// SceneRuling pairs a Scene with the engine's ruling.
	SceneRuling = scenario.SceneRuling
	// CaseStudyRuling pairs a CaseStudy with the engine's ruling.
	CaseStudyRuling = scenario.CaseStudyRuling
)

// Table1 returns the paper's twenty scenes.
func Table1() []Scene { return scenario.Table1() }

// CaseStudies returns the Section IV situations.
func CaseStudies() []CaseStudy { return scenario.CaseStudies() }

// Evidence handling.
type (
	// Locker stores evidence with custody chaining and taint analysis.
	Locker = evidence.Locker
	// Item is one evidence item.
	Item = evidence.Item
	// Assessment is a suppression-hearing outcome.
	Assessment = evidence.Assessment
)

// NewLocker returns an empty evidence locker.
func NewLocker(opts ...evidence.LockerOption) *Locker { return evidence.NewLocker(opts...) }

// Tamper-evident audit ledger: the hash-chained, Merkle-indexed
// append-only log that custody, capture, and court records share. A
// Case seals all three producers onto one ledger; Assessment and the
// case report cite inclusion proofs against its root.
type (
	// Ledger is the append-only, hash-chained audit ledger.
	Ledger = ledger.Ledger
	// LedgerRecord is one sealed ledger record.
	LedgerRecord = ledger.Record
	// LedgerDraft is the producer-supplied part of a record.
	LedgerDraft = ledger.Draft
	// LedgerKind classifies which subsystem produced a record.
	LedgerKind = ledger.Kind
	// LedgerProof is an O(log n) inclusion proof for one record.
	LedgerProof = ledger.Proof
	// LedgerCheckpoint is a portable commitment to a ledger prefix.
	LedgerCheckpoint = ledger.Checkpoint
	// LedgerTamperError pinpoints the first record failing verification.
	LedgerTamperError = ledger.TamperError
)

// Ledger record kinds, re-exported.
const (
	LedgerKindCustody             = ledger.KindCustody
	LedgerKindCapture             = ledger.KindCapture
	LedgerKindAuthorization       = ledger.KindAuthorization
	LedgerKindAuthorizationDenied = ledger.KindAuthorizationDenied
	LedgerKindExecution           = ledger.KindExecution
	LedgerKindCaseEvent           = ledger.KindCaseEvent
	LedgerKindService             = ledger.KindService
)

// ErrLedgerTampered is the sentinel every ledger-verification failure
// wraps.
var ErrLedgerTampered = ledger.ErrTampered

// NewLedger returns an empty audit ledger.
func NewLedger(opts ...ledger.Option) *Ledger { return ledger.New(opts...) }

// WithLedgerCapacity preallocates ledger storage for n records so the
// first n appends allocate nothing.
func WithLedgerCapacity(n int) ledger.Option { return ledger.WithCapacity(n) }

// VerifyLedgerProof checks an inclusion proof: that the record with
// chain hash leaf sits at p.Index in the ledger whose root over the
// first p.Size records is root.
func VerifyLedgerProof(leaf [32]byte, p LedgerProof, root [32]byte) bool {
	return ledger.VerifyProof(leaf, p, root)
}

// LedgerConsistencyProof proves one checkpoint extends another without
// replaying records (RFC 6962 § 2.1.2).
type LedgerConsistencyProof = ledger.ConsistencyProof

// VerifyLedgerConsistency checks that the ledger whose root over
// p.NewSize records is newRoot is an append-only extension of the
// ledger whose root over p.OldSize records was oldRoot.
func VerifyLedgerConsistency(p LedgerConsistencyProof, oldRoot, newRoot [32]byte) bool {
	return ledger.VerifyConsistency(p, oldRoot, newRoot)
}

// LoadLedger deserializes a ledger; Verify decides authenticity.
func LoadLedger(data []byte) (*Ledger, error) { return ledger.Load(data) }

// LoadLedgerFile reads and deserializes a ledger file.
func LoadLedgerFile(path string) (*Ledger, error) { return ledger.LoadFile(path) }

// Court simulation.
type (
	// Court adjudicates process applications.
	Court = court.Court
	// Fact is one investigative fact.
	Fact = court.Fact
	// Order is issued process.
	Order = court.Order
)

// NewCourt returns a court with default process lifetimes.
func NewCourt(opts ...court.CourtOption) *Court { return court.NewCourt(opts...) }

// Capture devices.
type (
	// Device is a legally gated capture instrument.
	Device = capture.Device
	// Gate authorizes devices before arming.
	Gate = capture.Gate
)

// NewGate returns a device-authorization gate.
func NewGate(strict bool) *Gate { return capture.NewGate(strict) }

// Investigation flows.
type (
	// Case is one investigation with facts, orders, and evidence.
	Case = investigation.Case
	// P2PTracebackConfig parameterizes the § IV-A flow.
	P2PTracebackConfig = investigation.P2PTracebackConfig
	// P2PTracebackResult is the § IV-A outcome.
	P2PTracebackResult = investigation.P2PTracebackResult
	// WatermarkTracebackResult is the § IV-B outcome.
	WatermarkTracebackResult = investigation.WatermarkTracebackResult
)

// NewCase opens an investigation.
func NewCase(name string, opts ...investigation.CaseOption) *Case {
	return investigation.NewCase(name, opts...)
}

// RunP2PTraceback executes the Section IV-A investigation end to end.
func RunP2PTraceback(cfg P2PTracebackConfig, opts ...investigation.CaseOption) (*P2PTracebackResult, error) {
	return investigation.RunP2PTraceback(cfg, opts...)
}

// WatermarkExperimentConfig parameterizes the § IV-B trial.
type WatermarkExperimentConfig = watermark.ExperimentConfig

// DefaultWatermarkConfig returns a moderate § IV-B working point.
func DefaultWatermarkConfig() WatermarkExperimentConfig {
	return watermark.DefaultExperimentConfig()
}

// RunWatermarkTraceback executes the Section IV-B investigation end to
// end.
func RunWatermarkTraceback(ec WatermarkExperimentConfig, opts ...investigation.CaseOption) (*WatermarkTracebackResult, error) {
	return investigation.RunWatermarkTraceback(ec, opts...)
}

// P2PExperimentConfig parameterizes the § IV-A classification experiment.
type P2PExperimentConfig = p2p.ExperimentConfig

// RunP2PExperiment runs one § IV-A classification trial.
func RunP2PExperiment(ec P2PExperimentConfig) (p2p.ExperimentResult, error) {
	return p2p.RunExperiment(ec)
}

// RunWatermarkExperiment runs one § IV-B detection trial.
func RunWatermarkExperiment(ec WatermarkExperimentConfig) (watermark.ExperimentResult, error) {
	return watermark.RunExperiment(ec)
}

// Experiment-harness re-exports: declare a measurement campaign as a
// Sweep (a parameter grid of seeded Trials producing Samples), execute
// it with RunSweep on a bounded worker pool, and consume the aggregated
// SweepSeries. Per-trial seeds derive deterministically from the
// sweep's master seed, so results are byte-identical at any worker
// count. The E2/E3 sweeps in internal/p2p and internal/watermark are
// the reference declarations.
type (
	Sweep       = experiment.Sweep
	SweepPoint  = experiment.Point
	Trial       = experiment.Trial
	Sample      = experiment.Sample
	SweepSeries = experiment.Series
	SweepReport = experiment.Report
	SweepRunner = experiment.Runner
)

// RunSweep executes a sweep's trials on workers parallel workers (0 =
// all CPUs) and aggregates the results.
func RunSweep(ctx context.Context, workers int, sw Sweep) (SweepSeries, error) {
	return experiment.Runner{Workers: workers}.Run(ctx, sw)
}

// DeriveSeed deterministically derives a child seed from a master seed
// and an index path (splitmix64 chain) — the scheme the sweep runner
// uses for per-trial seeds.
func DeriveSeed(master int64, path ...int64) int64 {
	return experiment.DeriveSeed(master, path...)
}

// Fault-injection re-exports: declare substrate misbehavior as a
// FaultPlan (loss, duplication, reorder delay, bandwidth caps, peer
// churn), either directly or via a named FaultProfile, and realize it
// as a seeded FaultInjector over the nodes of a simulated network. The
// schedule is fully determined by (plan, seed) and each node's own event
// order, so degraded runs stay byte-identical at any worker count; a
// zero plan injects nothing and leaves runs untouched.
type (
	// FaultPlan declares what the substrate does wrong.
	FaultPlan = faults.Plan
	// FaultChurn is the node crash/recovery portion of a plan.
	FaultChurn = faults.Churn
	// FaultInjector realizes a plan for the nodes of one network.
	FaultInjector = faults.Partitioned
	// FaultStats counts what an injector actually did.
	FaultStats = faults.Stats
)

// NewFaultInjector validates the plan and returns a deterministic
// injector holding per-node fault state for exactly the named nodes;
// a query about any other node panics rather than exempting it.
func NewFaultInjector(plan FaultPlan, seed int64, nodes ...string) (*FaultInjector, error) {
	ids := make([]netsim.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = netsim.NodeID(n)
	}
	return faults.NewPartitioned(plan, seed, ids)
}

// FaultProfile resolves a named fault profile ("none", "lossy",
// "jittery", "churny", "degraded", "hostile") to its plan.
func FaultProfile(name string) (FaultPlan, error) { return faults.Profile(name) }

// FaultProfiles lists the named profiles.
func FaultProfiles() []string { return faults.Profiles() }

// ChurnFraction builds a churn declaration from a target down-fraction
// and a mean outage length.
func ChurnFraction(downFraction float64, meanOutage time.Duration, exempt ...string) FaultChurn {
	return faults.ChurnFraction(downFraction, meanOutage, exempt...)
}

// Acquisition summarizes how much evidence a capture device obtained —
// reported by partial or interrupted captures instead of discarding
// what was gathered.
type Acquisition = capture.Acquisition

// TrialError locates one failed trial inside a sweep; PanicError is the
// failure a recovered trial panic becomes. A sweep with failed trials
// still aggregates its surviving trials — the runner returns the
// partial series alongside the joined trial errors.
type (
	TrialError = experiment.TrialError
	PanicError = experiment.PanicError
)

// DriveExamResult is the Table 1 scenes 18-19 flow's outcome.
type DriveExamResult = investigation.DriveExamResult

// RunDriveExam runs the seized-drive examination flow; withHashWarrant
// selects the Crist-compliant (second warrant) or Crist-violating path.
func RunDriveExam(withHashWarrant bool, opts ...investigation.CaseOption) (*DriveExamResult, error) {
	return investigation.RunDriveExam(withHashWarrant, opts...)
}

// AttributionResult is the § III-A-2 identification flow's outcome.
type AttributionResult = investigation.AttributionResult

// RunAttributionExam runs the attribution flow: who acted, was malware
// responsible, did the suspect know the subject.
func RunAttributionExam(exclusive bool, opts ...investigation.CaseOption) (*AttributionResult, error) {
	return investigation.RunAttributionExam(exclusive, opts...)
}
