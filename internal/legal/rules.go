package legal

import "fmt"

// This file is the declarative heart of the engine: every doctrine the
// paper relies on — private search, provider protection, plain view,
// probation, the consent scopes, public access, exigency, Title III,
// Pen/Trap, the SCA tiers, and the closed-container doctrines — is a named
// Rule value registered in an ordered table. Engine.Evaluate is a generic
// walk over that table; it contains no doctrine knowledge of its own.
//
// The table encodes the paper's fixed precedence order: actor screen
// first (private searches and provider self-monitoring fall outside the
// Fourth Amendment), then the warrantless doctrines that excuse process
// outright (plain view, probation), then regime dispatch (Title III and
// Pen/Trap for real-time acquisition, the SCA and the Fourth Amendment
// for stored data). Within the table, the FIRST rule whose predicate
// matches contributes to the ruling; a Terminal rule ends the walk, a
// non-terminal rule (an annotation, or a staged analysis like the REP
// finding) lets evaluation continue.
//
// To add a new doctrine, register a new Rule here (or build a custom
// table with DefaultRules + InsertRuleBefore and pass it to NewEngine via
// WithRules) — the pipeline, the batch API, the cache, and the advisor
// all pick it up without modification.

// RuleContext carries one evaluation through the rule table. Rules read
// the action (and the engine's configured doctrines) through it and
// contribute to the ruling with the Require/Except/Note/Cite mutators.
// It lives in a pooled scratch that the next evaluation reuses, so it
// is valid only while the rule's When or Apply runs; a rule must not
// keep it, or anything it points to, past that call.
type RuleContext struct {
	engine *Engine
	// Action is the action under evaluation. Rules must treat it as
	// read-only.
	Action *Action
	ruling *Ruling
}

// Container reports the engine's configured closed-container doctrine.
func (rc *RuleContext) Container() ContainerDoctrine { return rc.engine.container }

// Ruling exposes the ruling built so far, for predicates that depend on
// earlier rules' contributions (annotation rules, the REP stage). It is
// the scratch ruling, valid only during the When or Apply call it was
// read in: the next evaluation reuses it, and Evaluate returns a copy.
func (rc *RuleContext) Ruling() *Ruling { return rc.ruling }

// Required reports the process level decided so far (zero if no rule has
// decided yet).
func (rc *RuleContext) Required() Process { return rc.ruling.Required }

// Require records the ruling's process requirement, governing regime, and
// the reason for them.
func (rc *RuleContext) Require(p Process, regime Regime, reason string) {
	rc.ruling.require(p, regime, reason)
}

// Except records reliance on an exception doctrine with its reason.
// Exception kinds are deduplicated; the reason always joins the rationale.
func (rc *RuleContext) Except(k ExceptionKind, reason string) {
	rc.ruling.except(k, reason)
}

// Note appends rationale lines without changing the outcome.
func (rc *RuleContext) Note(reasons ...string) {
	rc.ruling.Rationale = append(rc.ruling.Rationale, reasons...)
}

// Cite records supporting authorities by ID, deduplicated, in the order
// first relied upon.
func (rc *RuleContext) Cite(ids ...string) { rc.ruling.cite(ids...) }

// Rule is one named doctrine in the evaluation pipeline: a predicate, a
// ruling contribution, the authorities it rests on, and (optionally) a
// counterfactual generator teaching the advisor how to restructure an
// action so this rule applies.
type Rule struct {
	// Name identifies the rule, e.g. "private-search", "title3-default".
	Name string
	// Doc is a one-line statement of the doctrine.
	Doc string
	// When reports whether the rule applies to the action in this
	// evaluation state. A nil When always applies.
	When func(rc *RuleContext) bool
	// Match declares which enum values When can ever accept, per
	// dimension, for the compiled dispatch index (see dispatch.go). It
	// must be a superset of When: leaving a dimension empty means the
	// rule can fire for any value there, and the zero Match puts the
	// rule in every dispatch bucket — always correct, just unindexed.
	Match RuleMatch
	// Apply contributes the rule's ruling: process requirement,
	// exceptions, rationale.
	Apply func(rc *RuleContext)
	// Citations are cited automatically when the rule fires, after
	// Apply runs.
	Citations []string
	// Terminal ends the pipeline walk after this rule fires. Annotation
	// and staged-analysis rules leave it false.
	Terminal bool
	// Counterfactual, when non-nil, proposes a redesigned action under
	// which this rule (rather than a costlier one) would govern — the
	// paper's Section V recommendation, enumerated by Engine.Advise.
	// It returns the alternative, an explanation, and whether the
	// redesign applies to the given action at all.
	Counterfactual func(a Action) (Action, string, bool)
}

// DefaultRules returns a fresh copy of the doctrine table the paper's
// Table 1 follows, in precedence order. Callers may rearrange or extend
// the returned slice and install it with WithRules.
func DefaultRules() []Rule {
	isContent := func(d DataClass) bool {
		return d == DataContent || d == DataDeviceContents
	}
	isRealTimeNonContent := func(a *Action) bool {
		return a.Timing == TimingRealTime &&
			(a.Data == DataAddressing || a.Data == DataBasicSubscriber || a.Data == DataTransactionalRecords)
	}
	scaCovered := func(a *Action) bool {
		return a.Timing == TimingStored && a.Source == SourceProviderStored &&
			(a.ProviderRole == ProviderECS || a.ProviderRole == ProviderRCS)
	}

	// Shared Match vocabulary for the dispatch index. Each rule's Match
	// restates the enum constraints of its When (and nothing more —
	// residual predicates like consent or exposure stay in When); a rule
	// that does not discriminate on a dimension leaves it empty.
	realTime := []Timing{TimingRealTime}
	stored := []Timing{TimingStored}
	contentData := []DataClass{DataContent, DataDeviceContents}
	nonContentRT := []DataClass{DataAddressing, DataBasicSubscriber, DataTransactionalRecords}

	// reads declares a rule's non-dimension field sensitivity
	// (RuleMatch.Reads), which decides where the ruling cache may key
	// name-blind: reads() means the rule consults only the dispatch
	// dimensions; reads(f, ...) lists every other Action field its When
	// or Apply touches. Ruling state read through the context
	// (Required, Privacy) needs no declaration — it is itself a
	// function of earlier rules in the same bucket, so the per-bucket
	// union already covers it.
	reads := func(fs ...Field) []Field {
		if fs == nil {
			return []Field{}
		}
		return fs
	}

	return []Rule{
		// --- Stage 1: actor screen -----------------------------------
		{
			Name:  "private-search",
			Doc:   "purely private searches fall outside the Fourth Amendment",
			Match: RuleMatch{Actors: []Actor{ActorPrivate}, Reads: reads()},
			When:  func(rc *RuleContext) bool { return rc.Action.Actor == ActorPrivate },
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeNone,
					"the Fourth Amendment restricts the government and its agents, not private searches; law enforcement may receive the fruits of a private search")
				rc.Except(ExceptionPrivateSearch, "private search doctrine applies")
			},
			Citations: []string{"PrivSearch"},
			Terminal:  true,
		},
		{
			Name:  "provider-own-system",
			Doc:   "a provider may monitor its own system, § 2511(2)(a)(i)",
			Match: RuleMatch{Actors: []Actor{ActorProvider}, Sources: []Source{SourceOwnNetwork}, Reads: reads(FieldExposure)},
			When: func(rc *RuleContext) bool {
				return rc.Action.Actor == ActorProvider && rc.Action.Source == SourceOwnNetwork
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeNone,
					"a provider may monitor its own system in the normal course of business or to protect its rights and property")
				rc.Except(ExceptionProviderProtection, "provider-protection exception, § 2511(2)(a)(i)")
				rc.Cite("2511_2_a")
				if rc.Action.HasExposure(ExposurePolicyEliminatesREP) {
					rc.Note("network policy eliminates users' expectation of privacy on the monitored system")
				}
			},
			Terminal: true,
		},
		{
			Name:  "provider-off-system",
			Doc:   "a provider acting beyond its own system is a private party",
			Match: RuleMatch{Actors: []Actor{ActorProvider}, Reads: reads()},
			When:  func(rc *RuleContext) bool { return rc.Action.Actor == ActorProvider },
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeNone,
					"a provider acting outside its own system is a private party for Fourth Amendment purposes")
				rc.Except(ExceptionPrivateSearch, "private search doctrine applies")
			},
			Citations: []string{"PrivSearch"},
			Terminal:  true,
		},

		// --- Stage 2: doctrines excusing process outright -------------
		{
			Name:  "plain-view",
			Doc:   "plain view from a lawful vantage point excuses the warrant",
			Match: RuleMatch{Reads: reads(FieldPlainView, FieldLawfulVantage)},
			When: func(rc *RuleContext) bool {
				return rc.Action.PlainView && rc.Action.LawfulVantage
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeFourthAmendment,
					"evidence in plain view from a lawful vantage point, with immediately apparent incriminating character, may be seized without a warrant")
				rc.Except(ExceptionPlainView, "plain view doctrine applies")
			},
			Citations: []string{"PlainView"},
			Terminal:  true,
		},
		{
			Name:  "probation",
			Doc:   "probation/parole searches need only reasonable suspicion",
			Match: RuleMatch{Reads: reads(FieldProbationSearch)},
			When:  func(rc *RuleContext) bool { return rc.Action.ProbationSearch },
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeFourthAmendment,
					"individuals on probation, parole, or supervised release have diminished expectations of privacy and may be searched on reasonable suspicion")
				rc.Except(ExceptionProbation, "probation/parole exception applies")
			},
			Citations: []string{"Knights"},
			Terminal:  true,
		},

		// --- Stage 3a: real-time acquisition, public information ------
		{
			Name:  "realtime-public",
			Doc:   "publicly exposed information may be collected by anyone",
			Match: RuleMatch{Timings: realTime, Datas: []DataClass{DataPublic}, Reads: reads()},
			When: func(rc *RuleContext) bool {
				return rc.Action.Timing == TimingRealTime && rc.Action.Data == DataPublic
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeNone,
					"collection of information knowingly exposed to the public is neither a search nor an interception of a protected communication")
				rc.Except(ExceptionNoREP, "no reasonable expectation of privacy in public information")
				rc.Except(ExceptionPublicAccess,
					"an electronic communication system configured so communications are readily accessible to the general public may be intercepted by any person")
			},
			Citations: []string{"2511_2_g", "Gorshkov"},
			Terminal:  true,
		},

		// --- Stage 3b: real-time content (Title III) ------------------
		{
			Name:  "trespasser-consent",
			Doc:   "victim authorization to monitor a trespasser, § 2511(2)(i)",
			Match: RuleMatch{Timings: realTime, Datas: contentData, Reads: reads(FieldConsent)},
			When: func(rc *RuleContext) bool {
				a := rc.Action
				return a.Timing == TimingRealTime && isContent(a.Data) &&
					a.Consent.Effective() && a.Consent.Scope == ConsentVictimTrespasser
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeWiretap,
					"interception of a computer trespasser's communications with the victim's authorization does not violate Title III")
				rc.Except(ExceptionTrespasser, "computer-trespasser exception, § 2511(2)(i)")
				rc.Except(ExceptionConsent, "victim consented to monitoring on the victim's own system")
			},
			Citations: []string{"2511_2_i", "Title3"},
			Terminal:  true,
			Counterfactual: func(a Action) (Action, string, bool) {
				if a.Timing != TimingRealTime || a.Source != SourceVictimSystem || a.Consent.Effective() {
					return Action{}, "", false
				}
				alt := a
				alt.Name = a.Name + "+victim-authorization"
				alt.Consent = &Consent{Scope: ConsentVictimTrespasser}
				return alt, "obtain the victim's authorization to monitor the trespasser on the victim's own system, § 2511(2)(i)", true
			},
		},
		{
			Name:  "party-consent",
			Doc:   "one-party consent to interception, § 2511(2)(c)-(d)",
			Match: RuleMatch{Timings: realTime, Datas: contentData, Reads: reads(FieldConsent)},
			When: func(rc *RuleContext) bool {
				a := rc.Action
				return a.Timing == TimingRealTime && isContent(a.Data) &&
					a.Consent.Effective() && a.Consent.Scope == ConsentCommunicationParty
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeWiretap,
					"interception with the consent of a party to the communication does not violate Title III")
				rc.Except(ExceptionConsent, "party consent, § 2511(2)(c)-(d)")
			},
			Citations: []string{"2511_2_c", "Title3"},
			Terminal:  true,
			Counterfactual: func(a Action) (Action, string, bool) {
				if a.Timing != TimingRealTime || a.Consent != nil {
					return Action{}, "", false
				}
				alt := a
				alt.Name = a.Name + "+party-consent"
				alt.Consent = &Consent{Scope: ConsentCommunicationParty}
				return alt, "restructure the operation so a party to the communication (an undercover officer or cooperating witness) consents to the interception, § 2511(2)(c)-(d)", true
			},
		},
		{
			Name:  "public-service-content",
			Doc:   "content of a publicly accessible system, § 2511(2)(g)(i)",
			Match: RuleMatch{Timings: realTime, Datas: contentData, Sources: []Source{SourcePublicService}, Reads: reads()},
			When: func(rc *RuleContext) bool {
				a := rc.Action
				return a.Timing == TimingRealTime && isContent(a.Data) && a.Source == SourcePublicService
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeWiretap,
					"communications posted to a public system readily accessible to the general public may be intercepted")
				rc.Except(ExceptionPublicAccess, "§ 2511(2)(g)(i) public-access exception")
			},
			Citations: []string{"2511_2_g"},
			Terminal:  true,
		},
		{
			Name:  "title3-default",
			Doc:   "real-time content interception requires a Title III order",
			Match: RuleMatch{Timings: realTime, Datas: contentData, Reads: reads()},
			When: func(rc *RuleContext) bool {
				return rc.Action.Timing == TimingRealTime && isContent(rc.Action.Data)
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessWiretapOrder, RegimeWiretap,
					"real-time acquisition of the contents of wire or electronic communications requires a Title III order")
			},
			Citations: []string{"Title3"},
		},
		{
			Name:  "streetview-note",
			Doc:   "wireless payload collection is interception (starred judgment)",
			Match: RuleMatch{Timings: realTime, Sources: []Source{SourceWirelessBroadcast}, Reads: reads()},
			When: func(rc *RuleContext) bool {
				return rc.Required() == ProcessWiretapOrder &&
					rc.Action.Timing == TimingRealTime &&
					rc.Action.Source == SourceWirelessBroadcast
			},
			Apply: func(rc *RuleContext) {
				rc.Note("(*) collecting wireless payloads outside a home, even unencrypted ones, is treated as interception of content (cf. the Google Street View collection)")
			},
			Citations: []string{"StreetView"},
		},
		{
			Name:  "relay-note",
			Doc:   "relay operators intercept third-party communications",
			Match: RuleMatch{Timings: realTime, Reads: reads(FieldInterceptsThirdParty)},
			When: func(rc *RuleContext) bool {
				return rc.Required() == ProcessWiretapOrder &&
					rc.Action.Timing == TimingRealTime &&
					rc.Action.InterceptsThirdParty
			},
			Apply: func(rc *RuleContext) {
				rc.Note("operating a relay to acquire communications between third parties is an interception under color of law")
			},
		},
		{
			Name:  "encryption-note",
			Doc:   "encryption does not change the content/non-content line",
			Match: RuleMatch{Timings: realTime, Reads: reads(FieldEncrypted)},
			When: func(rc *RuleContext) bool {
				return rc.Required() == ProcessWiretapOrder &&
					rc.Action.Timing == TimingRealTime &&
					rc.Action.Encrypted
			},
			Apply: func(rc *RuleContext) {
				rc.Note("encryption does not change the content/non-content line; decrypting intercepted payloads still acquires content")
			},
		},

		// --- Stage 3c: real-time non-content (Pen/Trap) ---------------
		{
			Name:  "pentrap-public-service",
			Doc:   "addressing of a public system is collectible by anyone",
			Match: RuleMatch{Timings: realTime, Datas: nonContentRT, Sources: []Source{SourcePublicService}, Reads: reads()},
			When: func(rc *RuleContext) bool {
				return isRealTimeNonContent(rc.Action) && rc.Action.Source == SourcePublicService
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimePenTrap,
					"addressing information of a system readily accessible to the general public may be collected by any person")
				rc.Except(ExceptionPublicAccess, "§ 2511(2)(g)(i) public-access rationale")
			},
			Citations: []string{"2511_2_g", "Smith"},
			Terminal:  true,
		},
		{
			Name:  "pentrap-wireless",
			Doc:   "broadcast addressing headers carry no REP (starred judgment)",
			Match: RuleMatch{Timings: realTime, Datas: nonContentRT, Sources: []Source{SourceWirelessBroadcast}, Reads: reads()},
			When: func(rc *RuleContext) bool {
				return isRealTimeNonContent(rc.Action) && rc.Action.Source == SourceWirelessBroadcast
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimePenTrap,
					"(*) radio-broadcast addressing headers receivable from outside the premises are readily accessible to the general public and carry no expectation of privacy")
				rc.Except(ExceptionNoREP, "no reasonable expectation of privacy in broadcast addressing headers")
				rc.Except(ExceptionPublicAccess, "§ 2511(2)(g)(i) public-access rationale extends to addressing headers")
			},
			Citations: []string{"2511_2_g", "Smith"},
			Terminal:  true,
		},
		{
			Name:  "pentrap-party-consent",
			Doc:   "a communication party may consent to addressing collection",
			Match: RuleMatch{Timings: realTime, Datas: nonContentRT, Reads: reads(FieldConsent)},
			When: func(rc *RuleContext) bool {
				a := rc.Action
				return isRealTimeNonContent(a) && a.Consent.Effective() &&
					(a.Consent.Scope == ConsentCommunicationParty || a.Consent.Scope == ConsentVictimTrespasser)
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimePenTrap,
					"a party to the communication consented to collection of its addressing information")
				rc.Except(ExceptionConsent, "party consent")
			},
			Citations: []string{"2511_2_c"},
			Terminal:  true,
		},
		{
			Name:  "emergency-pentrap",
			Doc:   "§ 3125 emergency pen/trap installation",
			Match: RuleMatch{Timings: realTime, Datas: nonContentRT, Reads: reads(FieldExigency)},
			When: func(rc *RuleContext) bool {
				x := rc.Action.Exigency
				return isRealTimeNonContent(rc.Action) &&
					x != nil && x.Kind == ExigencyEmergencyPenTrap && x.Effective()
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimePenTrap,
					"the emergency pen/trap provision authorizes installation without a court order upon high-level approval")
				rc.Except(ExceptionEmergencyPenTrap, "emergency pen/trap, § 3125")
			},
			Citations: []string{"3125"},
			Terminal:  true,
		},
		{
			Name:  "pentrap-default",
			Doc:   "non-content collection requires a pen/trap order",
			Match: RuleMatch{Timings: realTime, Datas: nonContentRT, Reads: reads()},
			When:  func(rc *RuleContext) bool { return isRealTimeNonContent(rc.Action) },
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessCourtOrder, RegimePenTrap,
					"installing a pen register or trap-and-trace device to collect addressing and other non-content information requires a pen/trap order")
			},
			Citations: []string{"PenTrap", "3121c"},
			Terminal:  true,
			Counterfactual: func(a Action) (Action, string, bool) {
				if a.Data != DataContent || a.Timing != TimingRealTime {
					return Action{}, "", false
				}
				alt := a
				alt.Name = a.Name + "+non-content"
				alt.Data = DataAddressing
				return alt, "collect addressing information (headers, sizes, rates) instead of contents: the Pen/Trap statute, not Title III, governs non-content collection (cf. the Section IV-B rate-only watermark)", true
			},
		},

		// --- Stage 4a: stored data held by a covered provider (SCA) ---
		{
			Name:  "sca-consent",
			Doc:   "SCA voluntary-disclosure consent exceptions, § 2702",
			Match: RuleMatch{Timings: stored, Sources: []Source{SourceProviderStored}, Reads: reads(FieldProviderRole, FieldConsent)},
			When: func(rc *RuleContext) bool {
				a := rc.Action
				return scaCovered(a) && a.Consent.Effective() &&
					(a.Consent.Scope == ConsentOwnData || a.Consent.Scope == ConsentProviderToS)
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeSCA,
					"disclosure with the consent of the user, or under the provider's terms-of-service authority, falls within the SCA's voluntary-disclosure exceptions")
				rc.Except(ExceptionConsent, "SCA consent exception, § 2702")
			},
			Citations: []string{"2702", "SCA"},
			Terminal:  true,
		},
		{
			Name:  "sca-exigency",
			Doc:   "SCA emergency disclosure",
			Match: RuleMatch{Timings: stored, Sources: []Source{SourceProviderStored}, Reads: reads(FieldProviderRole, FieldExigency)},
			When: func(rc *RuleContext) bool {
				a := rc.Action
				return scaCovered(a) && a.Exigency.Effective() && a.Exigency.Kind != ExigencyEmergencyPenTrap
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeSCA,
					"the SCA's emergency exception permits disclosure when exigent circumstances are present")
				rc.Except(ExceptionExigency, "SCA emergency disclosure")
			},
			Citations: []string{"2702", "Mincey"},
			Terminal:  true,
		},
		{
			Name:  "sca-content-warrant",
			Doc:   "stored contents require a § 2703 search warrant",
			Match: RuleMatch{Timings: stored, Datas: contentData, Sources: []Source{SourceProviderStored}, Reads: reads(FieldProviderRole)},
			When: func(rc *RuleContext) bool {
				return scaCovered(rc.Action) && isContent(rc.Action.Data)
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessSearchWarrant, RegimeSCA,
					"compelling the contents of communications stored with an ECS or RCS provider requires a search warrant (a warrant can disclose everything)")
			},
			Citations: []string{"2703", "SCA"},
			Terminal:  true,
		},
		{
			Name:  "sca-records-order",
			Doc:   "transactional records require a § 2703(d) order",
			Match: RuleMatch{Timings: stored, Datas: []DataClass{DataTransactionalRecords}, Sources: []Source{SourceProviderStored}, Reads: reads(FieldProviderRole)},
			When: func(rc *RuleContext) bool {
				return scaCovered(rc.Action) && rc.Action.Data == DataTransactionalRecords
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessCourtOrder, RegimeSCA,
					"compelling non-content transactional records requires a § 2703(d) order supported by specific and articulable facts")
			},
			Citations: []string{"2703", "SCA"},
			Terminal:  true,
			Counterfactual: func(a Action) (Action, string, bool) {
				if a.Timing != TimingStored || a.Source != SourceProviderStored ||
					(a.Data != DataContent && a.Data != DataDeviceContents) {
					return Action{}, "", false
				}
				alt := a
				alt.Name = a.Name + "+records-tier"
				alt.Data = DataTransactionalRecords
				return alt, "compel non-content transactional records first — a § 2703(d) order on specific and articulable facts, instead of a warrant for contents", true
			},
		},
		{
			Name:  "sca-subscriber-subpoena",
			Doc:   "basic subscriber information requires only a subpoena",
			Match: RuleMatch{Timings: stored, Datas: []DataClass{DataBasicSubscriber}, Sources: []Source{SourceProviderStored}, Reads: reads(FieldProviderRole)},
			When: func(rc *RuleContext) bool {
				return scaCovered(rc.Action) && rc.Action.Data == DataBasicSubscriber
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessSubpoena, RegimeSCA,
					"compelling basic subscriber information requires only a subpoena")
			},
			Citations: []string{"2703", "SCA"},
			Terminal:  true,
			Counterfactual: func(a Action) (Action, string, bool) {
				if a.Timing != TimingStored || a.Source != SourceProviderStored ||
					(a.Data != DataContent && a.Data != DataDeviceContents) {
					return Action{}, "", false
				}
				alt := a
				alt.Name = a.Name + "+subscriber-tier"
				alt.Data = DataBasicSubscriber
				return alt, "compel basic subscriber information first — a subpoena on mere suspicion suffices, and the identification may itself establish probable cause (§ III-A-1-a)", true
			},
		},
		{
			Name:  "sca-public",
			Doc:   "public information held by a provider needs no process",
			Match: RuleMatch{Timings: stored, Sources: []Source{SourceProviderStored}, Reads: reads(FieldProviderRole)},
			When:  func(rc *RuleContext) bool { return scaCovered(rc.Action) },
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeSCA,
					"public information held by a provider may be collected without process")
				rc.Except(ExceptionNoREP, "no reasonable expectation of privacy in public information")
			},
			Citations: []string{"SCA", "Gorshkov"},
			Terminal:  true,
		},

		// --- Stage 4b: seized devices and the container doctrines -----
		{
			Name:  "container-new-search",
			Doc:   "per-file containers: exceeding the original authority is a new search (Crist)",
			Match: RuleMatch{Timings: stored, Sources: []Source{SourceSeizedDevice}, Reads: reads(FieldSearchBeyondAuthority)},
			When: func(rc *RuleContext) bool {
				a := rc.Action
				return a.Timing == TimingStored && a.Source == SourceSeizedDevice &&
					a.SearchBeyondAuthority && rc.Container() != ContainerSingle
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessSearchWarrant, RegimeFourthAmendment,
					"examining a lawfully obtained item for matter outside the original authority — e.g. hash-searching an entire drive for unrelated files — is a new search requiring a warrant")
			},
			Citations: []string{"Crist", "4A"},
			Terminal:  true,
		},
		{
			Name:  "single-container-note",
			Doc:   "single container: the exhaustive examination stays within the authority (Runyan/Beusch)",
			Match: RuleMatch{Timings: stored, Sources: []Source{SourceSeizedDevice}, Reads: reads(FieldSearchBeyondAuthority)},
			When: func(rc *RuleContext) bool {
				a := rc.Action
				return a.Timing == TimingStored && a.Source == SourceSeizedDevice &&
					a.SearchBeyondAuthority && rc.Container() == ContainerSingle
			},
			Apply: func(rc *RuleContext) {
				rc.Note("under the single-container doctrine the lawfully obtained device is one container; the exhaustive examination stays within the original authority")
			},
		},
		{
			Name:  "lawful-custody",
			Doc:   "examination within the original authority needs no further process (Sloane)",
			Match: RuleMatch{Timings: stored, Sources: []Source{SourceSeizedDevice}, Reads: reads()},
			When: func(rc *RuleContext) bool {
				return rc.Action.Timing == TimingStored && rc.Action.Source == SourceSeizedDevice
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeFourthAmendment,
					"examination of lawfully obtained material within the scope of the original authority requires no further process; the Fourth Amendment does not limit the examiner's techniques for responsive data")
				rc.Except(ExceptionLawfulCustody, "lawful custody; examination within original authority")
			},
			Citations: []string{"Sloane"},
			Terminal:  true,
		},

		// --- Stage 4c: government workplace searches (O'Connor) -------
		{
			Name:  "workplace-lawful",
			Doc:   "O'Connor-compliant administrative workplace search",
			Match: RuleMatch{Timings: stored, Reads: reads(FieldWorkplace)},
			When: func(rc *RuleContext) bool {
				w := rc.Action.Workplace
				return rc.Action.Timing == TimingStored && w != nil && w.GovernmentEmployer && w.Lawful()
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeFourthAmendment,
					"a government employer may conduct a warrantless workplace search that is work-related, justified at its inception, and permissible in scope")
				rc.Except(ExceptionWorkplace, "O'Connor workplace-search framework satisfied")
			},
			Citations: []string{"OConnor"},
			Terminal:  true,
		},
		{
			Name:  "workplace-unlawful",
			Doc:   "a failed O'Connor search falls back to the warrant requirement",
			Match: RuleMatch{Timings: stored, Reads: reads(FieldWorkplace)},
			When: func(rc *RuleContext) bool {
				w := rc.Action.Workplace
				return rc.Action.Timing == TimingStored && w != nil && w.GovernmentEmployer
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessSearchWarrant, RegimeFourthAmendment,
					"the workplace search fails the O'Connor conditions; the employee's reasonable expectation of privacy controls")
			},
			Citations: []string{"OConnor", "4A"},
			Terminal:  true,
		},

		// --- Stage 4d: Fourth Amendment REP analysis ------------------
		{
			Name:  "rep-analysis",
			Doc:   "Katz two-prong reasonable-expectation-of-privacy analysis",
			Match: RuleMatch{Timings: stored, Reads: reads(FieldExposure, FieldTech)},
			When:  func(rc *RuleContext) bool { return rc.Action.Timing == TimingStored },
			Apply: func(rc *RuleContext) {
				p := analyzePrivacy(rc.Action)
				rc.ruling.Privacy = &p
				rc.ruling.Regime = RegimeFourthAmendment
				for _, c := range p.Citations {
					rc.Cite(c.ID)
				}
			},
		},
		{
			Name:  "no-rep",
			Doc:   "no reasonable expectation of privacy: not a search",
			Match: RuleMatch{Timings: stored, Reads: reads()},
			When: func(rc *RuleContext) bool {
				p := rc.ruling.Privacy
				return rc.Action.Timing == TimingStored && p != nil && !p.Reasonable
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeFourthAmendment,
					"the government action is not a search: the target has no reasonable expectation of privacy")
				rc.Except(ExceptionNoREP, "no reasonable expectation of privacy")
				rc.Note(rc.ruling.Privacy.Reasons...)
			},
			Terminal: true,
			Counterfactual: func(a Action) (Action, string, bool) {
				if a.Timing != TimingStored ||
					(a.Source != SourceTargetDevice && a.Source != SourceRemoteAccount) {
					return Action{}, "", false
				}
				alt := a
				alt.Name = a.Name + "+public-exposure"
				alt.Data = DataPublic
				alt.Source = SourcePublicService
				alt.Exposure = append(append([]ExposureFact(nil), a.Exposure...), ExposureKnowinglyPublic)
				return alt, "collect what the target knowingly exposes (P2P shares, public posts, public site content) — no reasonable expectation of privacy attaches (Table 1 scenes 9-11)", true
			},
		},
		{
			Name:  "fourth-consent",
			Doc:   "voluntary consent by a person with authority (Matlock)",
			Match: RuleMatch{Timings: stored, Reads: reads(FieldConsent)},
			When: func(rc *RuleContext) bool {
				p := rc.ruling.Privacy
				return rc.Action.Timing == TimingStored && p != nil && p.Reasonable &&
					rc.Action.Consent.Effective()
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeFourthAmendment,
					"voluntary consent by a person with authority permits a warrantless search within the consent's scope")
				rc.Except(ExceptionConsent, fmt.Sprintf("consent: %s", rc.Action.Consent.Scope))
			},
			Citations: []string{"Matlock"},
			Terminal:  true,
			Counterfactual: func(a Action) (Action, string, bool) {
				if a.Timing != TimingStored || a.Source != SourceTargetDevice ||
					a.Consent != nil || a.Tech != nil {
					return Action{}, "", false
				}
				alt := a
				alt.Name = a.Name + "+consent"
				alt.Consent = &Consent{Scope: ConsentCoUserSharedSpace}
				return alt, "seek voluntary consent from a person with authority over the space searched (co-user, spouse, parent of a minor, private employer), § III-B-c", true
			},
		},
		{
			Name:  "fourth-exigency",
			Doc:   "exigent circumstances excuse the warrant (Mincey)",
			Match: RuleMatch{Timings: stored, Reads: reads(FieldExigency)},
			When: func(rc *RuleContext) bool {
				p := rc.ruling.Privacy
				x := rc.Action.Exigency
				return rc.Action.Timing == TimingStored && p != nil && p.Reasonable &&
					x.Effective() && x.Kind != ExigencyEmergencyPenTrap
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessNone, RegimeFourthAmendment,
					"exigent circumstances permit a warrantless search immediately necessary to protect safety or preserve evidence")
				rc.Except(ExceptionExigency, fmt.Sprintf("exigency: %s", rc.Action.Exigency.Kind))
			},
			Citations: []string{"Mincey"},
			Terminal:  true,
		},
		{
			Name:  "warrant-default",
			Doc:   "a search of matter carrying REP requires a warrant",
			Match: RuleMatch{Timings: stored, Reads: reads()},
			When: func(rc *RuleContext) bool {
				p := rc.ruling.Privacy
				return rc.Action.Timing == TimingStored && p != nil && p.Reasonable
			},
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessSearchWarrant, RegimeFourthAmendment,
					"a search of matter carrying a reasonable expectation of privacy requires a warrant supported by probable cause")
				rc.Cite("4A", "Katz")
				rc.Note(rc.ruling.Privacy.Reasons...)
			},
		},
		{
			Name:  "consent-defect-note",
			Doc:   "defective consent (revoked, or exceeding its scope) is recorded",
			Match: RuleMatch{Timings: stored, Reads: reads(FieldConsent)},
			When: func(rc *RuleContext) bool {
				c := rc.Action.Consent
				return rc.Action.Timing == TimingStored && rc.ruling.Privacy != nil &&
					rc.Required() == ProcessSearchWarrant && c != nil && !c.Effective()
			},
			Apply: func(rc *RuleContext) {
				switch {
				case rc.Action.Consent.Revoked:
					rc.Note("the proffered consent was revoked; the search must cease")
				case rc.Action.Consent.ExceedsScope:
					rc.Note("the acquisition exceeds the scope of the proffered consent (e.g. reaching into the attacker's own computer on a victim's authorization)")
				}
			},
		},
	}
}

// InsertRuleBefore returns a copy of rules with r inserted immediately
// before the rule named name. It errors when no rule has that name. Use it
// with DefaultRules and WithRules to extend a custom engine's doctrine:
//
//	table, _ := legal.InsertRuleBefore(legal.DefaultRules(), "plain-view", myRule)
//	e := legal.NewEngine(legal.WithRules(table))
func InsertRuleBefore(rules []Rule, name string, r Rule) ([]Rule, error) {
	for i := range rules {
		if rules[i].Name == name {
			out := make([]Rule, 0, len(rules)+1)
			out = append(out, rules[:i]...)
			out = append(out, r)
			out = append(out, rules[i:]...)
			return out, nil
		}
	}
	return nil, fmt.Errorf("legal: no rule named %q", name)
}
