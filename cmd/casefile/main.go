// Command casefile runs end-to-end investigations and prints their case
// reports: the Section IV-A P2P traceback (all evidence admissible, no
// process needed for the attack), the Section IV-B watermark traceback
// (court order, then warrant), the Kyllo demonstration (warrantless
// specialized-technology scan suppressed, derivative evidence falling as
// fruit of the poisonous tree, with the suppression opinion rendered), the
// Crist drive examination in both postures, the § III-A-2 attribution
// exam, and the exigent-seizure flow. Experiments E4 and E6.
//
// Every flow's case clock starts at 2012-05-01 09:00 UTC and steps one
// minute per reading, so the text and -json outputs, and an exported
// ledger, are byte-identical from run to run.
//
// Usage:
//
//	casefile [-flow p2p|watermark|kyllo|drive|attribution|exigent|all] [-json] [-export-ledger file]
//	casefile verify-ledger <file>
//
// verify-ledger audits a serialized audit ledger (as written by
// -export-ledger): every chain link, record hash, checkpoint-index
// leaf, and the stored trailer commitment. It exits nonzero naming the
// first tampered record if anything was mutated, deleted, reordered,
// or truncated.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"lawgate/internal/evidence"
	"lawgate/internal/investigation"
	"lawgate/internal/ledger"
	"lawgate/internal/opinion"
	"lawgate/internal/report"
	"lawgate/internal/watermark"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "verify-ledger" {
		os.Exit(verifyLedgerCmd(os.Args[2:]))
	}
	flow := flag.String("flow", "all", "which flow to run: p2p, watermark, kyllo, drive, attribution, exigent, or all")
	asJSON := flag.Bool("json", false, "emit machine-readable case exports instead of text")
	exportLedger := flag.String("export-ledger", "", "write the last flow's audit ledger to this file (verify it with `casefile verify-ledger`)")
	flag.Parse()
	if err := run(*flow, *asJSON, *exportLedger); err != nil {
		fmt.Fprintln(os.Stderr, "casefile:", err)
		os.Exit(1)
	}
}

// caseEpoch is where every flow's case clock starts: the same instant
// the investigation tests fix, so fact stamps, order expiry dates and
// the chain hashes sealed over them are identical on every run.
var caseEpoch = time.Date(2012, time.May, 1, 9, 0, 0, 0, time.UTC)

// caseClock returns a fresh case clock for one flow: it starts at
// caseEpoch and steps one minute per reading.
func caseClock() investigation.CaseOption {
	t := caseEpoch
	return investigation.WithCaseClock(func() time.Time {
		t = t.Add(time.Minute)
		return t
	})
}

// verifyLedgerCmd implements the verify-ledger subcommand.
func verifyLedgerCmd(args []string) int {
	fs := flag.NewFlagSet("verify-ledger", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: casefile verify-ledger <file>")
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	led, err := ledger.LoadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "casefile verify-ledger:", err)
		return 1
	}
	if err := led.Verify(); err != nil {
		fmt.Fprintln(os.Stderr, "casefile verify-ledger: TAMPERED:", err)
		return 1
	}
	cp := led.Checkpoint()
	fmt.Printf("ledger OK: %d records, root %s\n", cp.Size, hex.EncodeToString(cp.Root[:]))
	return 0
}

// A step runs one investigation, writes its text report to w, and
// returns its case for the -json export and -export-ledger.
type step func(w io.Writer) (*investigation.Case, error)

// flows lists every flow in run order with its steps; the text and -json
// renderings both run this one list.
var flows = []struct {
	name  string
	steps []step
}{
	{"p2p", []step{p2pStep}},
	{"watermark", []step{watermarkStep}},
	{"kyllo", []step{kylloStep}},
	{"drive", []step{driveStep(true), driveStep(false)}},
	{"attribution", []step{attributionStep(true), attributionStep(false)}},
	{"exigent", []step{
		exigentStep(investigation.DeviceThreat{RemoteWipeObserved: true}),
		exigentStep(investigation.DeviceThreat{}),
	}},
}

func run(flow string, asJSON bool, exportLedger string) error {
	var selected []step
	for _, f := range flows {
		if flow == "all" || flow == f.name {
			selected = append(selected, f.steps...)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown flow %q", flow)
	}
	// JSON mode discards the text reports and collects the cases.
	w := io.Writer(os.Stdout)
	if asJSON {
		w = io.Discard
	}
	// last is the most recently completed flow's case; -export-ledger
	// serializes its audit ledger.
	var last *investigation.Case
	var cases []report.CaseView
	for _, s := range selected {
		c, err := s(w)
		if err != nil {
			return err
		}
		last = c
		if asJSON {
			cases = append(cases, report.CaseReport(c))
		}
	}
	if exportLedger != "" {
		if err := last.Ledger().WriteFile(exportLedger); err != nil {
			return err
		}
	}
	if asJSON {
		return report.WriteJSON(os.Stdout, cases)
	}
	return nil
}

// admissibleCount counts the hearing's admissible items.
func admissibleCount(hearing []evidence.Assessment) int {
	n := 0
	for _, a := range hearing {
		if a.Admissible() {
			n++
		}
	}
	return n
}

func p2pStep(w io.Writer) (*investigation.Case, error) {
	res, err := investigation.RunP2PTraceback(investigation.P2PTracebackConfig{
		Seed: 1, Neighbors: 8, Sources: 3, Probes: 8,
	}, caseClock())
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "================ SECTION IV-A: P2P TIMING TRACEBACK ================")
	fmt.Fprint(w, res.Case.Report())
	fmt.Fprintf(w, "Identified subscribers: %d\n", len(res.Identified))
	for _, s := range res.Identified {
		fmt.Fprintf(w, "  - %s, %s\n", s.Name, s.Street)
	}
	fmt.Fprintf(w, "Suppression hearing: %d/%d items admissible\n\n", admissibleCount(res.Hearing), len(res.Hearing))
	return res.Case, nil
}

func watermarkStep(w io.Writer) (*investigation.Case, error) {
	res, err := investigation.RunWatermarkTraceback(watermark.DefaultExperimentConfig(), caseClock())
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "================ SECTION IV-B: DSSS WATERMARK TRACEBACK ================")
	fmt.Fprint(w, res.Case.Report())
	fmt.Fprintf(w, "Watermark: detected=%v Z=%.1f BER=%.2f; baseline corr=%.2f\n",
		res.Experiment.Detected, res.Experiment.Watermark.Z,
		res.Experiment.Watermark.BER, res.Experiment.BaselineCorr)
	fmt.Fprintf(w, "Rate collection required process: %s (non-content — no wiretap order)\n\n",
		res.Experiment.RequiredProcess)
	return res.Case, nil
}

func kylloStep(w io.Writer) (*investigation.Case, error) {
	res, err := investigation.RunKylloDemo(caseClock())
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "================ KYLLO DEMO: ILLEGAL TECHNIQUE, SUPPRESSED FRUITS ================")
	fmt.Fprint(w, res.Case.Report())
	for _, a := range res.Hearing {
		fmt.Fprintf(w, "  %s: %s\n", a.ItemID, a.Status)
	}
	fmt.Fprintln(w, "\n--- suppression opinion ---")
	fmt.Fprintln(w, opinion.Write(res.Case, "United States v. Kyllo-Redux, No. 12-cr-0533"))
	return res.Case, nil
}

func driveStep(withWarrant bool) step {
	return func(w io.Writer) (*investigation.Case, error) {
		res, err := investigation.RunDriveExam(withWarrant, caseClock())
		if err != nil {
			return nil, err
		}
		label := "WITH second warrant (Crist satisfied)"
		if !withWarrant {
			label = "WITHOUT second warrant (Crist violated)"
		}
		fmt.Fprintf(w, "================ DRIVE EXAM %s ================\n", label)
		fmt.Fprint(w, res.Case.Report())
		fmt.Fprintf(w, "hash hits: %d (image sha256 %s…)\n", len(res.Hits), res.ImageHash[:12])
		fmt.Fprintf(w, "Suppression hearing: %d/%d items admissible\n\n", admissibleCount(res.Hearing), len(res.Hearing))
		return res.Case, nil
	}
}

func attributionStep(exclusive bool) step {
	return func(w io.Writer) (*investigation.Case, error) {
		res, err := investigation.RunAttributionExam(exclusive, caseClock())
		if err != nil {
			return nil, err
		}
		label := "EXCLUSIVE attribution"
		if !exclusive {
			label = "SHARED machine (non-exclusive)"
		}
		fmt.Fprintf(w, "================ ATTRIBUTION EXAM: %s ================\n", label)
		fmt.Fprint(w, res.Case.Report())
		fmt.Fprintf(w, "warrant issued: %v; malware clean: %v; knowledge findings: %d\n\n",
			res.WarrantIssued, res.Report.MalwareClean, len(res.Report.Knowledge))
		return res.Case, nil
	}
}

func exigentStep(threat investigation.DeviceThreat) step {
	return func(w io.Writer) (*investigation.Case, error) {
		res, err := investigation.RunExigentSeizure(threat, caseClock())
		if err != nil {
			return nil, err
		}
		label := "EXIGENT (destroy command observed)"
		if !threat.Exigent() {
			label = "NO EXIGENCY (warrantless seizure)"
		}
		fmt.Fprintf(w, "================ EXIGENT SEIZURE: %s ================\n", label)
		fmt.Fprint(w, res.Case.Report())
		fmt.Fprintf(w, "seizure lawful: %v; hearing: %d/%d admissible\n\n",
			res.SeizureLawful, admissibleCount(res.Hearing), len(res.Hearing))
		return res.Case, nil
	}
}
