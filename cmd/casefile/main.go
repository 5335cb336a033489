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
	"os"
	"time"

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

func run(flow string, asJSON bool, exportLedger string) error {
	// last tracks the most recently completed flow's case; -export-ledger
	// serializes its audit ledger.
	var last *investigation.Case
	export := func() error {
		if exportLedger == "" {
			return nil
		}
		if last == nil {
			return fmt.Errorf("-export-ledger: no flow ran")
		}
		return last.Ledger().WriteFile(exportLedger)
	}
	runP2P := flow == "all" || flow == "p2p"
	runWM := flow == "all" || flow == "watermark"
	runKyllo := flow == "all" || flow == "kyllo"
	runDrive := flow == "all" || flow == "drive"
	runAttr := flow == "all" || flow == "attribution"
	runExig := flow == "all" || flow == "exigent"
	if !runP2P && !runWM && !runKyllo && !runDrive && !runAttr && !runExig {
		return fmt.Errorf("unknown flow %q", flow)
	}

	if asJSON {
		var cases []report.CaseView
		if runP2P {
			res, err := investigation.RunP2PTraceback(investigation.P2PTracebackConfig{
				Seed: 1, Neighbors: 8, Sources: 3, Probes: 8,
			}, caseClock())
			if err != nil {
				return err
			}
			cases = append(cases, report.CaseReport(res.Case))
			last = res.Case
		}
		if runWM {
			res, err := investigation.RunWatermarkTraceback(watermark.DefaultExperimentConfig(), caseClock())
			if err != nil {
				return err
			}
			cases = append(cases, report.CaseReport(res.Case))
			last = res.Case
		}
		if runKyllo {
			res, err := investigation.RunKylloDemo(caseClock())
			if err != nil {
				return err
			}
			cases = append(cases, report.CaseReport(res.Case))
			last = res.Case
		}
		if runDrive {
			for _, withWarrant := range []bool{true, false} {
				res, err := investigation.RunDriveExam(withWarrant, caseClock())
				if err != nil {
					return err
				}
				cases = append(cases, report.CaseReport(res.Case))
				last = res.Case
			}
		}
		if runAttr {
			for _, exclusive := range []bool{true, false} {
				res, err := investigation.RunAttributionExam(exclusive, caseClock())
				if err != nil {
					return err
				}
				cases = append(cases, report.CaseReport(res.Case))
				last = res.Case
			}
		}
		if runExig {
			for _, threat := range []investigation.DeviceThreat{{RemoteWipeObserved: true}, {}} {
				res, err := investigation.RunExigentSeizure(threat, caseClock())
				if err != nil {
					return err
				}
				cases = append(cases, report.CaseReport(res.Case))
				last = res.Case
			}
		}
		if err := export(); err != nil {
			return err
		}
		return report.WriteJSON(os.Stdout, cases)
	}

	if runP2P {
		res, err := investigation.RunP2PTraceback(investigation.P2PTracebackConfig{
			Seed: 1, Neighbors: 8, Sources: 3, Probes: 8,
		}, caseClock())
		if err != nil {
			return err
		}
		last = res.Case
		fmt.Println("================ SECTION IV-A: P2P TIMING TRACEBACK ================")
		fmt.Print(res.Case.Report())
		fmt.Printf("Identified subscribers: %d\n", len(res.Identified))
		for _, s := range res.Identified {
			fmt.Printf("  - %s, %s\n", s.Name, s.Street)
		}
		admissible := 0
		for _, a := range res.Hearing {
			if a.Admissible() {
				admissible++
			}
		}
		fmt.Printf("Suppression hearing: %d/%d items admissible\n\n", admissible, len(res.Hearing))
	}

	if runWM {
		res, err := investigation.RunWatermarkTraceback(watermark.DefaultExperimentConfig(), caseClock())
		if err != nil {
			return err
		}
		last = res.Case
		fmt.Println("================ SECTION IV-B: DSSS WATERMARK TRACEBACK ================")
		fmt.Print(res.Case.Report())
		fmt.Printf("Watermark: detected=%v Z=%.1f BER=%.2f; baseline corr=%.2f\n",
			res.Experiment.Detected, res.Experiment.Watermark.Z,
			res.Experiment.Watermark.BER, res.Experiment.BaselineCorr)
		fmt.Printf("Rate collection required process: %s (non-content — no wiretap order)\n\n",
			res.Experiment.RequiredProcess)
	}

	if runKyllo {
		res, err := investigation.RunKylloDemo(caseClock())
		if err != nil {
			return err
		}
		last = res.Case
		fmt.Println("================ KYLLO DEMO: ILLEGAL TECHNIQUE, SUPPRESSED FRUITS ================")
		fmt.Print(res.Case.Report())
		for _, a := range res.Hearing {
			fmt.Printf("  %s: %s\n", a.ItemID, a.Status)
		}
		fmt.Println("\n--- suppression opinion ---")
		fmt.Println(opinion.Write(res.Case, "United States v. Kyllo-Redux, No. 12-cr-0533"))
	}

	if runDrive {
		for _, withWarrant := range []bool{true, false} {
			res, err := investigation.RunDriveExam(withWarrant, caseClock())
			if err != nil {
				return err
			}
			last = res.Case
			label := "WITH second warrant (Crist satisfied)"
			if !withWarrant {
				label = "WITHOUT second warrant (Crist violated)"
			}
			fmt.Printf("================ DRIVE EXAM %s ================\n", label)
			fmt.Print(res.Case.Report())
			fmt.Printf("hash hits: %d (image sha256 %s…)\n", len(res.Hits), res.ImageHash[:12])
			admissible := 0
			for _, a := range res.Hearing {
				if a.Admissible() {
					admissible++
				}
			}
			fmt.Printf("Suppression hearing: %d/%d items admissible\n\n", admissible, len(res.Hearing))
		}
	}

	if runAttr {
		for _, exclusive := range []bool{true, false} {
			res, err := investigation.RunAttributionExam(exclusive, caseClock())
			if err != nil {
				return err
			}
			last = res.Case
			label := "EXCLUSIVE attribution"
			if !exclusive {
				label = "SHARED machine (non-exclusive)"
			}
			fmt.Printf("================ ATTRIBUTION EXAM: %s ================\n", label)
			fmt.Print(res.Case.Report())
			fmt.Printf("warrant issued: %v; malware clean: %v; knowledge findings: %d\n\n",
				res.WarrantIssued, res.Report.MalwareClean, len(res.Report.Knowledge))
		}
	}

	if runExig {
		for _, threat := range []investigation.DeviceThreat{
			{RemoteWipeObserved: true},
			{},
		} {
			res, err := investigation.RunExigentSeizure(threat, caseClock())
			if err != nil {
				return err
			}
			last = res.Case
			label := "EXIGENT (destroy command observed)"
			if !threat.Exigent() {
				label = "NO EXIGENCY (warrantless seizure)"
			}
			fmt.Printf("================ EXIGENT SEIZURE: %s ================\n", label)
			fmt.Print(res.Case.Report())
			admissible := 0
			for _, a := range res.Hearing {
				if a.Admissible() {
					admissible++
				}
			}
			fmt.Printf("seizure lawful: %v; hearing: %d/%d admissible\n\n",
				res.SeizureLawful, admissible, len(res.Hearing))
		}
	}
	return export()
}
