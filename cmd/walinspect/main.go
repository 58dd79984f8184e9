// Command walinspect dumps and verifies a mobile node's write-ahead log:
// it lists the records, replays the committed prefix (cross-checking the
// logged read values and write images against re-execution), and reports
// the reconstructed tentative state.
//
//	walinspect m1.wal
//	walinspect -records m1.wal   # dump raw records too
//	walinspect -salvage m1.wal   # forensics on a damaged journal
//
// By default the journal is read strictly: only a torn final line (crash
// damage) is tolerated. -salvage decodes the longest valid prefix of a
// journal strict mode rejects and reports where it tears and what was
// discarded — for diagnosis only; recovery never trusts a salvaged prefix.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tiermerge"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "walinspect:", err)
		os.Exit(1)
	}
}

func run() error {
	records := flag.Bool("records", false, "dump every record")
	code := flag.Bool("code", false, "pretty-print each transaction's code in the profile language")
	salvage := flag.Bool("salvage", false, "decode the longest valid prefix of a damaged journal and report the tear")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: walinspect [-records] [-code] [-salvage] <journal-file>")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	return inspect(os.Stdout, f, *records, *code, *salvage)
}

// inspect dumps and verifies a journal stream onto w.
func inspect(w io.Writer, r io.Reader, records, code, salvage bool) error {
	var recs []tiermerge.WALRecord
	if salvage {
		res, err := tiermerge.SalvageWAL(r)
		if err != nil {
			return err
		}
		recs = res.Records
		if res.Torn {
			fmt.Fprintf(w, "TORN at line %d (offset %d): %s\n", res.TornLine, res.TornOffset, res.TornReason)
		}
		if res.DiscardedLines > 0 {
			fmt.Fprintf(w, "DISCARDED %d line(s) after the tear — acknowledged work may be lost\n", res.DiscardedLines)
		}
	} else {
		var err error
		recs, err = tiermerge.ReadWAL(r)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%d records\n", len(recs))
	if records {
		for _, rec := range recs {
			switch rec.Kind {
			case "checkout":
				origin := fmt.Sprintf("origin(%d items)", len(rec.Origin))
				if rec.OriginRef != "" {
					// A reconnect journal in wire form: the origin is a
					// window origin the base server holds, named by its
					// content identity. It cannot be replayed on its own.
					origin = "origin=ref:" + rec.OriginRef
				}
				fmt.Fprintf(w, "%5d  checkout window=%d pos=%d %s\n",
					rec.Seq, rec.WindowID, rec.Pos, origin)
			case "begin":
				fmt.Fprintf(w, "%5d  begin    %s (%d bytes of code)\n", rec.Seq, rec.TxID, len(rec.Txn))
			case "read":
				fmt.Fprintf(w, "%5d  read     %s %s=%d\n", rec.Seq, rec.TxID, rec.Item, rec.Value)
			case "write":
				fmt.Fprintf(w, "%5d  write    %s %s: %d -> %d\n", rec.Seq, rec.TxID, rec.Item, rec.Before, rec.After)
			case "commit":
				fmt.Fprintf(w, "%5d  commit   %s\n", rec.Seq, rec.TxID)
			default:
				fmt.Fprintf(w, "%5d  %s\n", rec.Seq, rec.Kind)
			}
		}
	}

	rep, err := tiermerge.ReplayWAL(recs)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	fmt.Fprintf(w, "verified: %d committed transactions (window %d, base position %d)\n",
		rep.Augmented.H.Len(), rep.WindowID, rep.Pos)
	if rep.Dropped > 0 {
		fmt.Fprintf(w, "dropped:  %d uncommitted trailing transaction(s)\n", rep.Dropped)
	}
	fmt.Fprintln(w, "history: ", rep.Augmented.H)
	fmt.Fprintln(w, "origin:  ", rep.Origin)
	fmt.Fprintln(w, "state:   ", rep.Augmented.Final())
	if code {
		fmt.Fprintln(w, "\ncommitted transaction code:")
		for i := 0; i < rep.Augmented.H.Len(); i++ {
			t := rep.Augmented.H.Txn(i)
			fmt.Fprintf(w, "  %s { %s }\n", t.ID, tiermerge.FormatBody(t.Body))
		}
	}
	return nil
}
