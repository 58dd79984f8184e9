package wal

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// journalHistory runs n generated transactions from origin, journaling each.
func journalHistory(t *testing.T, buf *bytes.Buffer, seed int64, n int) (model.State, *history.Augmented) {
	t.Helper()
	gen := workload.NewGenerator(workload.Config{Seed: seed, Items: 10})
	origin := gen.OriginState()
	w := NewWriter(buf)
	if err := w.Checkout(3, 7, origin); err != nil {
		t.Fatal(err)
	}
	h := &history.History{}
	cur := origin.Clone()
	for i := 0; i < n; i++ {
		txn := gen.Txn(tx.Tentative)
		next, eff, err := txn.Exec(cur, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.LogTxn(txn, eff); err != nil {
			t.Fatal(err)
		}
		h.Append(txn)
		cur = next
	}
	aug, err := history.Run(h, origin)
	if err != nil {
		t.Fatal(err)
	}
	return origin, aug
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	origin, want := journalHistory(t, &buf, 11, 8)

	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowID != 3 || rep.Pos != 7 {
		t.Errorf("checkout metadata: window=%d pos=%d", rep.WindowID, rep.Pos)
	}
	if !rep.Origin.Equal(origin) {
		t.Errorf("origin = %s, want %s", rep.Origin, origin)
	}
	if rep.Augmented.H.Len() != want.H.Len() {
		t.Fatalf("replayed %d transactions, want %d", rep.Augmented.H.Len(), want.H.Len())
	}
	if !rep.Augmented.Final().Equal(want.Final()) {
		t.Errorf("replayed final %s, want %s", rep.Augmented.Final(), want.Final())
	}
	if rep.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", rep.Dropped)
	}
	// Effects must match, entry by entry.
	for i := range want.Effects {
		w, g := want.Effects[i], rep.Augmented.Effects[i]
		if len(w.Writes) != len(g.Writes) {
			t.Errorf("txn %d: write counts differ", i)
		}
	}
}

func TestReplayDropsUncommittedTail(t *testing.T) {
	var buf bytes.Buffer
	gen := workload.NewGenerator(workload.Config{Seed: 21, Items: 8})
	origin := gen.OriginState()
	w := NewWriter(&buf)
	if err := w.Checkout(1, 0, origin); err != nil {
		t.Fatal(err)
	}
	t1 := workload.Deposit("T1", tx.Tentative, "d1", 5)
	_, eff, err := t1.Exec(origin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.LogTxn(t1, eff); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-transaction: begin without commit.
	t2 := workload.Deposit("T2", tx.Tentative, "d2", 9)
	code, err := tx.MarshalTransaction(t2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(Record{Kind: KindBegin, TxID: "T2", Txn: code}); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Augmented.H.Len() != 1 || rep.Dropped != 1 {
		t.Errorf("replayed %d committed, dropped %d; want 1/1",
			rep.Augmented.H.Len(), rep.Dropped)
	}
}

func TestReplayToleratesTornFinalLine(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 31, 3)
	// Tear the journal mid-line, as a crash during a write would.
	data := buf.Bytes()
	data = data[:len(data)-7]
	recs, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(recs); err != nil {
		// Acceptable outcomes: the torn line was a commit (transaction
		// dropped) or mid-transaction records vanished — but a hard corrupt
		// error must not occur for a clean prefix tear unless the tear left
		// a stray read/write. Replay may legitimately report corruption
		// only when the tear bisected a transaction's record group in a
		// contradictory way; for a tail tear it must succeed.
		t.Fatalf("tail tear must replay the committed prefix: %v", err)
	}
}

func TestReplayDetectsTamperedValues(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 41, 4)
	s := buf.String()
	// Corrupt a logged write image.
	tampered := strings.Replace(s, `"kind":"write"`, `"kind":"write","nonce":1`, 1)
	if tampered == s {
		t.Skip("no write record to tamper with")
	}
	// Change an "after" value instead (guaranteed to exist for a write).
	tampered = tamperAfter(s)
	if tampered == s {
		t.Skip("no after field found")
	}
	recs, err := ReadAll(strings.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tampered journal replayed without ErrCorrupt: %v", err)
	}
}

// tamperAfter flips the first `"after":N` to a different value.
func tamperAfter(s string) string { return tamperField(s, `"after":`) }

// tamperField flips the numeric value after the first occurrence of the
// given JSON key prefix to a different value.
func tamperField(s, prefix string) string {
	idx := strings.Index(s, prefix)
	if idx < 0 {
		return s
	}
	// Walk the number and bump its last digit (avoiding 9 rollover by
	// replacing with a different digit).
	j := idx + len(prefix)
	k := j
	for k < len(s) && (s[k] == '-' || (s[k] >= '0' && s[k] <= '9')) {
		k++
	}
	if k == j {
		return s
	}
	d := s[k-1]
	nd := byte('1')
	if d == '1' {
		nd = '2'
	}
	return s[:k-1] + string(nd) + s[k:]
}

func TestReplayRejectsMalformedJournals(t *testing.T) {
	valid := func() []Record {
		var buf bytes.Buffer
		journalHistory(t, &buf, 51, 2)
		recs, err := ReadAll(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}

	t.Run("missing checkout", func(t *testing.T) {
		recs := valid()[1:]
		if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("duplicate checkout", func(t *testing.T) {
		recs := valid()
		recs = append(recs, recs[0])
		if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("stray commit", func(t *testing.T) {
		recs := valid()
		recs = append(recs, Record{Kind: KindCommit, TxID: "ghost"})
		if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("stray read", func(t *testing.T) {
		recs := valid()
		recs = append(recs, Record{Kind: KindRead, TxID: "ghost", Item: "d1"})
		if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("empty journal", func(t *testing.T) {
		if _, err := Replay(nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v", err)
		}
	})
}

// TestReplayOriginRef: a checkout record naming its origin by reference
// replays exactly like the full journal once the caller resolves the ref,
// and is ErrCorrupt while unresolved — even with no transactions, whose
// replay from an empty state would otherwise succeed vacuously.
func TestReplayOriginRef(t *testing.T) {
	var full bytes.Buffer
	origin, want := journalHistory(t, &full, 61, 4)
	raw := append([]byte(nil), full.Bytes()...)
	recs, err := ReadAll(&full)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	w := NewWriter(&ref)
	if err := w.CheckoutRef(3, 7, origin.Digest()); err != nil {
		t.Fatal(err)
	}
	ref.Write(raw[bytes.IndexByte(raw, '\n')+1:])
	byRef, err := ReadAll(&ref)
	if err != nil {
		t.Fatal(err)
	}
	if byRef[0].Origin != nil || byRef[0].OriginRef != origin.Digest() {
		t.Fatalf("checkout record by ref = %+v", byRef[0])
	}
	for _, n := range []int{1, len(byRef)} {
		if _, err := Replay(byRef[:n]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("unresolved ref, %d records: got %v, want ErrCorrupt", n, err)
		}
	}
	byRef[0].Origin = origin
	rep, err := Replay(byRef)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Augmented.H.Len() != want.H.Len() || !rep.Augmented.Final().Equal(want.Final()) {
		t.Errorf("resolved ref replayed %d txns to %s, want %d to %s",
			rep.Augmented.H.Len(), rep.Augmented.Final(), want.H.Len(), want.Final())
	}
	if len(recs) != len(byRef) {
		t.Errorf("by-ref journal has %d records, full %d", len(byRef), len(recs))
	}
}

// TestReplayAtEveryCrashPoint cuts a journal at every byte offset and
// requires recovery to either replay a committed prefix or fail with a
// clean ErrCorrupt — never panic, never fabricate transactions, and never
// shrink a prefix that a longer cut could replay.
func TestReplayAtEveryCrashPoint(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 71, 5)
	data := buf.Bytes()
	prevCommitted := -1
	for cut := 0; cut <= len(data); cut++ {
		recs, err := ReadAll(bytes.NewReader(data[:cut]))
		if err != nil {
			continue // unreadable torn line prefix: acceptable
		}
		rep, err := Replay(recs)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d: non-ErrCorrupt failure: %v", cut, err)
			}
			continue
		}
		n := rep.Augmented.H.Len()
		if n > 5 {
			t.Fatalf("cut %d: fabricated transactions: %d", cut, n)
		}
		if n < prevCommitted {
			// Committed prefixes must be monotone in the cut point.
			t.Fatalf("cut %d: committed prefix shrank from %d to %d", cut, prevCommitted, n)
		}
		prevCommitted = n
	}
	if prevCommitted != 5 {
		t.Fatalf("full journal replayed %d of 5", prevCommitted)
	}
}

// TestReadAllRejectsMidJournalCorruption is the regression test for the
// torn-line guard bug: a malformed line in the *middle* of a journal,
// followed by validly committed transactions, must fail with ErrCorrupt —
// silently truncating there would drop acknowledged work.
func TestReadAllRejectsMidJournalCorruption(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 61, 4)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal too short: %d lines", len(lines))
	}
	// Mangle an interior line (not the last one).
	mid := len(lines) / 2
	lines[mid] = lines[mid][:len(lines[mid])/2]
	damaged := strings.Join(lines, "\n") + "\n"
	if _, err := ReadAll(strings.NewReader(damaged)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mid-journal corruption: got %v, want ErrCorrupt", err)
	}
}

// TestReadAllDetectsDroppedAndDuplicatedLines: sequence numbers are
// contiguous, so a lost or repeated buffer flush is corruption even though
// every surviving line parses.
func TestReadAllDetectsDroppedAndDuplicatedLines(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 62, 3)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	mid := len(lines) / 2

	dropped := strings.Join(append(append([]string{}, lines[:mid]...), lines[mid+1:]...), "\n") + "\n"
	if _, err := ReadAll(strings.NewReader(dropped)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("dropped line: got %v, want ErrCorrupt", err)
	}

	dup := append(append([]string{}, lines[:mid+1]...), lines[mid:]...)
	duplicated := strings.Join(dup, "\n") + "\n"
	if _, err := ReadAll(strings.NewReader(duplicated)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("duplicated line: got %v, want ErrCorrupt", err)
	}
}

// TestReadAllToleratesTornFinalLineOnly: the one acceptable damage shape.
func TestReadAllToleratesTornFinalLineOnly(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 63, 3)
	data := buf.Bytes()
	torn := data[:len(data)-5] // cut mid final line
	recs, err := ReadAll(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	full, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(full)-1 {
		t.Errorf("torn tail: %d records, want %d", len(recs), len(full)-1)
	}
}

// TestScanSalvageReportsTear: salvage mode survives interior damage and
// reports where the journal tears and what it discarded.
func TestScanSalvageReportsTear(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 64, 4)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	mid := len(lines) / 2
	lines[mid] = "garbage{{{"
	damaged := strings.Join(lines, "\n") + "\n"

	res, err := Scan(strings.NewReader(damaged), Salvage)
	if err != nil {
		t.Fatalf("salvage must not fail: %v", err)
	}
	if !res.Torn || res.TornLine != mid+1 {
		t.Errorf("tear at line %d (torn=%v), want line %d", res.TornLine, res.Torn, mid+1)
	}
	if len(res.Records) != mid {
		t.Errorf("salvaged %d records, want %d", len(res.Records), mid)
	}
	if res.DiscardedLines != len(lines)-mid-1 {
		t.Errorf("discarded %d lines, want %d", res.DiscardedLines, len(lines)-mid-1)
	}
	if res.TornReason == "" {
		t.Error("tear reason empty")
	}
	// The salvaged prefix must itself replay (it is a valid journal
	// prefix) unless the tear bisected a transaction's record group.
	if _, err := Replay(res.Records); err != nil && !errors.Is(err, ErrCorrupt) {
		t.Errorf("salvaged prefix replay: %v", err)
	}
}

// TestReplayDetectsTamperedBeforeImage: prune.ByUndo trusts before-images,
// so Replay must verify them alongside the after-images.
func TestReplayDetectsTamperedBeforeImage(t *testing.T) {
	var buf bytes.Buffer
	journalHistory(t, &buf, 65, 4)
	tampered := tamperField(buf.String(), `"before":`)
	if tampered == buf.String() {
		t.Skip("no before field found")
	}
	recs, err := ReadAll(strings.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tampered before-image replayed without ErrCorrupt: %v", err)
	}
}

// TestJournalCarriesDeltas: a pure commutative increment is journaled with
// its delta annotation, a value write (assignment) without one, and replay
// reconstructs the same classification.
func TestJournalCarriesDeltas(t *testing.T) {
	var buf bytes.Buffer
	origin := model.StateOf(map[model.Item]model.Value{"x": 100, "p": 50})
	w := NewWriter(&buf)
	if err := w.Checkout(0, 0, origin); err != nil {
		t.Fatal(err)
	}
	cur := origin.Clone()
	for _, txn := range []*tx.Transaction{
		workload.Deposit("T1", tx.Tentative, "x", 5),
		workload.SetPrice("T2", tx.Tentative, "p", 77),
	} {
		next, eff, err := txn.Exec(cur, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.LogTxn(txn, eff); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	recs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var gotDelta, gotValue bool
	for _, rec := range recs {
		if rec.Kind != KindWrite {
			continue
		}
		switch rec.Item {
		case "x":
			gotDelta = true
			if rec.Delta == nil || *rec.Delta != 5 {
				t.Errorf("deposit write record delta = %v, want 5", rec.Delta)
			}
		case "p":
			gotValue = true
			if rec.Delta != nil {
				t.Errorf("assignment write record carries delta %d", *rec.Delta)
			}
		}
	}
	if !gotDelta || !gotValue {
		t.Fatalf("journal missing write records: delta=%v value=%v", gotDelta, gotValue)
	}
	rep, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	pure := rep.Augmented.Effects[0].DeltaPure()
	if !pure.Has("x") || rep.Augmented.Effects[0].Deltas["x"] != 5 {
		t.Errorf("replayed effect lost the delta classification: %v", pure)
	}
	if len(rep.Augmented.Effects[1].DeltaPure()) != 0 {
		t.Error("replayed assignment classified as a pure delta")
	}
}

// TestReplayDetectsTamperedDelta: a delta annotation that disagrees with
// the replayed execution — a wrong increment, a delta on a value write, or
// a stripped delta — is ErrCorrupt. A spurious delta would let the merge
// layer elide edges around a non-commutative write.
func TestReplayDetectsTamperedDelta(t *testing.T) {
	build := func() string {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Checkout(0, 0, model.StateOf(map[model.Item]model.Value{"x": 100})); err != nil {
			t.Fatal(err)
		}
		txn := workload.Deposit("T1", tx.Tentative, "x", 5)
		_, eff, err := txn.Exec(model.StateOf(map[model.Item]model.Value{"x": 100}), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.LogTxn(txn, eff); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	cases := map[string]func(string) string{
		"wrong increment": func(s string) string { return tamperField(s, `"delta":`) },
		"stripped delta":  func(s string) string { return strings.Replace(s, `,"delta":5`, ``, 1) },
	}
	for name, tamper := range cases {
		s := build()
		tampered := tamper(s)
		if tampered == s {
			t.Fatalf("%s: tamper had no effect on %q", name, s)
		}
		recs, err := ReadAll(strings.NewReader(tampered))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(recs); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: replayed without ErrCorrupt: %v", name, err)
		}
	}
}
