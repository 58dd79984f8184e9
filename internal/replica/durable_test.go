package replica

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"tiermerge/internal/fault"
	"tiermerge/internal/model"
	"tiermerge/internal/store"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// --- Satellite: journals must reach stable media before a commit is acked.

// TestBaseJournalSyncedBeforeAck models a power loss (not just a process
// crash) with fault.SyncWriter: only bytes covered by a completed Sync
// survive. Every acknowledged base commit must be recoverable from the
// persisted image. Regression: AttachJournal used to wrap a bare
// io.Writer and nothing ever synced, so an acked commit could vanish.
func TestBaseJournalSyncedBeforeAck(t *testing.T) {
	w := fault.NewSyncWriter()
	b := NewBaseCluster(origin(), Config{})
	if err := b.AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	b.AdvanceWindow()
	if err := b.ExecBase(workload.Deposit("Tb2", tx.Base, "y", 5)); err != nil {
		t.Fatal(err)
	}

	// Power loss now: recover from the durable bytes only.
	rec, _, err := RecoverBaseCluster(bytes.NewReader(w.Persisted()), Config{})
	if err != nil {
		t.Fatalf("recovery from persisted image: %v", err)
	}
	if !rec.Master().Equal(b.Master()) {
		t.Errorf("recovered master %s != acked master %s (acked commit lost on power loss)",
			rec.Master(), b.Master())
	}
	if rec.WindowID() != b.WindowID() {
		t.Errorf("recovered window %d != %d", rec.WindowID(), b.WindowID())
	}
}

// TestBaseJournalSyncFailureBlocksAck: when the flush fails, the commit
// must not be acknowledged — crash-between-write-and-sync is recoverable
// as "never happened", not acked-and-lost.
func TestBaseJournalSyncFailureBlocksAck(t *testing.T) {
	w := fault.NewSyncWriter()
	b := NewBaseCluster(origin(), Config{})
	if err := b.AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	w.FailAfter(w.Syncs()) // every further flush fails
	err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10))
	if !errors.Is(err, fault.ErrSyncFailed) {
		t.Fatalf("ExecBase with failing sync = %v, want ErrSyncFailed", err)
	}
	// The persisted image must recover cleanly and must not contain the
	// unacknowledged commit.
	rec, _, rerr := RecoverBaseCluster(bytes.NewReader(w.Persisted()), Config{})
	if rerr != nil {
		t.Fatalf("recovery from persisted image: %v", rerr)
	}
	if rec.HistoryLen() != 0 {
		t.Errorf("unacked commit present after recovery (history len %d)", rec.HistoryLen())
	}
}

// TestMergeSyncedBeforeAck: a reconnect merge's installed forwarded
// updates must survive a power loss once the mobile node is told its work
// is saved.
func TestMergeSyncedBeforeAck(t *testing.T) {
	w := fault.NewSyncWriter()
	b := NewBaseCluster(origin(), Config{})
	if err := b.AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "y", 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ConnectMerge(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverBaseCluster(bytes.NewReader(w.Persisted()), Config{})
	if err != nil {
		t.Fatalf("recovery from persisted image: %v", err)
	}
	if !rec.Master().Equal(b.Master()) {
		t.Errorf("merged updates lost on power loss: recovered %s, acked %s",
			rec.Master(), b.Master())
	}
}

// TestMobileJournalSyncedBeforeAck: same property for the mobile tier — an
// acknowledged tentative transaction must be recoverable from the durable
// image of its journal.
func TestMobileJournalSyncedBeforeAck(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	w := fault.NewSyncWriter()
	if err := m.AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "x", 3)); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverMobileNode("m1", bytes.NewReader(w.Persisted()))
	if err != nil {
		t.Fatalf("recovery from persisted image: %v", err)
	}
	if rec.Pending() != 1 {
		t.Errorf("acked tentative transaction lost on power loss (recovered %d)", rec.Pending())
	}
}

// --- Satellite: the base-prefix cache must not grow without bound.

// TestPrefixCacheTrimmedOnWindowAdvance (white-box): window advance must
// drop the materialized prefix cache of the closed window, and the cache
// never pins a storage snapshot, so compaction can proceed.
func TestPrefixCacheTrimmedOnWindowAdvance(t *testing.T) {
	eng := store.NewMemory()
	b := NewBaseCluster(origin(), Config{Store: eng})
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 1)); err != nil {
		t.Fatal(err)
	}
	// Materialize the cache the way merges do.
	b.mu.Lock()
	b.baseAugmented(0)
	cached := b.prefix.entries != nil
	b.mu.Unlock()
	if !cached {
		t.Fatal("prefix cache not materialized")
	}
	if n := eng.Stats().Snapshots; n != 0 {
		t.Fatalf("snapshots pinned by the prefix cache = %d, want 0", n)
	}
	b.AdvanceWindow()
	b.mu.Lock()
	trimmed := b.prefix.entries == nil
	b.mu.Unlock()
	if !trimmed {
		t.Error("prefix cache survived window advance")
	}
	if n := eng.Stats().Snapshots; n != 0 {
		t.Errorf("storage snapshots still pinned after window advance: %d", n)
	}
}

// TestStoreBoundedAcrossWindows (soak): across many windows the version
// chains must stay bounded — window advance compacts everything below the
// new origin. Regression: the pinned prefix snapshot was never released,
// clamping the compaction floor forever, so chains (and the cache) grew
// with every window.
func TestStoreBoundedAcrossWindows(t *testing.T) {
	eng := store.NewMemory()
	b := NewBaseCluster(origin(), Config{Store: eng})
	const windows, perWindow = 60, 8
	var after10 int
	for wnd := 0; wnd < windows; wnd++ {
		for i := 0; i < perWindow; i++ {
			id := fmt.Sprintf("T%d.%d", wnd, i)
			if err := b.ExecBase(workload.Deposit(id, tx.Base, "x", 1)); err != nil {
				t.Fatal(err)
			}
		}
		// Touch the prefix cache every window, as live merges would.
		b.mu.Lock()
		b.baseAugmented(0)
		b.mu.Unlock()
		b.AdvanceWindow()
		if wnd == 9 {
			after10 = eng.Stats().Versions
		}
	}
	final := eng.Stats().Versions
	if final > after10 {
		t.Errorf("version chains grew across windows: %d after 10 windows, %d after %d",
			after10, final, windows)
	}
	// Bound: one compacted version per item plus the current (empty)
	// window. origin() has 4 items.
	if final > 4+perWindow {
		t.Errorf("version count %d exceeds per-window bound %d", final, 4+perWindow)
	}
}

// TestReplayCompactsAcrossWindows: replaying a journal's window records
// must compact the version chains exactly as the live AdvanceWindow did.
// Regression: the replayed window advance only reset the history, so a
// full-log recovery of 60 windows × 8 deposits kept 484 versions where
// the live run holds 4 + 8.
func TestReplayCompactsAcrossWindows(t *testing.T) {
	live := store.NewMemory()
	b := NewBaseCluster(origin(), Config{Store: live})
	var journal bytes.Buffer
	if err := b.AttachJournal(&journal); err != nil {
		t.Fatal(err)
	}
	const windows, perWindow = 60, 8
	for wnd := 0; wnd < windows; wnd++ {
		for i := 0; i < perWindow; i++ {
			id := fmt.Sprintf("T%d.%d", wnd, i)
			if err := b.ExecBase(workload.Deposit(id, tx.Base, "x", 1)); err != nil {
				t.Fatal(err)
			}
		}
		b.AdvanceWindow()
	}
	eng := store.NewMemory()
	rec, _, err := RecoverBaseCluster(bytes.NewReader(journal.Bytes()), Config{Store: eng})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Master().Equal(b.Master()) || rec.WindowID() != b.WindowID() {
		t.Fatalf("recovered master %s window %d, want %s window %d",
			rec.Master(), rec.WindowID(), b.Master(), b.WindowID())
	}
	got, want := eng.Stats().Versions, live.Stats().Versions
	if got != want {
		t.Errorf("replayed version count %d, live run %d", got, want)
	}
	// origin() has 4 items; the current window holds at most perWindow
	// more versions.
	if got > 4+perWindow {
		t.Errorf("replayed version count %d exceeds per-window bound %d", got, 4+perWindow)
	}
}

// --- Tentpole: store-backed clusters behave like legacy ones.

// TestStoreBackedClusterMatchesLegacy drives an identical workload —
// base commits, a Strategy 1 interior-insert merge, a window advance —
// through a legacy cluster and a store-backed one, asserting identical
// masters at every step.
func TestStoreBackedClusterMatchesLegacy(t *testing.T) {
	run := func(cfg Config) model.State {
		b := NewBaseCluster(origin(), cfg)
		if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
			t.Fatal(err)
		}
		m := NewMobileNode("m1", b) // Strategy 1: checkout at pos 1
		if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "y", 5)); err != nil {
			t.Fatal(err)
		}
		// A disjoint base commit after the checkout: the forwarded updates
		// install at the interior checkout position.
		if err := b.ExecBase(workload.Deposit("Tb2", tx.Base, "z", 3)); err != nil {
			t.Fatal(err)
		}
		out, err := m.ConnectMerge()
		if err != nil {
			t.Fatal(err)
		}
		if !out.Merged || out.Saved != 1 {
			t.Fatalf("merge outcome = %+v, want 1 saved", out)
		}
		b.AdvanceWindow()
		if err := b.ExecBase(workload.Deposit("Tb3", tx.Base, "w", 2)); err != nil {
			t.Fatal(err)
		}
		return b.Master()
	}
	legacy := run(Config{Origin: Strategy1})
	backed := run(Config{Origin: Strategy1, Store: store.NewMemory()})
	if !legacy.Equal(backed) {
		t.Errorf("store-backed master %s != legacy %s", backed, legacy)
	}
}

// TestShardedStoreBackedMatchesLegacy: same equivalence through the
// sharded tier, including a cross-shard base transaction.
func TestShardedStoreBackedMatchesLegacy(t *testing.T) {
	run := func(cfg Config) model.State {
		s := NewShardedBase(origin(), 2, cfg)
		if err := s.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
			t.Fatal(err)
		}
		if err := s.ExecBase(workload.Transfer("Tb2", tx.Base, "x", "y", 4)); err != nil {
			t.Fatal(err)
		}
		m := NewShardedMobileNode("m1", s)
		if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "z", 5)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ConnectMerge(); err != nil {
			t.Fatal(err)
		}
		s.AdvanceWindow()
		return s.Master()
	}
	legacy := run(Config{})
	backed := run(Config{Store: store.NewMemory()})
	if !legacy.Equal(backed) {
		t.Errorf("store-backed sharded master %s != legacy %s", backed, legacy)
	}
}

// --- Tentpole: durable OpenBase / Checkpoint / recovery.

// TestOpenBaseFreshCommitRecover: a durable cluster survives a crash; the
// reopened cluster carries the acked master, window and history.
func TestOpenBaseFreshCommitRecover(t *testing.T) {
	dir := t.TempDir()
	b, rec, err := OpenBase(dir, origin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 {
		t.Errorf("fresh open replayed %d records", rec.Records)
	}
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "y", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ConnectMerge(); err != nil {
		t.Fatal(err)
	}
	b.AdvanceWindow()
	if err := b.ExecBase(workload.Deposit("Tb2", tx.Base, "z", 3)); err != nil {
		t.Fatal(err)
	}
	want := b.Master()
	wantWin, wantLen := b.WindowID(), b.HistoryLen()
	// Crash: no Close, no final flush beyond the per-commit syncs.

	b2, rec2, err := OpenBase(dir, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.CloseStore()
	if !b2.Master().Equal(want) {
		t.Errorf("recovered master %s != %s", b2.Master(), want)
	}
	if b2.WindowID() != wantWin || b2.HistoryLen() != wantLen {
		t.Errorf("recovered window/history = %d/%d, want %d/%d",
			b2.WindowID(), b2.HistoryLen(), wantWin, wantLen)
	}
	if rec2.Committed == 0 {
		t.Error("recovery replayed no commits")
	}
	// The recovered cluster keeps working.
	if err := b2.ExecBase(workload.Deposit("Tb3", tx.Base, "w", 1)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointTruncatesLogAndRecovers: checkpoint + truncation must keep
// the log bounded and recovery from checkpoint+tail must land on the same
// master as before the crash.
func TestCheckpointTruncatesLogAndRecovers(t *testing.T) {
	dir := t.TempDir()
	b, _, err := OpenBase(dir, origin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := b.ExecBase(workload.Deposit(fmt.Sprintf("T%d", i), tx.Base, "x", 1)); err != nil {
			t.Fatal(err)
		}
	}
	before := b.LogSize()
	b.AdvanceWindow() // empties the current window
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := b.LogSize()
	if after >= before {
		t.Errorf("log size after checkpoint %d >= before %d (no truncation)", after, before)
	}
	// Post-checkpoint commits land in the tail.
	if err := b.ExecBase(workload.Deposit("Tpost", tx.Base, "y", 2)); err != nil {
		t.Fatal(err)
	}
	want := b.Master()

	b2, rec, err := OpenBase(dir, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.CloseStore()
	if !b2.Master().Equal(want) {
		t.Errorf("recovered master %s != %s", b2.Master(), want)
	}
	// Recovery replayed checkpoint + tail, not the 50-commit history.
	if rec.Committed > 2 {
		t.Errorf("recovery replayed %d commits, want <= 2 (checkpoint should have absorbed the history)", rec.Committed)
	}
}

// TestCheckpointWithoutDiskStore: Checkpoint is a typed error on clusters
// without a durable engine.
func TestCheckpointWithoutDiskStore(t *testing.T) {
	b := NewBaseCluster(origin(), Config{Store: store.NewMemory()})
	if err := b.Checkpoint(); !errors.Is(err, ErrNoDurableStore) {
		t.Errorf("Checkpoint on memory engine = %v, want ErrNoDurableStore", err)
	}
}

// TestOpenShardedBaseRecover: the durable sharded tier recovers per shard,
// including cross-shard slices.
func TestOpenShardedBaseRecover(t *testing.T) {
	dir := t.TempDir()
	s, recs, err := OpenShardedBase(dir, origin(), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recoveries = %d, want 2", len(recs))
	}
	if err := s.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.ExecBase(workload.Transfer("Tb2", tx.Base, "x", "y", 4)); err != nil {
		t.Fatal(err)
	}
	want := s.Master()

	s2, _, err := OpenShardedBase(dir, nil, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseStore()
	if !s2.Master().Equal(want) {
		t.Errorf("recovered sharded master %s != %s", s2.Master(), want)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// --- Rotation-gate regressions at the cluster level.

// TestConcurrentCommitsAndCheckpoints: commits racing checkpoint rotations
// (including two concurrent Checkpoint callers, the serve ticker/drain
// shape) must leave a log from which every acknowledged commit recovers.
// Pre-fix, a commit syncing in the BeginRotate→CompleteRotate window could
// fsync restarted-seq records into the outgoing tail (lost on rotation),
// and overlapping Checkpoints could interleave their boundary splits.
func TestConcurrentCommitsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	b, _, err := OpenBase(dir, origin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	const commits = 60
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			if err := b.ExecBase(workload.Deposit(fmt.Sprintf("T%d", i), tx.Base, "x", 1)); err != nil {
				errs <- fmt.Errorf("commit %d: %w", i, err)
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := b.Checkpoint(); err != nil {
					errs <- fmt.Errorf("checkpoint: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := b.Master()
	// Crash without Close: recovery must see every acknowledged commit.
	b2, rec, err := OpenBase(dir, nil, Config{})
	if err != nil {
		t.Fatalf("recovery after concurrent checkpoints: %v", err)
	}
	defer b2.CloseStore()
	if !b2.Master().Equal(want) {
		t.Errorf("recovered master %s != %s (dropped %d)", b2.Master(), want, rec.Dropped)
	}
}

// TestCheckpointFailureStopsAcks: a failed rotation wedges the journal —
// the boundary already restarted the record numbering, so continuing to
// append would corrupt the old tail. No later commit may be acknowledged.
// Pre-fix, the cluster kept serving and the next sync planted an interior
// sequence break that made the log unrecoverable despite acked commits.
func TestCheckpointFailureStopsAcks(t *testing.T) {
	dir := t.TempDir()
	b, _, err := OpenBase(dir, origin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.Deposit("T1", tx.Base, "x", 1)); err != nil {
		t.Fatal(err)
	}
	// Sabotage the data directory so the rotation cannot stage its temp
	// checkpoint file.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err == nil {
		t.Fatal("Checkpoint into a removed directory must fail")
	}
	if err := b.ExecBase(workload.Deposit("T2", tx.Base, "x", 1)); err == nil {
		t.Fatal("commit after a failed rotation must not be acknowledged")
	}
	if err := b.Checkpoint(); err == nil {
		t.Fatal("a wedged log must keep failing checkpoints, not resurrect itself")
	}
	b.CloseStore() // wedge error expected; this releases the tail fd
}
