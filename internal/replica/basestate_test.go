package replica

import (
	"bytes"
	"fmt"
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Per-position base states come from the storage engine's version chains.
// These tests check them against an independent reference: the window
// origin with the write images of entries[0:pos] applied in order.

// checkBaseStates asserts that stateAt(pos) at every position of b's
// current window equals the reference, and that the last one is the
// master.
func checkBaseStates(t *testing.T, label string, b *BaseCluster) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	ref := b.windowOrigin.Clone()
	for pos := 0; pos <= len(b.entries); pos++ {
		if pos > 0 {
			ref.Apply(b.entries[pos-1].eff.Writes)
		}
		if got := b.stateAt(pos); !got.Equal(ref) {
			t.Errorf("%s: stateAt(%d) = %s, reference %s", label, pos, got, ref)
		}
	}
	if !ref.Equal(b.master) {
		t.Errorf("%s: reference after the last entry %s != master %s", label, ref, b.master)
	}
}

// TestBaseStatesStrategy1InteriorInsert: forwarded updates installed at an
// interior checkout position shift every later state.
func TestBaseStatesStrategy1InteriorInsert(t *testing.T) {
	b := NewBaseCluster(origin(), Config{Origin: Strategy1})
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	m := NewMobileNode("m1", b) // checkout at pos 1
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "y", 5)); err != nil {
		t.Fatal(err)
	}
	for _, bt := range []*tx.Transaction{
		workload.Deposit("Tb2", tx.Base, "z", 3),
		workload.Deposit("Tb3", tx.Base, "x", 1),
	} {
		if err := b.ExecBase(bt); err != nil {
			t.Fatal(err)
		}
	}
	checkBaseStates(t, "before the merge", b)
	out, err := m.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Merged || out.Saved != 1 {
		t.Fatalf("merge outcome = %+v, want 1 saved", out)
	}
	b.mu.Lock()
	interior := len(b.entries) == 4 && b.entries[1].t.Type == "forwarded-updates"
	b.mu.Unlock()
	if !interior {
		t.Fatal("forwarded updates were not installed at the interior position 1")
	}
	checkBaseStates(t, "after the interior insert", b)
}

// TestBaseStatesCrossShard: a cross-shard base transaction and a
// cross-shard merge leave consistent per-position states on every shard.
func TestBaseStatesCrossShard(t *testing.T) {
	s := NewShardedBase(origin(), 2, Config{})
	// Pick two items on different shards.
	var a, c model.Item
	for _, it := range origin().Items() {
		if a == "" {
			a = it
		} else if s.Router().Shard(it) != s.Router().Shard(a) {
			c = it
			break
		}
	}
	if c == "" {
		t.Fatal("origin() items all route to one shard")
	}
	if err := s.ExecBase(workload.Deposit("Tb1", tx.Base, a, 10)); err != nil {
		t.Fatal(err)
	}
	m := NewShardedMobileNode("m1", s)
	if err := m.Run(workload.Transfer("Tm1", tx.Tentative, c, a, 7)); err != nil {
		t.Fatal(err)
	}
	if err := s.ExecBase(workload.Transfer("Tb2", tx.Base, a, c, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ConnectMerge(); err != nil {
		t.Fatal(err)
	}
	cross := 0
	for k := 0; k < s.Shards(); k++ {
		b := s.Shard(k)
		b.mu.Lock()
		for _, e := range b.entries {
			if e.global != nil {
				cross++
			}
		}
		b.mu.Unlock()
		checkBaseStates(t, fmt.Sprintf("shard %d", k), b)
	}
	if cross < 2 {
		t.Errorf("%d cross-shard entry slices, want the transfer's slice on both shards", cross)
	}
}

// TestBaseStatesWindowAdvance: per-position states start over at the new
// window's origin, live and after a journal replay.
func TestBaseStatesWindowAdvance(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	var journal bytes.Buffer
	if err := b.AttachJournal(&journal); err != nil {
		t.Fatal(err)
	}
	for _, bt := range []*tx.Transaction{
		workload.Deposit("Tb1", tx.Base, "x", 10),
		workload.Transfer("Tb2", tx.Base, "x", "y", 4),
	} {
		if err := b.ExecBase(bt); err != nil {
			t.Fatal(err)
		}
	}
	checkBaseStates(t, "first window", b)
	b.AdvanceWindow()
	checkBaseStates(t, "empty second window", b)
	for _, bt := range []*tx.Transaction{
		workload.Deposit("Tb3", tx.Base, "z", 3),
		workload.Transfer("Tb4", tx.Base, "y", "x", 2),
	} {
		if err := b.ExecBase(bt); err != nil {
			t.Fatal(err)
		}
	}
	checkBaseStates(t, "second window", b)
	rec, _, err := RecoverBaseCluster(bytes.NewReader(journal.Bytes()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkBaseStates(t, "recovered second window", rec)
}
