package replica

import (
	"fmt"
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for the window origin's content identity (Checkout.OriginID), the
// key by which a BaseServer and its clients exchange a Strategy 2 origin by
// reference instead of by value.

// TestOriginIDContentIdentity: the id is equal for equal content (explicit
// zeros included), differs for different content, follows the window
// origin across advances, and is never issued under Strategy 1.
func TestOriginIDContentIdentity(t *testing.T) {
	withZero := origin()
	withZero.Set("v", 0)
	a := NewBaseCluster(origin(), Config{})
	b := NewBaseCluster(withZero, Config{})
	idA := a.CheckoutReplica("m1").OriginID
	if idA == "" {
		t.Fatal("Strategy 2 checkout carries no origin id")
	}
	if idB := b.CheckoutReplica("m1").OriginID; idB != idA {
		t.Errorf("equal origins got ids %s and %s", idA, idB)
	}
	if idA != origin().Digest() {
		t.Errorf("origin id %s is not the origin's digest %s", idA, origin().Digest())
	}

	// Base commits inside the window leave the window origin alone.
	if err := a.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 5)); err != nil {
		t.Fatal(err)
	}
	if got := a.CheckoutReplica("m1").OriginID; got != idA {
		t.Errorf("id moved inside the window: %s -> %s", idA, got)
	}
	a.AdvanceWindow()
	idA2 := a.CheckoutReplica("m1").OriginID
	if idA2 == idA || idA2 != a.Master().Digest() {
		t.Errorf("after advance id = %s, want the new origin's digest %s (old %s)", idA2, a.Master().Digest(), idA)
	}
	// An advance with no commits installs an equal origin: same id.
	a.AdvanceWindow()
	if got := a.CheckoutReplica("m1").OriginID; got != idA2 {
		t.Errorf("advance without commits changed the id: %s -> %s", idA2, got)
	}

	s1 := NewBaseCluster(origin(), Config{Origin: Strategy1})
	if got := s1.CheckoutReplica("m1").OriginID; got != "" {
		t.Errorf("Strategy 1 checkout carries origin id %q", got)
	}
	sh1 := NewShardedBase(shardFleetOrigin(4), 2, Config{Origin: Strategy1})
	if got := sh1.CheckoutReplica("m1").OriginID; got != "" {
		t.Errorf("sharded Strategy 1 checkout carries origin id %q", got)
	}
}

// TestOriginIDStableAcrossReopen: a durable tier recovered from its log —
// tail replay with window records, then checkpoint-only — hands out the
// same origin id it did before the restart.
func TestOriginIDStableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	b, _, err := OpenBase(dir, origin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	b.AdvanceWindow()
	if err := b.ExecBase(workload.Deposit("Tb2", tx.Base, "y", 3)); err != nil {
		t.Fatal(err)
	}
	want := b.CheckoutReplica("m1").OriginID
	if err := b.CloseStore(); err != nil {
		t.Fatal(err)
	}

	b2, rec, err := OpenBase(dir, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Committed == 0 {
		t.Fatal("reopen replayed no commits")
	}
	if got := b2.CheckoutReplica("m1").OriginID; got != want {
		t.Errorf("id after tail replay = %s, want %s", got, want)
	}
	if err := b2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := b2.CloseStore(); err != nil {
		t.Fatal(err)
	}
	b3, _, err := OpenBase(dir, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b3.CloseStore()
	if got := b3.CheckoutReplica("m1").OriginID; got != want {
		t.Errorf("id after checkpoint reopen = %s, want %s", got, want)
	}

	sdir := t.TempDir()
	s, _, err := OpenShardedBase(sdir, shardFleetOrigin(6), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ExecBase(workload.Deposit("Tb1", tx.Base, shardAcct(0), 7)); err != nil {
		t.Fatal(err)
	}
	s.AdvanceWindow()
	wantSharded := s.CheckoutReplica("m1").OriginID
	if err := s.CloseStore(); err != nil {
		t.Fatal(err)
	}
	s2, _, err := OpenShardedBase(sdir, nil, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseStore()
	if got := s2.CheckoutReplica("m1").OriginID; got != wantSharded {
		t.Errorf("sharded id after reopen = %s, want %s", got, wantSharded)
	}
}

// TestShardedOriginIDTracksShardOrigins: a sharded tier's id changes
// exactly when some shard's window origin changes.
func TestShardedOriginIDTracksShardOrigins(t *testing.T) {
	const n = 8
	s := NewShardedBase(shardFleetOrigin(n), 2, Config{})
	ck := s.CheckoutReplica("m1")
	if ck.OriginID == "" || ck.OriginID != composeOriginID(ck.Shards) {
		t.Fatalf("sharded id %q is not composed from the shard ids", ck.OriginID)
	}
	// Find an account on shard 0; a window that changes only shard 0's
	// origin must change the composite id and leave shard 1's id alone.
	var acct model.Item
	for i := 0; i < n; i++ {
		if s.ShardOf(shardAcct(i)) == 0 {
			acct = shardAcct(i)
			break
		}
	}
	if acct == "" {
		t.Fatal("no account routed to shard 0")
	}
	if err := s.ExecBase(workload.Deposit("Tb1", tx.Base, acct, 5)); err != nil {
		t.Fatal(err)
	}
	if got := s.CheckoutReplica("m1").OriginID; got != ck.OriginID {
		t.Error("id moved on a commit inside the window")
	}
	s.AdvanceWindow()
	ck2 := s.CheckoutReplica("m1")
	if ck2.OriginID == ck.OriginID {
		t.Error("id unchanged although shard 0's window origin changed")
	}
	if ck2.Shards[1].OriginID != ck.Shards[1].OriginID {
		t.Error("shard 1's id changed although its origin did not")
	}
	s.AdvanceWindow()
	if got := s.CheckoutReplica("m1").OriginID; got != ck2.OriginID {
		t.Error("id changed on an advance that changed no shard's origin")
	}
}

// partitionedWireTokens is the per-shard token synthesis wire merges used
// before Strategy 2 stopped partitioning the origin: every token carries
// its shard's slice of the combined origin.
func partitionedWireTokens(s *ShardedBase, ck Checkout) Checkout {
	parts := make([]Checkout, s.Shards())
	for k := range parts {
		parts[k] = Checkout{MobileID: ck.MobileID, WindowID: ck.WindowID, Pos: ck.Pos, Origin: model.NewState()}
	}
	for it, v := range ck.Origin {
		parts[s.ShardOf(it)].Origin.Set(it, v)
	}
	ck.Shards = parts
	return ck
}

// TestShardedWireMergeMatchesPartitionedTokens: a merge that crossed the
// wire (combined token only) gives the same outcomes, master and counters
// as with origin-partitioned shard tokens, under both strategies — across
// shard-local and cross-shard merges, base commits in the window, and a
// window advance that expires some checkouts.
func TestShardedWireMergeMatchesPartitionedTokens(t *testing.T) {
	const n = 6
	for _, strat := range []OriginStrategy{Strategy2, Strategy1} {
		t.Run(strat.String(), func(t *testing.T) {
			run := func(token func(*ShardedBase, Checkout) Checkout) (string, *ShardedBase) {
				s := NewShardedBase(shardFleetOrigin(n), 3, Config{Origin: strat})
				var log string
				for round := 0; round < 3; round++ {
					ms := make([]*MobileNode, n)
					for i := range ms {
						ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
						id := fmt.Sprintf("%d.%d", round, i)
						if err := ms[i].Run(workload.Deposit("Td"+id, tx.Tentative, shardAcct(i), 5)); err != nil {
							t.Fatal(err)
						}
						if i%2 == 0 {
							if err := ms[i].Run(workload.Transfer("Tx"+id, tx.Tentative, shardAcct(i), shardAcct((i+1)%n), 3)); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := s.ExecBase(workload.Deposit(fmt.Sprintf("Tb%d", round), tx.Base, shardAcct(round), 2)); err != nil {
						t.Fatal(err)
					}
					if round == 1 {
						s.AdvanceWindow()
					}
					for i, m := range ms {
						ck := token(s, Checkout{MobileID: m.ck.MobileID, WindowID: m.ck.WindowID, Pos: m.ck.Pos, Origin: m.ck.Origin})
						out, err := s.Merge(ck, m.Augmented())
						if err != nil {
							t.Fatal(err)
						}
						log += fmt.Sprintf("r%d m%d merged=%v fallback=%q saved=%d reproc=%d failed=%d\n",
							round, i, out.Merged, out.Fallback, out.Saved, out.Reprocessed, out.Failed)
					}
				}
				return log, s
			}
			wantLog, want := run(partitionedWireTokens)
			gotLog, got := run(func(_ *ShardedBase, ck Checkout) Checkout { return ck })
			if gotLog != wantLog {
				t.Errorf("wire-token outcomes differ from partitioned tokens:\n got:\n%s want:\n%s", gotLog, wantLog)
			}
			if !got.Master().Equal(want.Master()) {
				t.Errorf("master %s, want %s", got.Master(), want.Master())
			}
			if got.Counters() != want.Counters() {
				t.Errorf("counters differ:\n got  %+v\n want %+v", got.Counters(), want.Counters())
			}
		})
	}
}
