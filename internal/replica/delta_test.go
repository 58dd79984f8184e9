package replica

import (
	"fmt"
	"testing"

	"tiermerge/internal/cost"
	"tiermerge/internal/expr"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Serial-order equivalence tests for delta-merge semantics: every scenario
// runs twice — once with commutative increments merged as first-class
// deltas (the default) and once with merge.Options.DisableDeltas pinning
// the seed's value-write behavior — and the final masters must be
// identical. The delta arm must get there with edge elision and without
// back-outs where the value arm reprocesses. The suite runs under -race in
// scripts/check.sh, so the concurrent arms double as data-race probes.

// counterFleet builds n mobiles that all deposit into the shared account
// "s" (the contended counter) and into a private account each.
func counterFleet(t *testing.T, n int, opts merge.Options) (*BaseCluster, []*MobileNode) {
	t.Helper()
	b := NewBaseCluster(fleetOrigin(), Config{MergeOptions: opts})
	ms := make([]*MobileNode, n)
	for i := range ms {
		ms[i] = NewMobileNode(fmt.Sprintf("m%d", i), b)
		for k := 0; k < 2; k++ {
			if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Ts%d.%d", i, k), tx.Tentative, "s", model.Value(1+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Ta%d", i), tx.Tentative, model.Item(fmt.Sprintf("a%d", i)), 5)); err != nil {
			t.Fatal(err)
		}
	}
	return b, ms
}

// TestDeltaMergeMatchesValueWrites: a contended counter fleet reconnecting
// concurrently must land on the identical master with
// and without delta semantics. The delta arm saves every increment with no
// back-outs and elides the delta-delta conflict edges; the value arm pays
// for the same outcome with reprocessing.
func TestDeltaMergeMatchesValueWrites(t *testing.T) {
	const n = 6
	run := func(disable bool) (model.State, int64, int64, int64, int) {
		b, ms := counterFleet(t, n, merge.Options{DisableDeltas: disable})
		outs := connectAll(b, ms, t)
		reproc := 0
		for _, o := range outs {
			reproc += o.Reprocessed
		}
		c := b.Counters().Snapshot()
		return b.Master(), c.TxnsBackedOut, c.EdgesElided, c.DeltaFolded, reproc
	}
	valueMaster, valueBackouts, valueElided, valueFolded, _ := run(true)
	deltaMaster, deltaBackouts, deltaElided, deltaFolded, deltaReproc := run(false)

	if !valueMaster.Equal(deltaMaster) {
		t.Errorf("masters diverged:\nvalue %s\ndelta %s", valueMaster, deltaMaster)
	}
	if valueElided != 0 || valueFolded != 0 {
		t.Errorf("DisableDeltas arm still elided %d edges / folded %d deltas", valueElided, valueFolded)
	}
	if deltaBackouts != 0 || deltaReproc != 0 {
		t.Errorf("delta arm backed out %d / reprocessed %d, want all increments saved",
			deltaBackouts, deltaReproc)
	}
	if valueBackouts == 0 {
		t.Error("value arm saw no back-outs — the counter was not contended enough to prove anything")
	}
	if deltaElided == 0 {
		t.Error("delta arm elided no edges on a contended counter")
	}
	if deltaFolded == 0 {
		t.Error("delta arm folded no increments (two same-item deposits per mobile)")
	}
}

// TestDeltaShardedMatchesValueWrites: the same equivalence over a 4-shard
// tier with cross-shard transfers — the two-phase admit must fold and
// elide deltas exactly like the single-shard pipeline, and partitioning
// must not change the merged outcome in either arm.
func TestDeltaShardedMatchesValueWrites(t *testing.T) {
	const n, shards = 6, 4
	run := func(disable bool) (model.State, cost.Counts) {
		s := NewShardedBase(shardFleetOrigin(n), shards, Config{
			MergeOptions: merge.Options{DisableDeltas: disable},
		})
		ms := make([]*MobileNode, n)
		for i := range ms {
			ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
			next := (i + 1) % n
			if err := ms[i].Run(workload.Transfer(fmt.Sprintf("Tx%d", i), tx.Tentative,
				shardAcct(i), shardAcct(next), 3)); err != nil {
				t.Fatal(err)
			}
		}
		connectAllSharded(t, ms)
		return s.Master(), s.Counters()
	}
	valueMaster, _ := run(true)
	deltaMaster, deltaCounts := run(false)

	if !valueMaster.Equal(deltaMaster) {
		t.Errorf("masters diverged:\nvalue %s\ndelta %s", valueMaster, deltaMaster)
	}
	var total model.Value
	for i := 0; i < n; i++ {
		total += deltaMaster.Get(shardAcct(i))
	}
	if total != model.Value(n*100) {
		t.Errorf("transfer ring lost money: total %d, want %d", total, n*100)
	}
	if deltaCounts.CrossShardMerges == 0 {
		t.Error("transfer ring drove no cross-shard merges")
	}
	if deltaCounts.TxnsBackedOut != 0 {
		t.Errorf("delta arm backed out %d commuting transfers", deltaCounts.TxnsBackedOut)
	}
}

// TestDeltaForcedRetryEquivalence: a reconnect forced through a re-prepare
// (a base assignment to a watched item lands between prepare and admit)
// must still merge its increments as deltas on the retried attempt, and
// the final master must match the DisableDeltas arm exactly.
func TestDeltaForcedRetryEquivalence(t *testing.T) {
	run := func(disable bool) (model.State, cost.Counts) {
		b := NewBaseCluster(fleetOrigin(), Config{
			MergeOptions: merge.Options{DisableDeltas: disable},
		})
		m := NewMobileNode("m0", b)
		// Watch the price, then deposit twice: footprint {p, s}.
		watchDeposit := func(id string) *tx.Transaction {
			return tx.MustNew(id, tx.Tentative,
				tx.Read("p"),
				tx.Update("s", expr.Add(expr.Var("s"), expr.Const(5))),
			).WithType("depwatch")
		}
		for k := 0; k < 2; k++ {
			if err := m.Run(watchDeposit(fmt.Sprintf("Td%d", k))); err != nil {
				t.Fatal(err)
			}
		}
		injected := false
		b.hookAfterPrepare = func(attempt int) {
			if !injected {
				injected = true
				if err := b.ExecBase(workload.SetPrice("Bp", tx.Base, "p", 77)); err != nil {
					t.Error(err)
				}
			}
		}
		out, err := m.ConnectMerge()
		if err != nil || !out.Merged {
			t.Fatalf("connect (disable=%v): out=%+v err=%v", disable, out, err)
		}
		if !injected {
			t.Fatal("hookAfterPrepare never fired")
		}
		return b.Master(), b.Counters().Snapshot()
	}
	valueMaster, valueCounts := run(true)
	deltaMaster, deltaCounts := run(false)

	if !valueMaster.Equal(deltaMaster) {
		t.Errorf("masters diverged:\nvalue %s\ndelta %s", valueMaster, deltaMaster)
	}
	if valueCounts.MergeRetries == 0 || deltaCounts.MergeRetries == 0 {
		t.Fatalf("retries = %d/%d, want both arms forced through a re-prepare",
			valueCounts.MergeRetries, deltaCounts.MergeRetries)
	}
	if deltaCounts.EdgesElided == 0 || deltaCounts.DeltaFolded == 0 {
		t.Errorf("retried delta merge elided %d / folded %d, want both > 0",
			deltaCounts.EdgesElided, deltaCounts.DeltaFolded)
	}
	if got := deltaMaster.Get("s"); got != 110 {
		t.Errorf("s = %d, want 110 (two deposits of 5)", got)
	}
}
