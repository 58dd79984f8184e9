//go:build !race

package replica

import (
	"fmt"
	"runtime"
	"testing"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// The reconnect path must not copy whole database states beyond the one
// working replica each side needs. These guards measure heap bytes per
// operation against a 4096-item Strategy 2 origin and require each step to
// stay below an eighth of one State.Clone of that origin — a step that
// copies the origin (or materializes a base state per entry) fails at once.
// The race detector instruments allocations, so the guards build without it.

const allocItems = 4096

// allocOrigin builds the 4096-item origin the guards run against.
func allocOrigin() model.State {
	s := make(model.State, allocItems)
	for i := 0; i < allocItems; i++ {
		s[model.Item(fmt.Sprintf("i%04d", i))] = 1000
	}
	return s
}

// bytesPerOp returns the heap bytes f allocates per call, averaged over n
// calls.
func bytesPerOp(n int, f func(i int)) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

var allocSink model.State

func TestReconnectPathAllocations(t *testing.T) {
	const n = 200
	origin := allocOrigin()
	budget := bytesPerOp(20, func(int) { allocSink = origin.Clone() }) / 8
	allocSink = nil
	deposits := func(kind tx.Kind, prefix string) []*tx.Transaction {
		ts := make([]*tx.Transaction, n)
		for i := range ts {
			ts[i] = workload.Deposit(fmt.Sprintf("%s%d", prefix, i), kind, model.Item(fmt.Sprintf("i%04d", i%64)), 1)
		}
		return ts
	}
	check := func(name string, got uint64) {
		t.Helper()
		if got >= budget {
			t.Errorf("%s allocates %d B/op, budget %d B/op (1/8 of one origin Clone)", name, got, budget)
		} else {
			t.Logf("%s: %d B/op (budget %d)", name, got, budget)
		}
	}

	b := NewBaseCluster(origin, Config{})
	m := NewMobileNode("m1", b)
	tent := deposits(tx.Tentative, "T")
	check("MobileNode.Run", bytesPerOp(n, func(i int) {
		if err := m.Run(tent[i]); err != nil {
			t.Fatal(err)
		}
	}))

	b.CheckoutReplica("m2") // computes the window's origin id once
	check("BaseCluster re-checkout", bytesPerOp(n, func(int) { b.CheckoutReplica("m2") }))

	s := NewShardedBase(origin, 2, Config{})
	s.CheckoutReplica("m3")
	check("ShardedBase re-checkout", bytesPerOp(n, func(int) { s.CheckoutReplica("m3") }))

	base := deposits(tx.Base, "B")
	check("ExecBase+baseAugmented", bytesPerOp(n, func(i int) {
		if err := b.ExecBase(base[i]); err != nil {
			t.Fatal(err)
		}
		b.mu.Lock()
		b.baseAugmented(0)
		b.mu.Unlock()
	}))

	// A reconnect whose one tentative price change conflicts with a base
	// one: the merge backs it out and re-executes it at the base, which
	// must read only the items it touches, not copy the 4096-item master.
	// The mobile side stays out of the measurement: the mobiles are built
	// beforehand, and each history's origin and final state are cut down
	// to the one item it touches, because pruning folds over the mobile's
	// final state. Each reconnect prices its own item, and few of them
	// keep the base history, which every merge's graph spans, short.
	const nMerge = 8
	rb := NewBaseCluster(origin, Config{})
	cks := make([]Checkout, nMerge)
	hms := make([]*history.Augmented, nMerge)
	basePrices := make([]*tx.Transaction, nMerge)
	for i := range hms {
		it := model.Item(fmt.Sprintf("i%04d", i))
		m := NewMobileNode(fmt.Sprintf("r%d", i), rb)
		if err := m.Run(workload.SetPrice(fmt.Sprintf("Tp%d", i), tx.Tentative, it, model.Value(i))); err != nil {
			t.Fatal(err)
		}
		aug := m.Augmented()
		cks[i] = m.ck
		hms[i] = &history.Augmented{
			H:          aug.H,
			Effects:    aug.Effects,
			Origin:     model.StateOf(map[model.Item]model.Value{it: aug.Origin.Get(it)}),
			FinalState: model.StateOf(map[model.Item]model.Value{it: aug.FinalState.Get(it)}),
		}
		basePrices[i] = workload.SetPrice(fmt.Sprintf("Bp%d", i), tx.Base, it, model.Value(500+i))
	}
	check("Merge with re-execution", bytesPerOp(nMerge, func(i int) {
		if err := rb.ExecBase(basePrices[i]); err != nil {
			t.Fatal(err)
		}
		out, err := rb.Merge(cks[i], hms[i])
		if err != nil || out.Reprocessed != 1 {
			t.Fatalf("merge %d: out=%+v err=%v", i, out, err)
		}
	}))
}
