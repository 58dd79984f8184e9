package main

import (
	"fmt"
	"math/rand"

	"tiermerge"
)

// spec is one named workload: the tier's shape, what each reconnect
// carries, and the count-driven window and checkpoint cadence.
type spec struct {
	name string
	why  string
	// shards is the durable tier's shard count; 1 opens a plain OpenBase
	// cluster, more an OpenShardedBase tier.
	shards int
	items  int
	// tentative transactions a mobile runs before each reconnect, and base
	// transactions its driver commits through ExecBase right after it.
	tentative, base int
	// window and checkpoint are the reconnect counts between
	// AdvanceWindow and Checkpoint calls.
	window, checkpoint int
	// gen draws one transaction of the workload's mix.
	gen func(r *rand.Rand, id string, kind tiermerge.Kind, items []tiermerge.Item) *tiermerge.Transaction
	// conserving marks a Deposit/Transfer-only mix, where the master's sum
	// must equal the origin's sum plus every deposit.
	conserving bool
	// warmup reconnects run before measuring; tail reconnects run after a
	// final window advance and checkpoint, so the log a recovery replays
	// has the same length on every run.
	warmup, tail int
}

// fleet is the number of logical mobiles each driver round-robins over.
const fleet = 8

// initialValue is every item's value in the origin state.
const initialValue = 1000

var workloads = []spec{
	{
		name: "long-disconnect",
		why: "long tentative histories against a busy base make G(Hm,Hb) large and give real back-outs, " +
			"so the merge algorithm dominates and saved_frac is informative",
		shards: 1, items: 256, tentative: 32, base: 4,
		window: 64, checkpoint: 256,
		gen:    mixedTxn,
		warmup: 64, tail: 32,
	},
	{
		name: "checkout-large",
		why: "every checkout and merge journal carries a 4096-item origin while delta deposits keep the graph " +
			"trivial, so frame encode/decode dominates",
		shards: 2, items: 4096, tentative: 2, base: 1,
		window: 256, checkpoint: 1024,
		gen:        deposit,
		conserving: true,
		warmup:     64, tail: 32,
	},
	{
		name: "sync-small",
		why: "one-transaction reconnects over 64 items with cross-shard transfers, so per-commit fsync, " +
			"the two-phase shard admit and checkpoint rotation dominate",
		shards: 2, items: 64, tentative: 1, base: 2,
		window: 64, checkpoint: 1024,
		gen:        depositTransferTxn,
		conserving: true,
		warmup:     256, tail: 128,
	},
}

func lookupWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// itemNames returns the workload's item universe.
func itemNames(n int) []tiermerge.Item {
	out := make([]tiermerge.Item, n)
	for i := range out {
		out[i] = tiermerge.Item(fmt.Sprintf("x%04d", i))
	}
	return out
}

// originState gives every item initialValue.
func originState(items []tiermerge.Item) tiermerge.State {
	s := tiermerge.NewState()
	for _, it := range items {
		s.Set(it, initialValue)
	}
	return s
}

func pick(r *rand.Rand, items []tiermerge.Item) tiermerge.Item {
	return items[r.Intn(len(items))]
}

// pickPair returns two distinct items.
func pickPair(r *rand.Rand, items []tiermerge.Item) (tiermerge.Item, tiermerge.Item) {
	i := r.Intn(len(items))
	j := r.Intn(len(items) - 1)
	if j >= i {
		j++
	}
	return items[i], items[j]
}

func deposit(r *rand.Rand, id string, kind tiermerge.Kind, items []tiermerge.Item) *tiermerge.Transaction {
	return tiermerge.Deposit(id, kind, pick(r, items), tiermerge.Value(1+r.Intn(100)))
}

func transfer(r *rand.Rand, id string, kind tiermerge.Kind, items []tiermerge.Item) *tiermerge.Transaction {
	from, to := pickPair(r, items)
	return tiermerge.Transfer(id, kind, from, to, tiermerge.Value(1+r.Intn(50)))
}

// depositTransferTxn is 70% Deposit, 30% Transfer.
func depositTransferTxn(r *rand.Rand, id string, kind tiermerge.Kind, items []tiermerge.Item) *tiermerge.Transaction {
	if r.Intn(10) < 7 {
		return deposit(r, id, kind, items)
	}
	return transfer(r, id, kind, items)
}

// mixedTxn is 80% Deposit/Transfer and 20% overwrites and non-commuting
// updates (SetPrice, AccrueInterest, Restock) that make cycles.
func mixedTxn(r *rand.Rand, id string, kind tiermerge.Kind, items []tiermerge.Item) *tiermerge.Transaction {
	switch n := r.Intn(20); {
	case n < 8:
		return deposit(r, id, kind, items)
	case n < 16:
		return transfer(r, id, kind, items)
	case n < 17:
		return tiermerge.SetPrice(id, kind, pick(r, items), tiermerge.Value(500+r.Intn(1000)))
	case n < 19:
		return tiermerge.AccrueInterest(id, kind, pick(r, items), tiermerge.Value(50+r.Intn(50)))
	default:
		return tiermerge.Restock(id, kind, pick(r, items), tiermerge.Value(500+r.Intn(1000)))
	}
}

// depositAmount returns the amount a Deposit adds, or 0 for any other
// transaction; the conservation check sums it over everything committed.
func depositAmount(t *tiermerge.Transaction) tiermerge.Value {
	if t.Type != "deposit" {
		return 0
	}
	return t.Params["amt"]
}
