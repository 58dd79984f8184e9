package main

import (
	"fmt"
	"sort"

	"tiermerge"
)

// Correctness checks every run makes before it reports a number. A
// failed check ends the run with a non-zero exit and no result line.

func sumState(s tiermerge.State) tiermerge.Value {
	var sum tiermerge.Value
	for _, v := range s {
		sum += v
	}
	return sum
}

// checkConservation holds on Deposit/Transfer-only workloads: transfers
// move value between items and deposits add their amount, so the master
// must sum to the origin's sum plus every deposit that ran.
func checkConservation(origin, master tiermerge.State, deposits tiermerge.Value) error {
	want := sumState(origin) + deposits
	if got := sumState(master); got != want {
		return fmt.Errorf("conservation: master sums to %d, want %d (origin %d + deposits %d)",
			got, want, sumState(origin), deposits)
	}
	return nil
}

// checkDurable compares the master read before the store was closed with
// the master a reopen recovered.
func checkDurable(before, after tiermerge.State) error {
	if before.Equal(after) {
		return nil
	}
	diff := before.Diff(after)
	items := make([]string, 0, len(diff))
	for it := range diff {
		items = append(items, string(it))
	}
	sort.Strings(items)
	if len(items) > 5 {
		items = append(items[:5], "...")
	}
	return fmt.Errorf("durability: recovered master differs from the master before close in %d items %v",
		len(diff), items)
}

// checkAccounting holds for every reconnect: each shipped tentative
// transaction is saved by the merge, re-executed, or reported failed.
func checkAccounting(out *tiermerge.ConnectOutcome, shipped int) error {
	if got := out.Saved + out.Reprocessed + out.Failed; got != shipped {
		return fmt.Errorf("accounting: saved %d + reprocessed %d + failed %d = %d, shipped %d",
			out.Saved, out.Reprocessed, out.Failed, got, shipped)
	}
	return nil
}
