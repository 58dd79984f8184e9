package main

import (
	"strings"
	"testing"

	"tiermerge"
)

func state(vals ...tiermerge.Value) tiermerge.State {
	s := tiermerge.NewState()
	for i, v := range vals {
		s.Set(itemNames(len(vals))[i], v)
	}
	return s
}

func TestConservationAcceptsDepositsAndTransfers(t *testing.T) {
	origin := state(100, 100, 100)
	// +30 deposited into the first item, 20 transferred from the second
	// to the third.
	master := state(130, 80, 120)
	if err := checkConservation(origin, master, 30); err != nil {
		t.Fatal(err)
	}
}

func TestConservationRejectsTamperedMaster(t *testing.T) {
	origin := state(100, 100, 100)
	master := state(130, 80, 121)
	err := checkConservation(origin, master, 30)
	if err == nil || !strings.Contains(err.Error(), "conservation") {
		t.Fatalf("tampered master passed the conservation check (err %v)", err)
	}
}

func TestDurabilityRejectsTamperedMaster(t *testing.T) {
	before := state(130, 80, 120)
	if err := checkDurable(before, before.Clone()); err != nil {
		t.Fatalf("identical masters failed the durability check: %v", err)
	}
	after := before.Clone()
	after.Set(itemNames(3)[1], 81)
	err := checkDurable(before, after)
	if err == nil || !strings.Contains(err.Error(), "x0001") {
		t.Fatalf("tampered master passed the durability check or was not named (err %v)", err)
	}
	lost := before.Clone()
	delete(lost, itemNames(3)[2])
	if checkDurable(before, lost) == nil {
		t.Fatal("a master missing an item passed the durability check")
	}
}

func TestAccountingCoversEveryShippedTransaction(t *testing.T) {
	ok := &tiermerge.ConnectOutcome{Saved: 20, Reprocessed: 10, Failed: 2}
	if err := checkAccounting(ok, 32); err != nil {
		t.Fatal(err)
	}
	if err := checkAccounting(ok, 33); err == nil {
		t.Fatal("an outcome missing a shipped transaction passed the accounting check")
	}
}

func TestDepositAmountCountsOnlyDeposits(t *testing.T) {
	it := itemNames(2)
	if got := depositAmount(tiermerge.Deposit("d", tiermerge.Base, it[0], 7)); got != 7 {
		t.Errorf("deposit amount = %d, want 7", got)
	}
	if got := depositAmount(tiermerge.Transfer("t", tiermerge.Base, it[0], it[1], 7)); got != 0 {
		t.Errorf("transfer counted as a deposit of %d", got)
	}
}
