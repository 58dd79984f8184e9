package replica

import (
	"fmt"
	"sync"
	"testing"

	"tiermerge/internal/cost"
	"tiermerge/internal/expr"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for the sharded base tier: routing determinism, N=1 parity with
// the plain cluster, serial-order equivalence of concurrent sharded
// reconnects, counter parity across admission modes, cross-shard
// two-phase merges against the single-shard baseline, the window
// barrier, and an all-shards-contended deadlock smoke. The suite runs
// under -race in scripts/check.sh.

// shardFleetOrigin funds one account per mobile plus a shared priced
// item; with the default FNV router the accounts scatter across shards.
func shardFleetOrigin(n int) model.State {
	st := model.StateOf(map[model.Item]model.Value{"p": 50})
	for i := 0; i < n; i++ {
		st.Set(model.Item(fmt.Sprintf("m%d.acct", i)), 100)
	}
	return st
}

func shardAcct(i int) model.Item { return model.Item(fmt.Sprintf("m%d.acct", i)) }

// shardedDisjointFleet builds an n-mobile fleet of private deposits on a
// tier of the given shard count.
func shardedDisjointFleet(t *testing.T, shards, n int, cfg Config) (*ShardedBase, []*MobileNode) {
	t.Helper()
	s := NewShardedBase(shardFleetOrigin(n), shards, cfg)
	ms := make([]*MobileNode, n)
	for i := range ms {
		ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
		for k := 0; k < 3; k++ {
			if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Td%d.%d", i, k), tx.Tentative, shardAcct(i), 5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, ms
}

// connectAllSharded reconnects every mobile concurrently.
func connectAllSharded(t *testing.T, ms []*MobileNode) []*ConnectOutcome {
	t.Helper()
	outs := make([]*ConnectOutcome, len(ms))
	errs := make([]error, len(ms))
	var wg sync.WaitGroup
	wg.Add(len(ms))
	for i := range ms {
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = ms[i].ConnectMerge()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mobile %d: %v", i, err)
		}
	}
	return outs
}

// TestShardRouterPartition: the router is deterministic, covers every
// shard index, and honors a custom ShardFn (including one returning
// negative values, which must still land in range).
func TestShardRouterPartition(t *testing.T) {
	r := newShardRouter(4, nil)
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		it := model.Item(fmt.Sprintf("item%d", i))
		k := r.Shard(it)
		if k != r.Shard(it) {
			t.Fatalf("router not deterministic for %s", it)
		}
		if k < 0 || k >= 4 {
			t.Fatalf("shard %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 4 {
		t.Errorf("default router used %d of 4 shards over 256 items", len(seen))
	}
	neg := newShardRouter(3, func(it model.Item) int { return -1 - len(it) })
	for _, it := range []model.Item{"a", "bb", "ccc"} {
		if k := neg.Shard(it); k < 0 || k >= 3 {
			t.Errorf("negative ShardFn leaked out-of-range shard %d for %s", k, it)
		}
	}
}

// TestShardedOneShardMatchesPlainCluster: N=1 must be the plain cluster
// — same outcomes, same counters, same master, byte for byte.
func TestShardedOneShardMatchesPlainCluster(t *testing.T) {
	const n = 4
	run := func(sharded bool) (model.State, cost.Counts) {
		var ms []*MobileNode
		var master func() model.State
		var counts func() cost.Counts
		if sharded {
			s, fleet := shardedDisjointFleet(t, 1, n, Config{})
			ms, master, counts = fleet, s.Master, s.Counters
		} else {
			b := NewBaseCluster(shardFleetOrigin(n), Config{})
			for i := 0; i < n; i++ {
				m := NewMobileNode(fmt.Sprintf("m%d", i), b)
				for k := 0; k < 3; k++ {
					if err := m.Run(workload.Deposit(fmt.Sprintf("Td%d.%d", i, k), tx.Tentative, shardAcct(i), 5)); err != nil {
						t.Fatal(err)
					}
				}
				ms = append(ms, m)
			}
			master = b.Master
			counts = func() cost.Counts { return b.Counters().Snapshot() }
		}
		for _, m := range ms {
			if out, err := m.ConnectMerge(); err != nil || !out.Merged {
				t.Fatalf("connect: out=%+v err=%v", out, err)
			}
		}
		return master(), counts()
	}
	plainMaster, plainCounts := run(false)
	shardMaster, shardCounts := run(true)
	if !plainMaster.Equal(shardMaster) {
		t.Errorf("masters diverged:\nplain   %s\nsharded %s", plainMaster, shardMaster)
	}
	if plainCounts != shardCounts {
		t.Errorf("counters diverged:\nplain   %+v\nsharded %+v", plainCounts, shardCounts)
	}
}

// TestShardedConcurrentMatchesSomeSerialOrder: mobiles conflicting on the
// shared priced item reconnect concurrently against a 4-shard tier. Each
// merge spans p's shard and the mobile's account shard, so the two-phase
// cross-shard path carries the conflict — and the result must still be
// final-state-equivalent to some serial admission order.
func TestShardedConcurrentMatchesSomeSerialOrder(t *testing.T) {
	const n, shards = 3, 4
	build := func() (*ShardedBase, []*MobileNode) {
		s := NewShardedBase(shardFleetOrigin(n), shards, Config{})
		ms := make([]*MobileNode, n)
		for i := range ms {
			ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
			if err := ms[i].Run(workload.SetPrice(fmt.Sprintf("Tp%d", i), tx.Tentative, "p", model.Value(100+11*i))); err != nil {
				t.Fatal(err)
			}
			if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Td%d", i), tx.Tentative, shardAcct(i), 5)); err != nil {
				t.Fatal(err)
			}
		}
		return s, ms
	}
	var serialStates []model.State
	for _, perm := range permutations(n) {
		s, ms := build()
		for _, i := range perm {
			if _, err := ms[i].ConnectMerge(); err != nil {
				t.Fatal(err)
			}
		}
		serialStates = append(serialStates, s.Master())
	}
	for trial := 0; trial < 8; trial++ {
		s, ms := build()
		connectAllSharded(t, ms)
		if c := s.Counters(); c.CrossShardMerges == 0 {
			t.Fatalf("trial %d: conflict fleet drove no cross-shard merges", trial)
		}
		got := s.Master()
		found := false
		for _, want := range serialStates {
			if got.Equal(want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trial %d: concurrent sharded master %s matches no serial order %v",
				trial, got, serialStates)
		}
	}
}

// TestShardedCountersMatchSerialPipeline: on the disjoint fleet the
// concurrent per-shard pipelines must charge exactly what the serial path
// (MergeAttempts -1, reconnects in order) charges. The exclusions follow
// the E13/E15 convention: BaseGraphOps/BaseBackoutOps scale with the
// observed base prefix and MergeRetries describes the pipeline's shape,
// not work the serial baseline performs.
func TestShardedCountersMatchSerialPipeline(t *testing.T) {
	const n, shards = 8, 4
	run := func(attempts int, concurrent bool) cost.Counts {
		s, ms := shardedDisjointFleet(t, shards, n, Config{MergeAttempts: attempts})
		if concurrent {
			connectAllSharded(t, ms)
		} else {
			for _, m := range ms {
				if _, err := m.ConnectMerge(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s.Counters()
	}
	serial := run(-1, false)
	conc := run(0, true)
	serial.BaseGraphOps, conc.BaseGraphOps = 0, 0
	serial.BaseBackoutOps, conc.BaseBackoutOps = 0, 0
	serial.MergeRetries, conc.MergeRetries = 0, 0
	if serial != conc {
		t.Errorf("counter totals diverged:\nserial     %+v\nconcurrent %+v", serial, conc)
	}
}

// TestCrossShardMergeMatchesSingleShardBaseline: the same
// transfer-carrying fleet runs against 4 shards (two-phase cross-shard
// admission) and 1 shard (every merge under one mutex). The workload is
// additive, so the final masters must be identical whatever the
// interleaving — partitioning must never change the merged outcome.
func TestCrossShardMergeMatchesSingleShardBaseline(t *testing.T) {
	const n = 6
	build := func(shards int) (*ShardedBase, []*MobileNode) {
		s := NewShardedBase(shardFleetOrigin(n), shards, Config{})
		ms := make([]*MobileNode, n)
		for i := range ms {
			ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
			if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Td%d", i), tx.Tentative, shardAcct(i), 5)); err != nil {
				t.Fatal(err)
			}
			if err := ms[i].Run(workload.Transfer(fmt.Sprintf("Tx%d", i), tx.Tentative, shardAcct(i), shardAcct((i+1)%n), 3)); err != nil {
				t.Fatal(err)
			}
		}
		return s, ms
	}
	baseline, baseMs := build(1)
	for _, m := range baseMs {
		if out, err := m.ConnectMerge(); err != nil || !out.Merged {
			t.Fatalf("baseline connect: out=%+v err=%v", out, err)
		}
	}
	for trial := 0; trial < 4; trial++ {
		s, ms := build(4)
		outs := connectAllSharded(t, ms)
		for i, out := range outs {
			if !out.Merged {
				t.Errorf("trial %d mobile %d not merged: %+v", trial, i, out)
			}
		}
		if c := s.Counters(); c.CrossShardMerges == 0 {
			t.Errorf("trial %d: transfer fleet drove no cross-shard merges", trial)
		}
		if got, want := s.Master(), baseline.Master(); !got.Equal(want) {
			t.Errorf("trial %d: 4-shard master %s != 1-shard baseline %s", trial, got, want)
		}
	}
}

// TestCrossShardRetryAfterPrepare: the two-phase admit must detect a
// shard whose history moved between the combined prepare and the
// validate step, retry, and still land the merge with nothing lost.
func TestCrossShardRetryAfterPrepare(t *testing.T) {
	const n = 8
	s := NewShardedBase(shardFleetOrigin(n), 4, Config{})
	// Pick two accounts the router provably places on different shards.
	from, to := 0, -1
	for j := 1; j < n; j++ {
		if s.ShardOf(shardAcct(j)) != s.ShardOf(shardAcct(from)) {
			to = j
			break
		}
	}
	if to < 0 {
		t.Fatal("router put every account on one shard")
	}
	m := NewShardedMobileNode("m0", s)
	if err := m.Run(workload.Transfer("Tx0", tx.Tentative, shardAcct(from), shardAcct(to), 3)); err != nil {
		t.Fatal(err)
	}
	injected := false
	s.hookAfterPrepare = func(attempt int) {
		if !injected {
			injected = true
			if err := s.ExecBase(workload.SetPrice("Bx", tx.Base, shardAcct(from), 107)); err != nil {
				t.Error(err)
			}
		}
	}
	out, err := m.ConnectMerge()
	if err != nil || !out.Merged {
		t.Fatalf("connect: out=%+v err=%v", out, err)
	}
	if !injected {
		t.Fatal("hookAfterPrepare never fired")
	}
	c := s.Counters()
	if c.MergeRetries == 0 {
		t.Errorf("invalidated prepare charged no retry: %+v", c)
	}
	master := s.Master()
	// 107 (injected base assignment) - 3 (re-executed transfer out) and 100 + 3.
	if got := master.Get(shardAcct(from)); got != 104 {
		t.Errorf("acct %d = %d, want 104", from, got)
	}
	if got := master.Get(shardAcct(to)); got != 103 {
		t.Errorf("acct %d = %d, want 103", to, got)
	}
}

// TestCrossShardAllContendedSmoke: every mobile's merge spans every
// shard (a wide transfer chain touching one account per shard region),
// all reconnecting at once while base traffic lands. The ascending-order
// shard lock acquisition must make this complete — a deadlock here hangs
// the test run.
func TestCrossShardAllContendedSmoke(t *testing.T) {
	const n, shards = 8, 4
	s := NewShardedBase(shardFleetOrigin(n), shards, Config{})
	ms := make([]*MobileNode, n)
	for i := range ms {
		ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
		// Two transfers chained over three accounts: with n=8 accounts
		// FNV-scattered over 4 shards, the union footprint crosses shards
		// in both directions of the index order.
		a, b, c := shardAcct(i), shardAcct((i+3)%n), shardAcct((i+5)%n)
		if err := ms[i].Run(workload.Transfer(fmt.Sprintf("Tx%d a", i), tx.Tentative, a, b, 1)); err != nil {
			t.Fatal(err)
		}
		if err := ms[i].Run(workload.Transfer(fmt.Sprintf("Tx%d b", i), tx.Tentative, b, c, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Bounded base traffic: enough to race the merges' prepare windows,
	// but finite — an unthrottled flood would legitimately starve the
	// optimistic prepares on a small machine, which is not what this
	// smoke is for.
	var basewg sync.WaitGroup
	basewg.Add(1)
	go func() {
		defer basewg.Done()
		for k := 0; k < 64; k++ {
			if err := s.ExecBase(workload.Deposit(fmt.Sprintf("B%d", k), tx.Base, shardAcct(k%n), 1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	connectAllSharded(t, ms)
	basewg.Wait()
	if c := s.Counters(); c.CrossShardMerges == 0 {
		t.Errorf("contended fleet drove no cross-shard merges: %+v", c)
	}
}

// TestWindowBarrierNoMixedPrefix: a checkout racing AdvanceWindow must
// never observe a mixed-window prefix — every per-shard token inside one
// returned checkout carries the same WindowID, and successive WindowID
// reads are monotonic.
func TestWindowBarrierNoMixedPrefix(t *testing.T) {
	const n, shards, checkouts = 4, 4, 200
	s := NewShardedBase(shardFleetOrigin(n), shards, Config{})
	stop := make(chan struct{})
	var adv sync.WaitGroup
	adv.Add(1)
	go func() {
		defer adv.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.AdvanceWindow()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := 0
			for k := 0; k < checkouts; k++ {
				ck := s.CheckoutReplica(fmt.Sprintf("m%d", g))
				if len(ck.Shards) != shards {
					t.Errorf("checkout carries %d shard tokens, want %d", len(ck.Shards), shards)
					return
				}
				for i, part := range ck.Shards {
					if part.WindowID != ck.WindowID {
						t.Errorf("mixed-window checkout: shard %d token window %d, checkout window %d",
							i, part.WindowID, ck.WindowID)
						return
					}
				}
				if ck.WindowID < last {
					t.Errorf("window went backwards: %d after %d", ck.WindowID, last)
					return
				}
				last = ck.WindowID
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	adv.Wait()
}

// TestCrossShardRetryUploadParity is the cost-accounting audit for the
// two-phase cross-shard path: a reconnect whose combined prepare is
// invalidated and retried must bill the mobile's upload (set entries,
// graph edges, the mobile-side G(Hm) build) exactly once — identical to
// the single-attempt reconnect — while still recording the retry and the
// second attempt's base-side graph work. The per-attempt delta
// accumulators must not re-add the attempt-independent charges.
func TestCrossShardRetryUploadParity(t *testing.T) {
	const n = 8
	run := func(forceRetry bool) cost.Counts {
		s := NewShardedBase(shardFleetOrigin(n), 4, Config{})
		from, to := 0, -1
		for j := 1; j < n; j++ {
			if s.ShardOf(shardAcct(j)) != s.ShardOf(shardAcct(from)) {
				to = j
				break
			}
		}
		if to < 0 {
			t.Fatal("router put every account on one shard")
		}
		m := NewShardedMobileNode("m0", s)
		if err := m.Run(workload.Transfer("Tx0", tx.Tentative, shardAcct(from), shardAcct(to), 3)); err != nil {
			t.Fatal(err)
		}
		if forceRetry {
			injected := false
			s.hookAfterPrepare = func(attempt int) {
				if !injected {
					injected = true
					if err := s.ExecBase(workload.SetPrice("Bx", tx.Base, shardAcct(from), 107)); err != nil {
						t.Error(err)
					}
				}
			}
		}
		out, err := m.ConnectMerge()
		if err != nil || !out.Merged {
			t.Fatalf("connect (retry=%v): out=%+v err=%v", forceRetry, out, err)
		}
		return s.Counters()
	}
	single := run(false)
	retried := run(true)

	if single.MergeRetries != 0 || retried.MergeRetries == 0 {
		t.Fatalf("MergeRetries = %d/%d, want 0 and >0", single.MergeRetries, retried.MergeRetries)
	}
	if retried.SetEntriesSent != single.SetEntriesSent {
		t.Errorf("SetEntriesSent = %d after a cross-shard retry, want %d (upload re-billed?)",
			retried.SetEntriesSent, single.SetEntriesSent)
	}
	if retried.GraphEdgesSent != single.GraphEdgesSent {
		t.Errorf("GraphEdgesSent = %d after a cross-shard retry, want %d (upload re-billed?)",
			retried.GraphEdgesSent, single.GraphEdgesSent)
	}
	if retried.MobileGraphOps != single.MobileGraphOps {
		t.Errorf("MobileGraphOps = %d after a cross-shard retry, want %d (G(Hm) built once)",
			retried.MobileGraphOps, single.MobileGraphOps)
	}
	if retried.CrossShardMerges != 1 || single.CrossShardMerges != 1 {
		t.Errorf("CrossShardMerges = %d/%d, want 1/1", retried.CrossShardMerges, single.CrossShardMerges)
	}
	// The invalidated attempt's base-side graph work really happened: the
	// retried reconnect must bill MORE of it, not an identical total.
	if retried.BaseGraphOps <= single.BaseGraphOps {
		t.Errorf("BaseGraphOps = %d after a retried rebuild, want > %d (failed attempt's work dropped?)",
			retried.BaseGraphOps, single.BaseGraphOps)
	}
}

// TestShardSharedOriginReadOnly: Strategy 2 checkouts hand out the window
// origin by reference, so nothing on the reconnect path may write to it.
// Concurrent mobiles check out, run, and merge (shard-local and
// cross-shard) across one window advance; every origin a checkout handed
// out — the composed one and each shard's — must still hash to the digest
// it had when it was handed out. The same holds for a plain cluster.
func TestShardSharedOriginReadOnly(t *testing.T) {
	const n, rounds = 8, 12
	type handed struct {
		st     model.State
		digest string
	}
	run := func(t *testing.T, advance func(), node func(id string) *MobileNode) {
		var (
			mu   sync.Mutex
			held []handed
		)
		record := func(ck Checkout) {
			sts := []model.State{ck.Origin}
			for _, p := range ck.Shards {
				sts = append(sts, p.Origin)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, st := range sts {
				held = append(held, handed{st: st, digest: st.Digest()})
			}
		}
		var wg, half sync.WaitGroup
		wg.Add(n)
		half.Add(n)
		for g := 0; g < n; g++ {
			go func(g int) {
				defer wg.Done()
				acct := model.Item(fmt.Sprintf("m%d.acct", g))
				m := node(fmt.Sprintf("m%d", g))
				for r := 0; r < rounds; r++ {
					if r == rounds/2 {
						half.Done()
					}
					record(m.ck)
					txns := []*tx.Transaction{
						workload.Deposit(fmt.Sprintf("D%d.%d", g, r), tx.Tentative, acct, 5),
						workload.Transfer(fmt.Sprintf("X%d.%d", g, r), tx.Tentative, acct, "p", 1),
					}
					for _, tt := range txns {
						if err := m.Run(tt); err != nil {
							t.Error(err)
							return
						}
					}
					if _, err := m.ConnectMerge(); err != nil {
						t.Error(err)
						return
					}
				}
				record(m.ck)
			}(g)
		}
		half.Wait()
		advance()
		wg.Wait()
		for i, h := range held {
			if got := h.st.Digest(); got != h.digest {
				t.Fatalf("handed-out origin %d was mutated: digest %s, handed out as %s", i, got, h.digest)
			}
		}
	}
	t.Run("sharded", func(t *testing.T) {
		s := NewShardedBase(shardFleetOrigin(n), 2, Config{})
		run(t, func() { s.AdvanceWindow() }, func(id string) *MobileNode { return NewShardedMobileNode(id, s) })
	})
	t.Run("plain", func(t *testing.T) {
		b := NewBaseCluster(shardFleetOrigin(n), Config{})
		run(t, func() { b.AdvanceWindow() }, func(id string) *MobileNode { return NewMobileNode(id, b) })
	})
}

// xyzShard places x on shard 0, y on shard 1 and z on shard 2 (shard 0 of
// a two-shard tier); every other item lands on shard 1.
func xyzShard(it model.Item) int {
	switch it {
	case "x":
		return 0
	case "z":
		return 2
	}
	return 1
}

// guardedBump is the conditional the re-execution tests back out: while
// x >= 50 it takes 10 from x (and, with withZ, adds 1 to z); otherwise it
// adds 1 to y. Run tentatively against x = 100 it touches only x (and z);
// re-executed after a base x := 10 it writes y, which lives on another
// shard than everything the tentative run touched.
func guardedBump(id string, withZ bool) *tx.Transaction {
	then := []tx.Stmt{tx.Update("x", expr.Sub(expr.Var("x"), expr.Const(10)))}
	if withZ {
		then = append(then, tx.Update("z", expr.Add(expr.Var("z"), expr.Const(1))))
	}
	return tx.MustNew(id, tx.Tentative, tx.IfElse(
		expr.GE(expr.Var("x"), expr.Const(50)),
		then,
		[]tx.Stmt{tx.Update("y", expr.Add(expr.Var("y"), expr.Const(1)))},
	))
}

// checkShardOwnership fails when some shard's master holds an item its
// router places elsewhere.
func checkShardOwnership(t *testing.T, s *ShardedBase) {
	t.Helper()
	for k := 0; k < s.Shards(); k++ {
		for it, v := range s.Shard(k).Master() {
			if owner := s.ShardOf(it); owner != k {
				t.Errorf("shard %d master holds %s=%d, which shard %d owns", k, it, v, owner)
			}
		}
	}
}

// TestShardReexecutionWritesOwningShard: a shard-local reconnect whose
// backed-out transaction, re-executed at the base, takes the branch that
// writes another shard's item must install that write on the owning
// shard. Three entry points re-execute it — the routed merge, the
// window-expired fallback and Reprocess — and each must land on the
// master a one-shard tier computes, with no shard holding a foreign item.
func TestShardReexecutionWritesOwningShard(t *testing.T) {
	cases := []struct {
		name    string
		connect func(t *testing.T, s *ShardedBase, m *MobileNode)
	}{
		{"routed-merge", func(t *testing.T, s *ShardedBase, m *MobileNode) {
			out, err := m.ConnectMerge()
			if err != nil || !out.Merged || out.Reprocessed != 1 {
				t.Fatalf("connect: out=%+v err=%v", out, err)
			}
		}},
		{"window-expired-fallback", func(t *testing.T, s *ShardedBase, m *MobileNode) {
			s.AdvanceWindow()
			out, err := m.ConnectMerge()
			if err != nil || out.Fallback != FallbackWindowExpired || out.Reprocessed != 1 {
				t.Fatalf("connect: out=%+v err=%v", out, err)
			}
		}},
		{"reprocess", func(t *testing.T, s *ShardedBase, m *MobileNode) {
			if out := m.ConnectReprocess(); out.Reprocessed != 1 {
				t.Fatalf("reprocess: out=%+v", out)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(shards int) *ShardedBase {
				s := NewShardedBase(model.StateOf(map[model.Item]model.Value{"x": 100, "y": 100}),
					shards, Config{ShardFn: xyzShard})
				m := NewShardedMobileNode("m1", s)
				if err := m.Run(guardedBump("T1", false)); err != nil {
					t.Fatal(err)
				}
				if err := s.ExecBase(workload.SetPrice("Bx", tx.Base, "x", 10)); err != nil {
					t.Fatal(err)
				}
				c.connect(t, s, m)
				return s
			}
			one, two := run(1), run(2)
			if got := one.Master().Get("y"); got != 101 {
				t.Fatalf("one-shard baseline y = %d, want 101", got)
			}
			if got, want := two.Master(), one.Master(); !got.Equal(want) {
				t.Errorf("2-shard master %s != 1-shard master %s", got, want)
			}
			checkShardOwnership(t, two)
		})
	}
}

// TestCrossShardReexecutionLocksEveryOwner: a cross-shard merge (x on
// shard 0, z on shard 2) backs out a transaction whose re-execution reads
// x and writes y on shard 1, while base transactions keep committing to
// another item of shard 1. The re-execution must hold shard 1 like every
// other shard it touches — the race detector reports the unguarded read
// and append otherwise — and every re-executed write must land.
func TestCrossShardReexecutionLocksEveryOwner(t *testing.T) {
	const n = 6
	s := NewShardedBase(model.StateOf(map[model.Item]model.Value{"x": 100, "y": 100, "z": 100, "w": 100}),
		3, Config{ShardFn: xyzShard})
	ms := make([]*MobileNode, n)
	for i := range ms {
		ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
		if err := ms[i].Run(guardedBump(fmt.Sprintf("T%d", i), true)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ExecBase(workload.SetPrice("Bx", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	deposits := 0
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.ExecBase(workload.Deposit(fmt.Sprintf("Bw%d", deposits), tx.Base, "w", 1)); err != nil {
				t.Error(err)
				return
			}
			deposits++
		}
	}()
	for i, m := range ms {
		out, err := m.ConnectMerge()
		if err != nil || !out.Merged || out.Reprocessed != 1 {
			t.Errorf("mobile %d: out=%+v err=%v", i, out, err)
		}
	}
	close(stop)
	wg.Wait()
	master := s.Master()
	if got := master.Get("y"); got != 100+n {
		t.Errorf("y = %d, want %d (one re-executed bump per mobile)", got, 100+n)
	}
	if got := master.Get("w"); got != model.Value(100+deposits) {
		t.Errorf("w = %d, want %d", got, 100+deposits)
	}
	if c := s.Counters(); c.CrossShardMerges != n {
		t.Errorf("CrossShardMerges = %d, want %d", c.CrossShardMerges, n)
	}
	checkShardOwnership(t, s)
}

// TestCrossShardSerialTraceParity: the serial round emits the prepare
// sub-phase events of a cross-shard merge exactly as it does for a
// single-shard one — buffered under the shard mutexes and flushed after.
func TestCrossShardSerialTraceParity(t *testing.T) {
	subPhases := map[obs.Phase]bool{
		obs.PhaseGraph: true, obs.PhaseBackout: true, obs.PhaseRewrite: true, obs.PhasePrune: true,
	}
	run := func(shards int) map[obs.Phase]int {
		var mu sync.Mutex
		seen := make(map[obs.Phase]int)
		o := obs.ObserverFunc(func(ev obs.Event) {
			if subPhases[ev.Phase] {
				mu.Lock()
				seen[ev.Phase]++
				mu.Unlock()
			}
		})
		s := NewShardedBase(model.StateOf(map[model.Item]model.Value{"x": 100, "y": 100}),
			shards, Config{MergeAttempts: -1, Observer: o, ShardFn: xyzShard})
		m := NewShardedMobileNode("m1", s)
		if err := m.Run(workload.Transfer("T1", tx.Tentative, "x", "y", 5)); err != nil {
			t.Fatal(err)
		}
		if err := s.ExecBase(workload.SetPrice("Bx", tx.Base, "x", 70)); err != nil {
			t.Fatal(err)
		}
		if out, err := m.ConnectMerge(); err != nil || !out.Merged {
			t.Fatalf("%d shards: connect: out=%+v err=%v", shards, out, err)
		}
		if shards > 1 {
			if c := s.Counters(); c.CrossShardMerges != 1 {
				t.Fatalf("%d shards: CrossShardMerges = %d, want 1", shards, c.CrossShardMerges)
			}
		}
		return seen
	}
	one, two := run(1), run(2)
	for ph := range subPhases {
		if one[ph] == 0 {
			t.Errorf("single-shard serial merge emitted no %s event", ph)
		}
		if one[ph] != two[ph] {
			t.Errorf("%s events: single-shard %d, cross-shard %d", ph, one[ph], two[ph])
		}
	}
}
