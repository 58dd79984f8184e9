package replica

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"tiermerge/internal/cost"
	"tiermerge/internal/expr"
	"tiermerge/internal/history"
	"tiermerge/internal/lockmgr"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
)

// Sharded base tier. A single BaseCluster funnels every merge through one
// cluster mutex — the scalability ceiling E13/E15 measure. ShardedBase
// partitions the item space across N BaseCluster shards, each with its own
// mutex, window clock, base history, WAL journal and cost counters. A
// merge whose footprint lives in one partition runs entirely on that
// shard — prepare, extend, admission — with zero cross-shard
// coordination, so disjoint
// merges on different shards share nothing at all. The rare cross-shard
// merge runs a two-phase admit (DESIGN.md §11):
//
//  1. snapshot each involved shard's prefix and combine them into one
//     serial base view, deduplicating previously installed cross-shard
//     transactions into their global identity (full footprint) so cycles
//     spanning partitions stay detectable;
//  2. prepare lock-free against the combined view (the unchanged
//     prepareMerge machinery);
//  3. admit: acquire the involved shards' item locks, then their cluster
//     mutexes in ascending shard order — one global order, so cross-shard
//     admits can never deadlock each other — revalidate every shard's
//     prefix, and install atomically across all of them or retry.
//
// Cross-shard installed transactions are stored per shard as restricted
// slices (this shard's reads and writes only) sharing one *crossTxn
// identity: restricted views are exact for single-shard merges (their
// conflicts with the transaction can only involve this shard's items),
// and the combined view is exact for cross-shard merges.

// ShardRouter maps items to shards: an explicit Config.ShardFn when one is
// configured, FNV-1a hashing of the item name otherwise.
type ShardRouter struct {
	n  int
	fn func(model.Item) int
}

func newShardRouter(n int, fn func(model.Item) int) ShardRouter {
	return ShardRouter{n: n, fn: fn}
}

// Shards returns the shard count.
func (r ShardRouter) Shards() int { return r.n }

// Shard returns the shard owning item it.
func (r ShardRouter) Shard(it model.Item) int {
	if r.fn != nil {
		k := r.fn(it) % r.n
		if k < 0 {
			k += r.n
		}
		return k
	}
	h := uint32(2166136261)
	for i := 0; i < len(it); i++ {
		h ^= uint32(it[i])
		h *= 16777619
	}
	return int(h % uint32(r.n))
}

// shardsOf returns the sorted distinct shards owning the items of set.
func (r ShardRouter) shardsOf(set model.ItemSet) []int {
	hit := make([]bool, r.n)
	for it := range set {
		hit[r.Shard(it)] = true
	}
	var out []int
	for k, h := range hit {
		if h {
			out = append(out, k)
		}
	}
	return out
}

// ShardedBase coordinates N BaseCluster shards behind the BaseCluster
// connect surface (CheckoutReplica / Merge / Reprocess / Preview /
// ExecBase / AdvanceWindow). With one shard every call delegates straight
// to the underlying cluster — the N=1 configuration is byte-for-byte a
// plain BaseCluster.
//
// Invariant: the per-shard window clocks advance only through
// ShardedBase.AdvanceWindow (the window barrier); calling AdvanceWindow on
// an individual shard of a multi-shard tier breaks the all-shards-agree
// window invariant checkouts rely on.
type ShardedBase struct {
	cfg    Config
	router ShardRouter
	shards []*BaseCluster

	// windowVer is the window barrier: a seqlock-style version counter,
	// odd while an advance is sweeping the shards. Checkouts and window
	// reads retry around in-progress advances, so a checkout never
	// observes shard A in the new window and shard B still in the old one
	// (the mixed-window prefix AdvanceWindow's doc warns about). A mutex
	// cannot play this role: the per-shard calls the barrier spans are
	// locks(none) operations, which the lock discipline forbids under a
	// held mutex.
	windowVer atomic.Int64

	// origin caches the composed multi-shard window origin under its
	// composed OriginID, so same-window checkouts share one map instead of
	// each composing the shards' origins afresh. Like a shard's window
	// origin it is never mutated; a new id installs a new map.
	origin atomic.Pointer[composedOrigin]

	// crossSeq numbers cross-shard forwarded-update transactions; the
	// "XU" namespace keeps their IDs disjoint from every shard's own
	// "U<mobile>.<seq>" forward transactions.
	crossSeq atomic.Int64

	// hookAfterPrepare mirrors BaseCluster.hookAfterPrepare for the
	// cross-shard pipeline: tests use it to commit base transactions
	// between a cross-shard attempt's prepare and admit phases.
	hookAfterPrepare func(attempt int)
}

// NewShardedBase builds a sharded base tier over the initial master state,
// partitioned across shards clusters by cfg.ShardFn (or the default hash
// router). It panics when cfg fails validation or shards < 1, like
// NewBaseCluster.
func NewShardedBase(initial model.State, shards int, cfg Config) *ShardedBase {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("replica: NewShardedBase: %v", err))
	}
	if shards < 1 {
		panic(fmt.Sprintf("replica: NewShardedBase: %d shards (want >= 1)", shards))
	}
	cfg = cfg.withDefaults()
	s := &ShardedBase{cfg: cfg, router: newShardRouter(shards, cfg.ShardFn)}
	s.shards = make([]*BaseCluster, shards)
	if shards == 1 {
		// Byte-for-byte the unsharded behavior: no observer wrapping, no
		// partitioning.
		s.shards[0] = NewBaseCluster(initial, cfg)
		return s
	}
	parts := make([]model.State, shards)
	for k := range parts {
		parts[k] = model.NewState()
	}
	for it, v := range initial {
		parts[s.router.Shard(it)].Set(it, v)
	}
	for k := range s.shards {
		scfg := cfg
		scfg.Observer = shardObserver(cfg.Observer, k+1)
		// A storage engine materializes full states from its version
		// chains, so shards cannot share one: each gets its own in-memory
		// engine over its partition. Durable sharded tiers open per-shard
		// disk engines through OpenShardedBase.
		scfg.Store = nil
		s.shards[k] = NewBaseCluster(parts[k], scfg)
	}
	return s
}

// OpenShardedBase opens (or recovers) a durable sharded base tier rooted
// at dir: shard k's segment log and version chains live under
// dir/shard-<k>. Each shard recovers independently through OpenBase; the
// per-shard recoveries are returned in shard order. Shard counts must
// match across restarts — the router's partition is part of the on-disk
// contract.
func OpenShardedBase(dir string, initial model.State, shards int, cfg Config) (*ShardedBase, []*Recovery, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, fmt.Errorf("replica: open sharded base: %w", err)
	}
	if shards < 1 {
		return nil, nil, fmt.Errorf("%w: %d shards (want >= 1)", ErrBadConfig, shards)
	}
	cfg = cfg.withDefaults()
	s := &ShardedBase{cfg: cfg, router: newShardRouter(shards, cfg.ShardFn)}
	s.shards = make([]*BaseCluster, shards)
	parts := make([]model.State, shards)
	for k := range parts {
		parts[k] = model.NewState()
	}
	for it, v := range initial {
		parts[s.router.Shard(it)].Set(it, v)
	}
	if shards == 1 {
		parts[0] = initial
	}
	recs := make([]*Recovery, shards)
	for k := range s.shards {
		scfg := cfg
		if shards > 1 {
			scfg.Observer = shardObserver(cfg.Observer, k+1)
		}
		b, rec, err := OpenBase(filepath.Join(dir, fmt.Sprintf("shard-%d", k)), parts[k], scfg)
		if err != nil {
			for _, prev := range s.shards[:k] {
				prev.CloseStore()
			}
			return nil, nil, fmt.Errorf("replica: open sharded base: shard %d: %w", k, err)
		}
		s.shards[k] = b
		recs[k] = rec
	}
	return s, recs, nil
}

// Checkpoint rotates every shard's segment log (see BaseCluster.Checkpoint).
//
//tiermerge:locks(none)
//tiermerge:blocking
func (s *ShardedBase) Checkpoint() error {
	for k, b := range s.shards {
		if err := b.Checkpoint(); err != nil {
			return fmt.Errorf("replica: checkpoint shard %d: %w", k, err)
		}
	}
	return nil
}

// CloseStore closes every shard's storage engine.
//
//tiermerge:locks(none)
//tiermerge:blocking
func (s *ShardedBase) CloseStore() error {
	var first error
	for _, b := range s.shards {
		if err := b.CloseStore(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// shardObserver stamps every event a shard emits with its 1-based shard
// index before forwarding to the user observer.
func shardObserver(o obs.Observer, shard int) obs.Observer {
	if o == nil {
		return nil
	}
	return obs.ObserverFunc(func(ev obs.Event) {
		if ev.Shard == 0 {
			ev.Shard = shard
		}
		o.Observe(ev)
	})
}

// Shards returns the shard count.
func (s *ShardedBase) Shards() int { return len(s.shards) }

// Shard returns shard k for inspection (counters, debug dumps, admission
// gates in tests). Do not call AdvanceWindow on it directly — windows
// advance through the sharded tier's barrier.
func (s *ShardedBase) Shard(k int) *BaseCluster { return s.shards[k] }

// ShardOf returns the shard index owning item it.
func (s *ShardedBase) ShardOf(it model.Item) int { return s.router.Shard(it) }

// Router returns the tier's item router.
func (s *ShardedBase) Router() ShardRouter { return s.router }

// Weights returns the active cost weights.
func (s *ShardedBase) Weights() cost.Weights { return s.cfg.Weights }

// Counters returns the aggregated counter snapshot across every shard.
// Per-shard counters are available through Shard(k).Counters().
func (s *ShardedBase) Counters() cost.Counts {
	var total cost.Counts
	for _, b := range s.shards {
		total.Add(b.Counters().Snapshot())
	}
	return total
}

// Master returns a copy of the combined master state across every shard.
//
//tiermerge:locks(none)
func (s *ShardedBase) Master() model.State {
	out := model.NewState()
	for _, b := range s.shards {
		for it, v := range b.Master() {
			out.Set(it, v)
		}
	}
	return out
}

// emit delivers one coordination-path event to the user observer (shard
// events go through the per-shard wrapped observers instead).
func (s *ShardedBase) emit(ev obs.Event) {
	if o := s.cfg.Observer; o != nil {
		o.Observe(ev)
	}
}

// spanStart mirrors BaseCluster.spanStart for the coordination path.
func (s *ShardedBase) spanStart() time.Time {
	if s.cfg.Observer == nil {
		return time.Time{}
	}
	return time.Now()
}

// WindowID returns the current global window identifier, retrying around
// in-progress advances.
//
//tiermerge:locks(none)
func (s *ShardedBase) WindowID() int {
	if len(s.shards) == 1 {
		return s.shards[0].WindowID()
	}
	for {
		v := s.windowVer.Load()
		if v&1 == 1 {
			runtime.Gosched()
			continue
		}
		id := s.shards[0].WindowID()
		if s.windowVer.Load() == v {
			return id
		}
	}
}

// AdvanceWindow starts a new time window on every shard behind the window
// barrier: concurrent checkouts either complete before the sweep or after
// it, never straddling shards in different windows. Concurrent advancers
// serialize on the barrier's version CAS.
//
//tiermerge:locks(none)
func (s *ShardedBase) AdvanceWindow() int {
	if len(s.shards) == 1 {
		return s.shards[0].AdvanceWindow()
	}
	for {
		v := s.windowVer.Load()
		if v&1 == 1 {
			runtime.Gosched()
			continue
		}
		if s.windowVer.CompareAndSwap(v, v+1) {
			break
		}
	}
	var id int
	for _, b := range s.shards {
		id = b.AdvanceWindow()
	}
	s.windowVer.Add(1)
	return id
}

// CheckoutReplica hands a mobile node its origin snapshot across every
// shard: per-shard checkout tokens (Checkout.Shards) plus the combined
// origin state. The barrier read retries if a window advance raced the
// multi-shard sweep, so the returned tokens always agree on one window.
//
//tiermerge:locks(none)
func (s *ShardedBase) CheckoutReplica(mobileID string) Checkout {
	if len(s.shards) == 1 {
		return s.shards[0].CheckoutReplica(mobileID)
	}
	for {
		v := s.windowVer.Load()
		if v&1 == 1 {
			runtime.Gosched()
			continue
		}
		parts := make([]Checkout, len(s.shards))
		for k, b := range s.shards {
			parts[k] = b.CheckoutReplica(mobileID)
		}
		if s.windowVer.Load() != v {
			continue
		}
		id := composeOriginID(parts)
		return Checkout{
			MobileID: mobileID,
			WindowID: parts[0].WindowID,
			Origin:   s.composeOrigin(id, parts),
			OriginID: id,
			Shards:   parts,
		}
	}
}

// composedOrigin is one composed multi-shard window origin with its id.
//
//tiermerge:immutable
type composedOrigin struct {
	id    string
	state model.State
}

// composeOrigin returns the union of the shard checkouts' origins. A
// Strategy 2 union (non-empty id) is built once per id and shared by every
// checkout that composes to it; a Strategy 1 union is a fresh map each
// time, like the per-shard master copies it is built from.
func (s *ShardedBase) composeOrigin(id string, parts []Checkout) model.State {
	if c := s.origin.Load(); id != "" && c != nil && c.id == id {
		return c.state
	}
	n := 0
	for _, p := range parts {
		n += len(p.Origin)
	}
	origin := make(model.State, n)
	for _, p := range parts {
		for it, val := range p.Origin {
			origin[it] = val
		}
	}
	if id != "" {
		s.origin.Store(&composedOrigin{id: id, state: origin})
	}
	return origin
}

// composeOriginID derives a sharded checkout's origin identity from its
// shards' ids in shard order, so it changes exactly when some shard's
// window origin does. It is empty when any shard has none (Strategy 1).
func composeOriginID(parts []Checkout) string {
	h := sha256.New()
	for _, p := range parts {
		if p.OriginID == "" {
			return ""
		}
		h.Write([]byte(p.OriginID))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// footprintOf is the union of Hm's actual read and write sets — the same
// footprint prepareMerge derives.
func footprintOf(hm *history.Augmented) model.ItemSet {
	fp := make(model.ItemSet)
	for _, eff := range hm.Effects {
		for it := range eff.ReadSet {
			fp.Add(it)
		}
		for it := range eff.WriteSet {
			fp.Add(it)
		}
	}
	return fp
}

// clustersOf maps sorted shard indices to their clusters.
func (s *ShardedBase) clustersOf(involved []int) []*BaseCluster {
	bs := make([]*BaseCluster, len(involved))
	for i, k := range involved {
		bs[i] = s.shards[k]
	}
	return bs
}

// lockClusters acquires the given shards' cluster mutexes in ascending
// shard order — the one global acquisition order every cross-shard path
// uses, so two cross-shard admits (or an admit and a cross-shard base
// transaction) can never deadlock on shard mutexes. Callers must pass the
// clusters in that order (clustersOf over a sorted shard list).
//
//tiermerge:blocking
func lockClusters(bs []*BaseCluster) {
	for _, b := range bs {
		b.mu.Lock()
	}
}

// unlockClusters releases what lockClusters acquired.
func unlockClusters(bs []*BaseCluster) {
	for i := len(bs) - 1; i >= 0; i-- {
		bs[i].mu.Unlock()
	}
}

// acquireAcross takes the item locks on their owning shards' lock
// managers in one globally sorted item order (the ExecBase discipline,
// spanning managers), waiting as needed; it must never run while a
// cluster mutex is held.
//
//tiermerge:blocking
func (s *ShardedBase) acquireAcross(owner string, items []model.Item, writes model.ItemSet) error {
	for _, it := range items {
		mode := lockmgr.Shared
		if writes.Has(it) {
			mode = lockmgr.Exclusive
		}
		if err := s.shards[s.router.Shard(it)].lm.Acquire(owner, it, mode); err != nil {
			return err
		}
	}
	return nil
}

// releaseAcross drops the owner's locks on every shard.
func (s *ShardedBase) releaseAcross(owner string) {
	for _, b := range s.shards {
		b.lm.ReleaseAll(owner)
	}
}

// ExecBase runs one base transaction against the sharded tier: routed to
// its shard when the footprint is shard-local, executed under every
// involved shard's locks otherwise and installed as per-shard restricted
// slices sharing one cross-shard identity.
//
//tiermerge:locks(none)
func (s *ShardedBase) ExecBase(t *tx.Transaction) error {
	if len(s.shards) == 1 {
		return s.shards[0].ExecBase(t)
	}
	involved := s.router.shardsOf(t.StaticReadSet().Union(t.StaticWriteSet()))
	if len(involved) <= 1 {
		k := 0
		if len(involved) == 1 {
			k = involved[0]
		}
		return s.shards[k].ExecBase(t)
	}
	return s.execBaseCross(t, involved)
}

// execBaseCross is the cross-shard ExecBase path: item locks first (global
// sorted order, deadlock retry), then the involved shards' mutexes in
// ascending order, then execute over the combined owned state and install
// the restricted slices.
//
//tiermerge:locks(none)
func (s *ShardedBase) execBaseCross(t *tx.Transaction, involved []int) error {
	if t.Kind != tx.Base {
		return fmt.Errorf("%w: %s", ErrNotBase, t.ID)
	}
	items := t.StaticReadSet().Union(t.StaticWriteSet()).Items()
	writes := t.StaticWriteSet()
	for attempt := 0; ; attempt++ {
		if err := s.acquireAcross(t.ID, items, writes); err != nil {
			s.releaseAcross(t.ID)
			if errors.Is(err, lockmgr.ErrDeadlock) && attempt < 10 {
				continue
			}
			return fmt.Errorf("replica: locks for %s: %w", t.ID, err)
		}
		break
	}
	defer s.releaseAcross(t.ID)

	bs := s.clustersOf(involved)
	lockClusters(bs)
	err := s.execBaseCrossLocked(t, involved)
	unlockClusters(bs)
	if err != nil {
		return err
	}
	// Force every involved shard's journal before acknowledging.
	return syncShards(bs)
}

// syncShards forces the journals of the given clusters to stable media —
// the sharded counterpart of syncJournal, called after the shard mutexes
// are released on every path that acknowledges a cross-shard commit.
//
//tiermerge:locks(none)
//tiermerge:blocking
func syncShards(bs []*BaseCluster) error {
	for _, b := range bs {
		if err := b.syncJournal(); err != nil {
			return err
		}
	}
	return nil
}

// execBaseCrossLocked executes t over a scratch state assembled from the
// involved shards' masters and installs the result. Caller holds every
// involved shard's mutex (and t's item locks).
//
//tiermerge:locks(shard)
func (s *ShardedBase) execBaseCrossLocked(t *tx.Transaction, involved []int) error {
	scratch := s.gatherLocked(t.StaticReadSet().Union(t.StaticWriteSet()))
	eff, err := t.ExecInPlace(scratch, nil)
	if err != nil {
		return fmt.Errorf("replica: exec base %s: %w", t.ID, err)
	}
	home := s.shards[involved[0]]
	nLocks := int64(len(eff.ReadSet.Union(eff.WriteSet)))
	home.counters.Update(func(c *cost.Counts) {
		c.BaseQueries += int64(t.StmtCount())
		c.BaseLocks += nLocks
	})
	s.installSlicesLocked(t, eff)
	return nil
}

// gatherLocked assembles a scratch state holding the current master value
// of every item in set, read from each item's owning shard. Caller holds
// every involved shard's mutex.
//
//tiermerge:locks(shard)
func (s *ShardedBase) gatherLocked(set model.ItemSet) model.State {
	scratch := model.NewState()
	for it := range set {
		scratch.Set(it, s.shards[s.router.Shard(it)].master.Get(it))
	}
	return scratch
}

// installSlicesLocked installs one executed cross-shard transaction: for
// each involved shard a restricted slice transaction — reads of this
// shard's read-only items, constant writes of this shard's written values
// — is executed on the shard master (reproducing the restricted effect
// with true before-images) and appended to its history, all slices
// sharing one *crossTxn global identity carrying the full transaction and
// effect. Each shard forces its own commit record: a cross-shard install
// pays one forced write per involved shard, the genuine durability cost
// of spanning partitions. Caller holds every involved shard's mutex.
//
//tiermerge:locks(shard)
func (s *ShardedBase) installSlicesLocked(base *tx.Transaction, eff *tx.Effect) {
	g := &crossTxn{t: base, eff: eff}
	for _, k := range s.router.shardsOf(eff.ReadSet.Union(eff.WriteSet)) {
		b := s.shards[k]
		slice := s.sliceTxn(base, eff, k, nil)
		seff, err := slice.ExecInPlace(b.master, nil)
		if err != nil {
			// Slices are reads plus constant writes; failure is a
			// programming error.
			panic(fmt.Sprintf("replica: cross-shard slice %s: %v", slice.ID, err))
		}
		b.appendEntryLocked(baseEntry{t: slice, eff: seff, global: g})
		b.counters.Update(func(c *cost.Counts) { c.BaseForcedWrites++ })
		b.propagate(slice.ID, seff.Writes)
		if lerr := b.logCommit(slice, seff); lerr != nil {
			panic(fmt.Sprintf("replica: base journal failed: %v", lerr))
		}
	}
}

// sliceTxn builds shard k's restricted slice of an executed cross-shard
// transaction: Read statements for the shard's read-only items and
// constant Updates writing the values the full execution produced — except
// for items of deltas (may be nil), which become additive updates
// (x := x + δ) so the installed slice stays delta-pure on them and later
// delta merges elide their conflict edges against it. The slice's effect
// equals the full effect restricted to the shard.
func (s *ShardedBase) sliceTxn(base *tx.Transaction, eff *tx.Effect, k int, deltas map[model.Item]model.Value) *tx.Transaction {
	var body []tx.Stmt
	for _, it := range eff.ReadSet.Minus(eff.WriteSet).Items() {
		if s.router.Shard(it) == k {
			body = append(body, tx.Read(it))
		}
	}
	for _, it := range eff.WriteSet.Items() {
		if s.router.Shard(it) == k {
			if d, ok := deltas[it]; ok {
				body = append(body, tx.Update(it, expr.Add(expr.Var(it), expr.Const(d))))
			} else {
				body = append(body, tx.Update(it, expr.Const(eff.Writes[it])))
			}
		}
	}
	return &tx.Transaction{
		ID:   fmt.Sprintf("%s@s%d", base.ID, k),
		Type: base.Type,
		Kind: tx.Base,
		Body: body,
	}
}

// Merge runs the merging protocol against the sharded tier: a merge whose
// footprint lives in one shard routes straight to that shard's optimistic
// pipeline; a cross-shard merge runs the two-phase admit.
//
//tiermerge:locks(none)
func (s *ShardedBase) Merge(ck Checkout, hm *history.Augmented) (*ConnectOutcome, error) {
	if len(s.shards) == 1 {
		return s.shards[0].Merge(ck, hm)
	}
	if ck.Shards == nil {
		ck = s.wireTokens(ck)
	} else if len(ck.Shards) != len(s.shards) {
		return nil, fmt.Errorf("%w: checkout carries %d shard tokens, tier has %d shards",
			ErrBadConfig, len(ck.Shards), len(s.shards))
	}
	involved := s.router.shardsOf(footprintOf(hm))
	if len(involved) <= 1 {
		k := 0
		if len(involved) == 1 {
			k = involved[0]
		}
		return s.shards[k].Merge(ck.Shards[k], hm)
	}
	return s.mergeCross(ck, hm, involved)
}

// wireTokens synthesizes the per-shard tokens of a checkout that crossed
// the wire (the reconnect journal carries only the combined token): window
// and position are copied, and under Strategy 1 — the only strategy that
// reads a shard token's origin — the origin is partitioned by the router.
// The copied position is validated per shard and a stale one degrades that
// merge to reprocessing — correct, if conservative; sharded Strategy 1
// workloads should reconnect through the in-process API, which keeps the
// real tokens.
func (s *ShardedBase) wireTokens(ck Checkout) Checkout {
	parts := make([]Checkout, len(s.shards))
	for k := range parts {
		parts[k] = Checkout{
			MobileID: ck.MobileID,
			WindowID: ck.WindowID,
			Pos:      ck.Pos,
		}
	}
	if s.cfg.Origin == Strategy1 {
		for k := range parts {
			parts[k].Origin = model.NewState()
		}
		for it, v := range ck.Origin {
			parts[s.router.Shard(it)].Origin.Set(it, v)
		}
	}
	ck.Shards = parts
	return ck
}

// Preview reports what a cross-shard (or routed) merge would do right now
// without committing anything, like BaseCluster.Preview.
//
//tiermerge:locks(none)
func (s *ShardedBase) Preview(ck Checkout, hm *history.Augmented) (*merge.Report, error) {
	if len(s.shards) == 1 {
		return s.shards[0].Preview(ck, hm)
	}
	if ck.Shards == nil {
		ck = s.wireTokens(ck)
	} else if len(ck.Shards) != len(s.shards) {
		return nil, fmt.Errorf("%w: checkout carries %d shard tokens, tier has %d shards",
			ErrBadConfig, len(ck.Shards), len(s.shards))
	}
	involved := s.router.shardsOf(footprintOf(hm))
	if len(involved) <= 1 {
		k := 0
		if len(involved) == 1 {
			k = involved[0]
		}
		return s.shards[k].Preview(ck.Shards[k], hm)
	}
	parts, fb := s.crossSnapshots(ck, involved)
	switch fb {
	case FallbackNone:
	case FallbackWindowExpired:
		return nil, fmt.Errorf("preview: %w: everything would be reprocessed", ErrWindowExpired)
	default:
		return nil, fmt.Errorf("preview: %w: everything would be reprocessed", ErrOriginInvalid)
	}
	snap := combineParts(parts, -1)
	return merge.Merge(hm, snap.hb, s.cfg.MergeOptions)
}

// Reprocess runs the original two-tier protocol against the sharded tier,
// routing each tentative transaction to its shard (or across shards).
//
//tiermerge:locks(none)
func (s *ShardedBase) Reprocess(hm *history.Augmented) *ConnectOutcome {
	if len(s.shards) == 1 {
		return s.shards[0].Reprocess(hm)
	}
	start := s.spanStart()
	out := s.reprocessAcross(hm, FallbackNone)
	s.emit(obs.Event{
		Phase:      obs.PhaseReprocess,
		Detail:     "sharded",
		Dur:        sinceSpan(start),
		Reexecuted: out.Reprocessed,
		Failed:     out.Failed,
	})
	return out
}

// reprocessAcross re-executes every transaction of hm, holding every
// involved shard's mutex for the duration so the fallback installs as one
// atomic unit, exactly like the unsharded fallbackReprocess under b.mu.
//
//tiermerge:locks(none)
func (s *ShardedBase) reprocessAcross(hm *history.Augmented, reason FallbackReason) *ConnectOutcome {
	involved := s.router.shardsOf(footprintOf(hm))
	if len(involved) == 0 {
		involved = []int{0}
	}
	bs := s.clustersOf(involved)
	lockClusters(bs)
	out := s.fallbackReprocessLocked(hm, reason, s.shards[involved[0]])
	unlockClusters(bs)
	if err := syncShards(bs); err != nil {
		panic(fmt.Sprintf("replica: base journal failed: %v", err))
	}
	return out
}

// fallbackReprocessLocked is the sharded fallbackReprocess: every
// transaction of hm re-executed in order, shard-local ones on their own
// shard, cross-shard ones through the slice installer. Caller holds the
// mutex of every shard hm's footprint touches; home takes the
// merge-level charges.
//
//tiermerge:locks(shard)
func (s *ShardedBase) fallbackReprocessLocked(hm *history.Augmented, reason FallbackReason, home *BaseCluster) *ConnectOutcome {
	out := &ConnectOutcome{Fallback: reason}
	if reason != FallbackNone {
		home.counters.Update(func(c *cost.Counts) { c.MergeFallbacks++ })
	}
	for i := 0; i < hm.H.Len(); i++ {
		if s.reprocessOneLocked(hm.H.Txn(i), hm.Effects[i], home) {
			out.Reprocessed++
		} else {
			out.Failed++
		}
	}
	return out
}

// reprocessOneLocked re-executes one tentative transaction: on its own
// shard when the footprint is shard-local (that shard's mutex is held —
// the transaction came from a history whose shards are all locked), via
// the cross-shard path otherwise.
//
//tiermerge:locks(shard)
func (s *ShardedBase) reprocessOneLocked(t *tx.Transaction, tentEff *tx.Effect, home *BaseCluster) bool {
	shards := s.router.shardsOf(t.StaticReadSet().Union(t.StaticWriteSet()))
	if len(shards) <= 1 {
		b := home
		if len(shards) == 1 {
			b = s.shards[shards[0]]
		}
		return b.reprocessOne(t, tentEff)
	}
	return s.crossReprocessOneLocked(t, tentEff, home)
}

// crossReprocessOneLocked re-executes one cross-shard tentative
// transaction as a base transaction over the combined owned state and
// installs it as restricted slices with a shared global identity. Caller
// holds every involved shard's mutex; home takes the communication and
// compute charges (the per-shard forced writes land on each shard).
//
//tiermerge:locks(shard)
func (s *ShardedBase) crossReprocessOneLocked(t *tx.Transaction, tentEff *tx.Effect, home *BaseCluster) bool {
	w := s.cfg.Weights
	home.counters.Msg(w, int64(t.StmtCount())*w.CodeBytesPerStmt+int64(t.ParamCount())*w.ArgBytes)
	home.counters.Msg(w, w.ResultBytes)
	base := &tx.Transaction{
		ID:          t.ID + "@base",
		Type:        t.Type,
		Kind:        tx.Base,
		Params:      t.Params,
		Body:        t.Body,
		InverseBody: t.InverseBody,
	}
	scratch := s.gatherLocked(base.StaticReadSet().Union(base.StaticWriteSet()))
	eff, err := base.ExecInPlace(scratch, nil)
	nLocks := int64(len(base.StaticReadSet().Union(base.StaticWriteSet())))
	home.counters.Update(func(c *cost.Counts) {
		c.BaseTransforms++
		c.BaseQueries += int64(base.StmtCount())
		c.BaseLocks += nLocks
		c.TxnsReprocessed++
		c.MobileReports++
	})
	if err != nil {
		return false
	}
	if s.cfg.Acceptance != nil && tentEff != nil {
		if aerr := s.cfg.Acceptance(t, tentEff, eff); aerr != nil {
			return false
		}
	}
	s.installSlicesLocked(base, eff)
	return true
}

// shardPart is one involved shard's view of a cross-shard merge: the
// shard, its checkout token, its validated prefix snapshot and the
// cross-shard identities parallel to the snapshot's entries.
type shardPart struct {
	idx  int
	b    *BaseCluster
	ck   Checkout
	snap prefixSnapshot
	refs []*crossTxn
}

// crossSnapshots captures each involved shard's prefix snapshot (short
// per-shard critical sections, no global lock). Inconsistencies between
// the staggered snapshots are caught by the per-shard revalidation at
// admission, exactly as single-shard prepares are.
//
//tiermerge:locks(none)
func (s *ShardedBase) crossSnapshots(ck Checkout, involved []int) ([]*shardPart, FallbackReason) {
	parts := make([]*shardPart, 0, len(involved))
	for _, k := range involved {
		b := s.shards[k]
		b.mu.Lock()
		snap, fb := b.snapshotLocked(ck.Shards[k])
		if fb != FallbackNone {
			b.mu.Unlock()
			return nil, fb
		}
		refs := b.crossRefsLocked(snap.pos)
		b.mu.Unlock()
		parts = append(parts, &shardPart{idx: k, b: b, ck: ck.Shards[k], snap: snap, refs: refs})
	}
	return parts, FallbackNone
}

// combineParts interleaves the involved shards' prefix snapshots into one
// combined serial base view. Shard-local entries are item-disjoint across
// shards, so any interleaving preserving each shard's order is a legal
// serial history; cross-shard slices are deduplicated into their global
// identity (full transaction, full effect) and emitted at a position
// consistent with every involved shard — the position every slice has
// reached, which exists because cross-shard installs append to all their
// shards atomically and snapshots are taken in ascending shard order.
// structVer is a caller-chosen synthetic version; cross-shard retries pass
// strictly decreasing values so prepareMerge always rebuilds (per-shard
// suffixes cannot be grafted onto a combined graph).
func combineParts(parts []*shardPart, structVer int64) prefixSnapshot {
	type ref struct{ part, pos int }
	where := make(map[*crossTxn][]ref)
	total := 0
	for pi, p := range parts {
		total += len(p.refs)
		for i, g := range p.refs {
			if g != nil {
				where[g] = append(where[g], ref{pi, i})
			}
		}
	}
	entries := make([]history.Entry, 0, total)
	effects := make([]*tx.Effect, 0, total)
	ptr := make([]int, len(parts))
	emitted := make(map[*crossTxn]bool)
	ready := func(g *crossTxn) bool {
		for _, r := range where[g] {
			if ptr[r.part] < r.pos {
				return false
			}
		}
		return true
	}
	emitCross := func(g *crossTxn) {
		entries = append(entries, history.Entry{T: g.t})
		effects = append(effects, g.eff)
		emitted[g] = true
	}
	for {
		progress := false
		for pi, p := range parts {
			for ptr[pi] < len(p.refs) {
				i := ptr[pi]
				g := p.refs[i]
				switch {
				case g == nil:
					entries = append(entries, p.snap.hb.H.Entries[i])
					effects = append(effects, p.snap.hb.Effects[i])
				case emitted[g]:
					// A sibling slice already emitted the global entry.
				case ready(g):
					emitCross(g)
				default:
					// Blocked on another shard's pointer; let it advance.
					goto nextPart
				}
				ptr[pi]++
				progress = true
			}
		nextPart:
		}
		done := true
		for pi, p := range parts {
			if ptr[pi] < len(p.refs) {
				done = false
			}
		}
		if done {
			break
		}
		if !progress {
			// Unreachable when snapshots respect the atomic cross-install
			// order; break the tie deterministically instead of spinning.
			for pi, p := range parts {
				if ptr[pi] < len(p.refs) {
					emitCross(p.refs[ptr[pi]])
					ptr[pi]++
					break
				}
			}
		}
	}
	hb := &history.Augmented{H: &history.History{Entries: entries}, Effects: effects}
	return prefixSnapshot{
		windowID:  parts[0].snap.windowID,
		structVer: structVer,
		histLen:   len(entries),
		pos:       0,
		hb:        hb,
	}
}

// mergeCross is the two-phase cross-shard merge: optimistic attempts
// (per-shard snapshots, combined prepare, all-shards validate-and-admit)
// followed by a serial round holding every involved shard's mutex, which
// cannot be invalidated. Mirrors mergePipelined's shape and events, with
// Detail "cross-shard".
//
//tiermerge:locks(none)
func (s *ShardedBase) mergeCross(ck Checkout, hm *history.Augmented, involved []int) (*ConnectOutcome, error) {
	attempts := s.cfg.MergeAttempts
	if attempts == 0 {
		attempts = defaultMergeAttempts
	}
	home := s.shards[involved[0]]
	seq := home.mergeSeq.Add(1)
	mergeStart := s.spanStart()
	finish := func(out *ConnectOutcome, err error) (*ConnectOutcome, error) {
		if s.cfg.Observer == nil {
			return out, err
		}
		ev := obs.Event{
			Mobile: ck.MobileID, Seq: seq,
			Phase: obs.PhaseMerge, Detail: "cross-shard", Dur: sinceSpan(mergeStart),
		}
		if err != nil {
			ev.Err = err.Error()
		} else if out != nil {
			if out.Fallback != FallbackNone {
				s.emit(obs.Event{
					Mobile: ck.MobileID, Seq: seq,
					Phase: obs.PhaseFallback, Detail: "cross-shard",
					Cause: obs.Cause(out.Fallback),
				})
			}
			ev.Saved = out.Saved
			ev.BackedOut = len(out.BadIDs)
			ev.Reexecuted = out.Reprocessed
			ev.Failed = out.Failed
		}
		s.emit(ev)
		return out, err
	}
	var prev *preparedMerge
	var synthVer int64
	for attempt := 1; attempt <= attempts; attempt++ {
		snapStart := s.spanStart()
		parts, fb := s.crossSnapshots(ck, involved)
		if fb != FallbackNone {
			return finish(s.reprocessAcross(hm, fb), nil)
		}
		synthVer--
		snap := combineParts(parts, synthVer)
		s.emit(obs.Event{
			Mobile: ck.MobileID, Seq: seq,
			Phase: obs.PhaseSnapshot, Detail: "cross-shard",
			Attempt: attempt, Dur: sinceSpan(snapStart),
		})
		p, err := prepareMerge(s.cfg, snap, hm, prev, bindMerge(s.cfg.Observer, ck.MobileID, seq, attempt))
		if err != nil {
			return finish(nil, err)
		}
		if h := s.hookAfterPrepare; h != nil {
			h(attempt)
		}
		admitStart := s.spanStart()
		out, admitted, cause, err := s.crossAdmit(ck, hm, p, parts)
		if err != nil {
			return finish(nil, err)
		}
		s.emit(obs.Event{
			Mobile: ck.MobileID, Seq: seq,
			Phase: obs.PhaseAdmit, Detail: "cross-shard",
			Attempt: attempt, Dur: sinceSpan(admitStart), Cause: cause,
		})
		if admitted {
			// Force the installed slices before the mobile node treats
			// its tentative work as saved.
			if serr := syncShards(s.clustersOf(involved)); serr != nil {
				return finish(nil, serr)
			}
			return finish(out, nil)
		}
		prev = p
	}
	// Serial round: snapshot, prepare and install under every involved
	// shard's mutex — immune to invalidation by construction.
	serialStart := s.spanStart()
	bs := s.clustersOf(involved)
	lockClusters(bs)
	out, err := s.mergeCrossSerialLocked(ck, hm, involved, prev, synthVer-1)
	unlockClusters(bs)
	if err == nil {
		err = syncShards(bs)
	}
	if attempts < 0 {
		attempts = 0
	}
	s.emit(obs.Event{
		Mobile: ck.MobileID, Seq: seq,
		Phase: obs.PhaseSerial, Detail: "cross-shard",
		Attempt: attempts, Dur: sinceSpan(serialStart),
	})
	return finish(out, err)
}

// mergeCrossSerialLocked is the serial cross-shard round. Caller holds
// every involved shard's mutex. The carried prev still applies: the
// prepare rebuilds (combined views are never grafted) without re-billing
// the upload. The observer passed down is nil — no user events can fire
// under the held shard mutexes.
//
//tiermerge:locks(shard)
//tiermerge:buffered-events
func (s *ShardedBase) mergeCrossSerialLocked(ck Checkout, hm *history.Augmented, involved []int, prev *preparedMerge, synthVer int64) (*ConnectOutcome, error) {
	home := s.shards[involved[0]]
	parts := make([]*shardPart, 0, len(involved))
	for _, k := range involved {
		b := s.shards[k]
		snap, fb := b.snapshotLocked(ck.Shards[k])
		if fb != FallbackNone {
			return s.fallbackReprocessLocked(hm, fb, home), nil
		}
		parts = append(parts, &shardPart{idx: k, b: b, ck: ck.Shards[k], snap: snap, refs: b.crossRefsLocked(snap.pos)})
	}
	snap := combineParts(parts, synthVer)
	p, err := prepareMerge(s.cfg, snap, hm, prev, nil)
	if err != nil {
		return nil, err
	}
	return s.crossInstallLocked(ck, hm, p, parts)
}

// crossAdmit is the cross-shard admission: acquire the merge's item locks
// across the involved shards' lock managers (global sorted order,
// deadlock retry), then the shard mutexes in ascending order, revalidate
// every shard and install — or classify the retry.
//
//tiermerge:locks(none)
func (s *ShardedBase) crossAdmit(ck Checkout, hm *history.Augmented, p *preparedMerge, parts []*shardPart) (out *ConnectOutcome, admitted bool, cause obs.Cause, err error) {
	owner, items, writes := p.lockPlan(ck.MobileID)
	if len(items) > 0 {
		for attempt := 0; ; attempt++ {
			if lockErr := s.acquireAcross(owner, items, writes); lockErr != nil {
				s.releaseAcross(owner)
				if errors.Is(lockErr, lockmgr.ErrDeadlock) && attempt < 10 {
					continue
				}
				return nil, false, obs.CauseNone, fmt.Errorf("replica: merge locks for %s: %w", ck.MobileID, lockErr)
			}
			break
		}
		defer s.releaseAcross(owner)
	}
	bs := make([]*BaseCluster, len(parts))
	for i, part := range parts {
		bs[i] = part.b
	}
	lockClusters(bs)
	out, admitted, cause, err = s.crossAdmitLocked(ck, hm, p, parts)
	unlockClusters(bs)
	return out, admitted, cause, err
}

// crossAdmitLocked validates the prepared cross-shard merge against every
// involved shard's live history and installs it on success. Caller holds
// every involved shard's mutex (and the merge's item locks). The
// extension check runs against each shard's restricted entry effects —
// exact, because the merge footprint's intersection with a shard's items
// is precisely what that shard's restricted views carry.
//
//tiermerge:locks(shard)
func (s *ShardedBase) crossAdmitLocked(ck Checkout, hm *history.Augmented, p *preparedMerge, parts []*shardPart) (out *ConnectOutcome, admitted bool, cause obs.Cause, err error) {
	for _, part := range parts {
		if part.ck.WindowID != part.b.windowID {
			return s.fallbackReprocessLocked(hm, FallbackWindowExpired, parts[0].b), true, obs.CauseWindowExpired, nil
		}
	}
	for _, part := range parts {
		if part.snap.structVer != part.b.structVer {
			return nil, false, obs.CauseStructChanged, nil
		}
		for i := part.snap.histLen; i < len(part.b.entries); i++ {
			if !p.extensionInvisible(part.b.entries[i].eff) {
				return nil, false, obs.CauseExtensionConflict, nil
			}
		}
	}
	out, err = s.crossInstallLocked(ck, hm, p, parts)
	return out, true, obs.CauseNone, err
}

// crossInstallLocked commits a validated cross-shard merge: charge the
// deltas to the home shard (the lowest involved index — deterministic, so
// aggregate counters stay schedule-independent), install the forwarded
// updates across shards, and re-execute the backed-out transactions.
// Caller holds every involved shard's mutex.
//
//tiermerge:locks(shard)
func (s *ShardedBase) crossInstallLocked(ck Checkout, hm *history.Augmented, p *preparedMerge, parts []*shardPart) (*ConnectOutcome, error) {
	home := parts[0].b
	home.counters.Add(p.deltaPrepare)
	if p.insertConflict {
		return s.fallbackReprocessLocked(hm, FallbackInsertConflict, home), nil
	}
	home.counters.Add(p.deltaCommit)
	home.counters.Update(func(c *cost.Counts) { c.CrossShardMerges++ })
	s.installForwardedCrossLocked(ck.MobileID, p.rep.ForwardUpdates, p.rep.ForwardDeltas, parts)
	out := &ConnectOutcome{Merged: true, Report: p.rep, BadIDs: p.rep.BadIDs, Saved: len(p.rep.SavedIDs)}
	for _, t := range p.rep.Reexecute {
		if s.reprocessOneLocked(t, p.effByTxn[t], home) {
			out.Reprocessed++
		} else {
			out.Failed++
		}
	}
	return out, nil
}

// installForwardedCrossLocked installs a cross-shard merge's forwarded
// write-back (repaired values plus net deltas). Updates confined to one
// shard go through that shard's ordinary installForwarded; updates
// spanning shards become one global forwarded transaction (the "XU"
// namespace) installed as per-shard slices sharing its identity, each at
// its shard's strategy position. Caller holds every involved shard's
// mutex.
//
//tiermerge:locks(shard)
func (s *ShardedBase) installForwardedCrossLocked(mobileID string, values, deltas map[model.Item]model.Value, parts []*shardPart) {
	if len(values)+len(deltas) == 0 {
		return
	}
	valsBy := make(map[int]map[model.Item]model.Value)
	delsBy := make(map[int]map[model.Item]model.Value)
	hit := make(map[int]int)
	split := func(by map[int]map[model.Item]model.Value, src map[model.Item]model.Value) {
		for it, v := range src {
			k := s.router.Shard(it)
			if by[k] == nil {
				by[k] = make(map[model.Item]model.Value)
			}
			by[k][it] = v
			hit[k]++
		}
	}
	split(valsBy, values)
	split(delsBy, deltas)
	insertAt := func(part *shardPart, n int) int {
		if s.cfg.Origin == Strategy1 && n > 0 {
			return part.snap.pos
		}
		return len(part.b.entries)
	}
	if len(hit) == 1 {
		for _, part := range parts {
			if n := hit[part.idx]; n > 0 {
				part.b.installForwarded(mobileID, valsBy[part.idx], delsBy[part.idx], insertAt(part, n))
			}
		}
		return
	}
	gt := s.crossForwardTxn(mobileID, values, deltas)
	geff, err := gt.ExecInPlace(s.gatherLocked(gt.StaticReadSet().Union(gt.StaticWriteSet())), nil)
	if err != nil {
		panic(fmt.Sprintf("replica: forwarded updates failed: %v", err))
	}
	g := &crossTxn{t: gt, eff: geff}
	for _, part := range parts {
		n := hit[part.idx]
		if n == 0 {
			continue
		}
		slice := s.sliceTxn(gt, geff, part.idx, deltas)
		slice.Type = "forwarded-updates"
		part.b.installForwardTxn(slice, n, insertAt(part, n), g)
	}
}

// crossForwardTxn builds the global forwarded-updates transaction of a
// cross-shard merge. Like forwardTxn its read set equals its write set;
// the "XU" prefix and the tier-wide sequence keep its ID (and its slices'
// IDs) disjoint from every shard's own forward transactions.
func (s *ShardedBase) crossForwardTxn(mobileID string, values, deltas map[model.Item]model.Value) *tx.Transaction {
	return &tx.Transaction{
		ID:   fmt.Sprintf("XU%s.%d", mobileID, s.crossSeq.Add(1)),
		Type: "forwarded-updates",
		Kind: tx.Base,
		Body: forwardBody(values, deltas),
	}
}

// WritePrometheus renders the aggregated cost counters plus per-shard
// series labeled by shard index.
//
//tiermerge:locks(none)
func (s *ShardedBase) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	total := s.Counters()
	total.Each(func(name string, v int64) {
		family := "tiermerge_cost_" + name + "_total"
		p("# TYPE %s counter\n%s %d\n", family, family, v)
	})
	rep := total.Weighted(s.cfg.Weights)
	p("# TYPE tiermerge_cost_units gauge\n")
	p("%s %d\n", obs.Label("tiermerge_cost_units", "component", "comm"), rep.Comm)
	p("%s %d\n", obs.Label("tiermerge_cost_units", "component", "base"), rep.BaseCompute)
	p("%s %d\n", obs.Label("tiermerge_cost_units", "component", "mobile"), rep.MobileCompute)
	p("# TYPE tiermerge_window_id gauge\ntiermerge_window_id %d\n", s.WindowID())
	p("# TYPE tiermerge_shards gauge\ntiermerge_shards %d\n", len(s.shards))
	p("# TYPE tiermerge_shard_history_len gauge\n")
	for k, b := range s.shards {
		p("%s %d\n", obs.Label("tiermerge_shard_history_len", "shard", fmt.Sprintf("%d", k+1)), b.HistoryLen())
	}
	p("# TYPE tiermerge_shard_merges_total counter\n")
	for k, b := range s.shards {
		c := b.Counters().Snapshot()
		p("%s %d\n", obs.Label("tiermerge_shard_merges_total", "shard", fmt.Sprintf("%d", k+1)), c.MergesPerformed)
	}
	if err != nil {
		return err
	}
	if reg := obs.RegistryOf(s.cfg.Observer); reg != nil {
		return reg.Snapshot().WritePrometheus(w)
	}
	return nil
}
