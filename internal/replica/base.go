package replica

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"sync"
	"sync/atomic"

	"tiermerge/internal/cost"
	"tiermerge/internal/expr"
	"tiermerge/internal/history"
	"tiermerge/internal/lockmgr"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/store"

	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
)

// ErrNotBase is returned when a tentative transaction is submitted through
// the base-transaction interface.
var ErrNotBase = errors.New("replica: transaction is not a base transaction")

// baseEntry is one committed position of the base history within the
// current time window.
type baseEntry struct {
	t   *tx.Transaction
	eff *tx.Effect
	// global, when non-nil, links a per-shard slice of a cross-shard
	// transaction to its global identity (shard.go). The slice's t/eff are
	// restricted to this shard's items — exact for single-shard merges,
	// whose conflicts with the transaction can only involve this shard's
	// items — while a cross-shard merge's combined base view deduplicates
	// sibling slices through this pointer and sees one transaction with
	// the full footprint, so cycles spanning partitions stay detectable.
	global *crossTxn
}

// crossTxn is the global identity of one cross-shard installed transaction:
// the full transaction and its full effect over every involved shard.
// Sibling baseEntry slices on different shards share one *crossTxn, so
// pointer identity deduplicates them when shards' histories are combined.
//
//tiermerge:immutable
type crossTxn struct {
	t   *tx.Transaction
	eff *tx.Effect
}

// BaseCluster is the base tier: the master copy of every item, the
// serializable base history of the current time window, a strict-2PL lock
// manager, and the merge/reprocess endpoints mobile nodes connect to.
type BaseCluster struct {
	mu  sync.Mutex
	cfg Config
	lm  *lockmgr.Manager

	master   model.State
	windowID int
	// windowOrigin is the current window's origin. Strategy 2 checkouts
	// hand it out by reference, so it is never mutated: a window advance
	// (or recovery) replaces the map instead.
	windowOrigin model.State
	// originID caches windowOrigin's content identity, stamped on every
	// Strategy 2 checkout as Checkout.OriginID. Installing a window origin
	// clears it and the window's first checkout computes it, so recovery
	// and journal replay never pay for digests no checkout asks for.
	originID  string
	entries   []baseEntry
	followers []*follower

	// structVer is bumped whenever the committed prefix of the current
	// window changes shape other than by appending — interior inserts
	// (Strategy 1) and window advances. Prepared merges validate against it
	// at admission: an unchanged structVer means every base state a
	// snapshot captured is still the state at that history position.
	structVer int64
	// prefix caches the materialized augmented view of the current window
	// so merges stop rebuilding it from scratch (see windowPrefix).
	prefix prefixCache

	counters cost.Counters
	seq      int
	journal  *wal.Writer

	// ckptGate serializes Checkpoint calls (a one-slot semaphore, held
	// across the boundary capture and the rotation file I/O — deliberately
	// a channel, not a mutex, because it brackets blocking work and b.mu
	// acquisition). Overlapping checkpoints would interleave their
	// BeginRotate/ResetSeq boundary splits and flush records committed
	// between the two captures into a generation the first rotation
	// deletes — losing acknowledged commits. Nil without a durable store.
	ckptGate chan struct{}

	// store receives every committed entry's writes stamped with its
	// (window, pos) history coordinate and serves the per-position base
	// states from its MVCC snapshots (Config.Store, a fresh memory engine
	// when unset). disk is the same engine when it is durable — the
	// checkpoint/rotation target, nil otherwise. Both are set at
	// construction and immutable afterwards.
	store store.Engine
	disk  *store.Disk

	// mergeSeq numbers reconnect merges; every observer event of one merge
	// carries the same sequence number so tracers can group them.
	mergeSeq atomic.Int64

	// hookAfterPrepare, when non-nil, runs between a merge attempt's
	// prepare and admit phases. Tests use it to commit base transactions at
	// exactly that point, forcing admission-validation failures (and hence
	// retry attempts) deterministically.
	hookAfterPrepare func(attempt int)

	// tier and shard place the cluster in a sharded tier as its shard
	// number shard, whose router owns the item→shard lookup. tier is nil
	// for a plain cluster — the one shard of a one-shard tier is one — and
	// a plain cluster owns every item. Both are set at construction.
	tier  *ShardedBase
	shard int
	// solo is the cluster's group of one (shardGroup), built once so that
	// operations on a plain cluster allocate no group.
	solo shardGroup
}

// emit delivers one event to o, when there is one. It must never be called
// while a cluster mutex is held: observers run arbitrary user code, and the
// lock-discipline contract (and tiermergelint) forbid blocking work under
// the mutexes. Locked sections gather the numbers; callers emit after
// unlocking.
func emit(o obs.Observer, ev obs.Event) {
	if o != nil {
		o.Observe(ev)
	}
}

// spanStart opens a timing span: it reads the clock only when an observer
// is configured, so the nil-observer fast path pays a single nil check and
// no syscalls.
func spanStart(o obs.Observer) time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// sinceSpan closes a span opened by spanStart.
func sinceSpan(start time.Time) time.Duration {
	if start.IsZero() {
		return 0
	}
	return time.Since(start)
}

// prefixCache incrementally materializes the current window's base history
// as parallel entry/effect slices. The slices are append-only between
// structVer bumps, so snapshots hand out capped subslices that stay valid
// and race-free while the cache keeps growing behind them. It holds no
// per-position states: a merge reads only the base history's transactions
// and effect logs, and the states that do get read (Strategy 1 origin
// checks, interior inserts) come from the storage engine through stateAt.
type prefixCache struct {
	windowID  int
	structVer int64
	entries   []history.Entry
	effects   []*tx.Effect
}

// NewBaseCluster builds a base cluster over the initial master state. It
// panics when cfg fails (Config).Validate — misconfiguration is a
// programming error, caught at construction instead of surfacing
// mid-merge. Callers assembling configurations from user input should
// Validate first.
func NewBaseCluster(initial model.State, cfg Config) *BaseCluster {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("replica: NewBaseCluster: %v", err))
	}
	cfg = cfg.withDefaults()
	eng := cfg.Store
	if eng == nil {
		eng = store.NewMemory()
	}
	b := &BaseCluster{
		cfg:          cfg,
		lm:           lockmgr.New(),
		master:       initial.Clone(),
		windowID:     1,
		windowOrigin: initial.Clone(),
		store:        eng,
	}
	if d, ok := eng.(*store.Disk); ok {
		b.disk = d
		b.ckptGate = make(chan struct{}, 1)
	}
	// Seed the chains with the initial state at the first coordinate;
	// every later watermark resolves through it.
	b.store.Set(b.windowID, 0, b.master)
	b.initFollowers()
	b.solo = shardGroup{members: []*BaseCluster{b}, home: b}
	return b
}

// Counters exposes the cluster's cost counters.
func (b *BaseCluster) Counters() *cost.Counters { return &b.counters }

// Weights returns the active cost weights.
func (b *BaseCluster) Weights() cost.Weights { return b.cfg.Weights }

// Master returns a copy of the current master state.
//
//tiermerge:locks(none)
func (b *BaseCluster) Master() model.State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.master.Clone()
}

// WindowID returns the current time-window identifier.
//
//tiermerge:locks(none)
func (b *BaseCluster) WindowID() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.windowID
}

// HistoryLen returns the number of base transactions committed in the
// current window.
//
//tiermerge:locks(none)
func (b *BaseCluster) HistoryLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// AdvanceWindow starts a new time window: the current master state becomes
// the shared origin for every tentative history begun in the window
// (Section 2.2's periodic resynchronization). Mobile nodes still carrying
// tentative work from an earlier window will fall back to reprocessing when
// they connect.
//
//tiermerge:locks(none)
func (b *BaseCluster) AdvanceWindow() int {
	b.mu.Lock()
	b.windowID++
	b.windowOrigin = b.master.Clone()
	b.originID = ""
	b.closeWindowLocked()
	err := b.logWindow()
	id := b.windowID
	b.mu.Unlock()
	if err == nil {
		// Force the window record before anyone acts on the new window.
		err = b.solo.sync()
	}
	if err != nil {
		panic(fmt.Sprintf("replica: base journal failed: %v", err))
	}
	return id
}

// closeWindowLocked discards the closed window's history once b.windowID
// and b.windowOrigin name the new window. The prefix cache describes the
// closed window, so it is dropped, and the version chains are compacted
// below the new origin. No explicit version is written at the origin: a
// read at (windowID, 0) resolves to the newest version of the closed
// window, which is exactly the master state that became the origin, so
// compaction to that floor keeps one version per item. Caller holds b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) closeWindowLocked() {
	b.entries = nil
	b.structVer++
	b.trimPrefixLocked()
	b.store.Checkpoint(b.windowID, 0)
}

// trimPrefixLocked drops the prefix cache. Called at window advance and
// checkpoint so a closed window's materialized view is not retained
// indefinitely. Outstanding merge views stay valid — they hold capped
// subslices whose backing arrays survive the trim. Caller holds b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) trimPrefixLocked() {
	b.prefix = prefixCache{}
}

// ExecBase runs one base transaction against master data under strict 2PL
// and appends it to the base history. It charges query, lock and forced-log
// costs plus lazy propagation to the other base replicas.
//
//tiermerge:locks(none)
func (b *BaseCluster) ExecBase(t *tx.Transaction) error { return b.solo.execBase(t) }

// execBase runs one base transaction over the group: item locks on their
// owners first (sorted order, deadlock retry), then the mutexes of every
// owner, then execution over the gathered items and the install — whole
// on a single owner, as per-shard slices across several.
//
//tiermerge:locks(none)
func (g shardGroup) execBase(t *tx.Transaction) error {
	if t.Kind != tx.Base {
		return fmt.Errorf("%w: %s", ErrNotBase, t.ID)
	}
	set := t.StaticReadSet().Union(t.StaticWriteSet())
	items := set.Items()
	lg := g.with(items)
	if err := lg.lockItems(t.ID, items, t.StaticWriteSet()); err != nil {
		return fmt.Errorf("replica: locks for %s: %w", t.ID, err)
	}
	defer lg.releaseItems(t.ID)
	lockClusters(lg.members)
	err := g.execBaseLocked(t, set)
	unlockClusters(lg.members)
	if err != nil {
		return err
	}
	// Force the commit record to stable media before acknowledging: an
	// acked base transaction must survive a crash (DESIGN.md §14).
	return lg.sync()
}

// execBaseLocked executes t over its gathered items, charges the home
// cluster, and installs the result (writing, but not forcing, the journal
// record). Caller holds every owner's mutex and t's item locks.
//
//tiermerge:locks(shard)
func (g shardGroup) execBaseLocked(t *tx.Transaction, set model.ItemSet) error {
	eff, err := t.ExecInPlace(g.gatherLocked(set), nil)
	if err != nil {
		return fmt.Errorf("replica: exec base %s: %w", t.ID, err)
	}
	nLocks := int64(len(eff.ReadSet.Union(eff.WriteSet)))
	g.home.counters.Update(func(c *cost.Counts) {
		c.BaseQueries += int64(t.StmtCount())
		c.BaseLocks += nLocks
	})
	if err := g.commitLocked(t, eff); err != nil {
		return fmt.Errorf("replica: journal %s: %w", t.ID, err)
	}
	return nil
}

// gatherLocked assembles a scratch state holding the live master value of
// every item in set, each read from its owner — what a base transaction
// over set executes against, instead of a copy of a whole master. Caller
// holds every owner's mutex.
//
//tiermerge:locks(shard)
func (g shardGroup) gatherLocked(set model.ItemSet) model.State {
	scratch := make(model.State, len(set))
	for it := range set {
		scratch[it] = g.owner(it).master.Get(it)
	}
	return scratch
}

// commitLocked installs one executed base transaction. When a single
// cluster owns every item its effect touches (the home cluster when it
// touches none), the transaction lands there whole: writes on the master,
// the entry on the history, one forced commit record. Across several
// owners it is installed as restricted per-shard slices
// (ShardedBase.installSlicesLocked). Lazy propagation is charged per
// installing cluster. Caller holds every owner's mutex.
//
//tiermerge:locks(shard)
func (g shardGroup) commitLocked(t *tx.Transaction, eff *tx.Effect) error {
	b := g.home
	if s := b.tier; s != nil {
		ks := s.router.shardsOf(eff.ReadSet.Union(eff.WriteSet))
		if len(ks) > 1 {
			s.installSlicesLocked(t, eff, ks)
			return nil
		}
		if len(ks) == 1 {
			b = s.shards[ks[0]]
		}
	}
	b.master.Apply(eff.Writes)
	b.appendEntryLocked(baseEntry{t: t, eff: eff})
	b.counters.Update(func(c *cost.Counts) { c.BaseForcedWrites++ })
	b.propagate(t.ID, eff.Writes)
	return b.logCommit(t, eff)
}

// appendEntryLocked appends a committed entry at the history tail and
// records its writes in the storage engine at its history coordinate
// (entry index i lives at position i+1; position 0 is the window origin).
// Caller holds b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) appendEntryLocked(e baseEntry) {
	b.entries = append(b.entries, e)
	b.store.Set(b.windowID, len(b.entries), e.eff.Writes)
}

// stateAt returns the base state at history position pos of the current
// window (0 = window origin). Caller holds b.mu.
//
//tiermerge:locks(cluster)
//tiermerge:immutable
func (b *BaseCluster) stateAt(pos int) model.State {
	if pos == 0 {
		return b.windowOrigin
	}
	snap := b.store.SnapshotAt(b.windowID, pos)
	defer snap.Release()
	return snap.State()
}

// windowPrefix returns the current window's base history as capped views
// into the prefix cache, extending or rebuilding the cache as needed.
// Caller holds b.mu.
//
// The returned slices are safe to read without the lock: between structVer
// bumps the cache only appends, and appends touch indices past every
// previously returned view's length (interior inserts bump structVer,
// forcing a rebuild with fresh backing arrays).
//
//tiermerge:locks(cluster)
//tiermerge:immutable
func (b *BaseCluster) windowPrefix() (entries []history.Entry, effects []*tx.Effect) {
	n := len(b.entries)
	c := &b.prefix
	if c.entries == nil || c.windowID != b.windowID || c.structVer != b.structVer || len(c.entries) > n {
		c.windowID, c.structVer = b.windowID, b.structVer
		c.entries = make([]history.Entry, 0, n+8)
		c.effects = make([]*tx.Effect, 0, n+8)
	}
	for i := len(c.entries); i < n; i++ {
		e := b.entries[i]
		c.entries = append(c.entries, history.Entry{T: e.t})
		c.effects = append(c.effects, e.eff)
	}
	return c.entries[:n:n], c.effects[:n:n]
}

// baseAugmented returns the base sub-history entries[pos:] as an augmented
// history (the Hb a merge runs against), served from the prefix cache.
// The view carries only the history and its effect logs — no Origin or
// final state, so a reader that reaches for a base state panics instead of
// reading zeros. Caller holds b.mu; the result remains valid to read after
// the lock is released (see windowPrefix).
//
//tiermerge:locks(cluster)
//tiermerge:immutable
func (b *BaseCluster) baseAugmented(pos int) *history.Augmented {
	entries, effects := b.windowPrefix()
	return &history.Augmented{
		H:       &history.History{Entries: entries[pos:]},
		Effects: effects[pos:],
	}
}

// crossRefsLocked copies the cross-shard identities of entries[pos:],
// parallel to the augmented view baseAugmented(pos) returns (nil elements
// for shard-local entries). The copy stays valid after the lock is
// released. Caller holds b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) crossRefsLocked(pos int) []*crossTxn {
	out := make([]*crossTxn, len(b.entries)-pos)
	for i := pos; i < len(b.entries); i++ {
		out[i-pos] = b.entries[i].global
	}
	return out
}

// forwardTxn builds the synthetic base transaction that installs a merge's
// forwarded write-back. Its read set equals its write set — the saved
// tentative transactions read every item they wrote (no blind writes
// against the shared origin) — so later merges detect conflicts with it
// exactly as with any other base transaction.
func (b *BaseCluster) forwardTxn(mobileID string, values, deltas map[model.Item]model.Value) *tx.Transaction {
	b.seq++
	t := &tx.Transaction{
		ID:   fmt.Sprintf("U%s.%d", mobileID, b.seq),
		Type: "forwarded-updates",
		Kind: tx.Base,
		Body: forwardBody(values, deltas),
	}
	return t
}

// forwardBody builds the statement list of a forwarded-updates transaction
// in sorted item order: constant updates installing repaired values,
// additive updates (x := x + δ) installing net increments. The additive
// statements are pure deltas by construction, so the installed base entry
// is delta-pure on those items and later delta merges elide their conflict
// edges against it instead of retrying.
func forwardBody(values, deltas map[model.Item]model.Value) []tx.Stmt {
	items := make([]model.Item, 0, len(values)+len(deltas))
	for it := range values {
		items = append(items, it)
	}
	for it := range deltas {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	body := make([]tx.Stmt, len(items))
	for i, it := range items {
		if v, ok := values[it]; ok {
			body[i] = tx.Update(it, expr.Const(v))
		} else {
			body[i] = tx.Update(it, expr.Add(expr.Var(it), expr.Const(deltas[it])))
		}
	}
	return body
}

// reexecLocked re-executes one tentative transaction as a base
// transaction: transform, execute over the items it may touch gathered from
// their owners, validate against the acceptance criterion, install on the
// shards it touched, charge costs, and report the result back to the mobile
// user. Failed re-executions — the transaction is not defined on the
// current master state, or its base outcome violates the acceptance
// criterion — are reported, not committed. tentEff is the transaction's
// effect on the mobile replica (nil when unknown), which the acceptance
// criterion compares against. The home cluster takes the communication and
// compute charges. Caller holds the mutex of every owner of the
// transaction's static read and write sets.
//
//tiermerge:locks(shard)
func (g shardGroup) reexecLocked(t *tx.Transaction, tentEff *tx.Effect) (ok bool) {
	home := g.home
	w := home.cfg.Weights
	// Code + arguments travel mobile -> base; the result travels back.
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
	set := base.StaticReadSet().Union(base.StaticWriteSet())
	eff, err := base.ExecInPlace(g.gatherLocked(set), nil)
	nLocks := int64(len(set))
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
	if home.cfg.Acceptance != nil && tentEff != nil {
		if err := home.cfg.Acceptance(t, tentEff, eff); err != nil {
			return false
		}
	}
	if err := g.commitLocked(base, eff); err != nil {
		panic(fmt.Sprintf("replica: base journal failed: %v", err))
	}
	return true
}

// Merge runs the merging protocol for a connected mobile node. It validates
// the checkout token (window and, under Strategy 1, origin position),
// executes the merge, installs forwarded updates, re-executes backed-out
// transactions, and charges every Section 7.1 cost component.
//
// The heavy protocol work — graph construction, back-out, the O(n²)
// rewrite and pruning — runs in a lock-free prepare phase against an
// immutable snapshot of the base prefix, so many reconnecting mobiles
// merge concurrently; only a short admission critical section touches the
// cluster. See pipeline.go for the phases and the snapshot-validation
// rule.
//
//tiermerge:locks(none)
func (b *BaseCluster) Merge(ck Checkout, hm *history.Augmented) (*ConnectOutcome, error) {
	return b.solo.merge(ck, hm)
}

// installForwarded installs a merge's forwarded write-back (repaired values
// plus net deltas) as one base transaction with a single forced log write
// (Section 7.1: "all the updates need be forced to durable logs only
// once") at the given history position: always the tail under Strategy 2,
// possibly earlier under Strategy 1, after the conflict check. Caller holds
// b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) installForwarded(mobileID string, values, deltas map[model.Item]model.Value, at int) {
	if len(values)+len(deltas) == 0 {
		return
	}
	b.installForwardTxn(b.forwardTxn(mobileID, values, deltas), len(values)+len(deltas), at, nil)
}

// installForwardTxn is installForwarded over an already-built forwarded
// transaction of nUpd update statements, stamping g (may be nil) as its
// cross-shard identity — the sharded coordinator builds per-shard slice
// transactions itself so their IDs share the global transaction's
// namespace. Caller holds b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) installForwardTxn(ft *tx.Transaction, nUpd int, at int, g *crossTxn) {
	interior := at < len(b.entries)
	st := b.master
	if interior {
		st = b.stateAt(at).Clone()
	}
	eff, err := ft.ExecInPlace(st, nil)
	if err != nil {
		// Constant and additive updates cannot fail; a failure is a
		// programming error.
		panic(fmt.Sprintf("replica: forwarded updates failed: %v", err))
	}
	if interior {
		b.entries = slices.Insert(b.entries, at, baseEntry{t: ft, eff: eff, global: g})
		// The prefix changed shape in the middle: invalidate every
		// outstanding snapshot and the cache built over the old
		// arrangement.
		b.structVer++
		// The engine shifts every version of this window at position > at
		// up one and lands the executed write images at the insert
		// position. The states after it follow from version resolution —
		// exact for additive (delta) statements too, because the conflict
		// check guaranteed no later entry touches the forwarded items, so
		// the value at the insert position equals the live one.
		b.store.InsertAt(b.windowID, at+1, eff.Writes)
		b.master.Apply(eff.Writes)
	} else {
		b.appendEntryLocked(baseEntry{t: ft, eff: eff, global: g})
	}
	b.counters.Update(func(c *cost.Counts) {
		c.BaseApplies += int64(nUpd)
		c.BaseLocks += int64(nUpd)
		c.BaseForcedWrites++
	})
	b.propagate(ft.ID, eff.Writes)
	// The journal is value-ordered, not position-ordered: replaying an
	// interior insert last still lands on the same master state because
	// the insert-conflict check guaranteed no later committed entry
	// touches these items.
	if err := b.logCommit(ft, eff); err != nil {
		panic(fmt.Sprintf("replica: base journal failed: %v", err))
	}
}

// Reprocess runs the original two-tier protocol for a connected mobile
// node: every tentative transaction is shipped to the base tier and
// re-executed.
//
//tiermerge:locks(none)
func (b *BaseCluster) Reprocess(hm *history.Augmented) *ConnectOutcome { return b.solo.reprocess(hm) }

// reprocess re-executes every transaction of hm, forces the journals it
// wrote and reports the reprocess span.
//
//tiermerge:locks(none)
func (g shardGroup) reprocess(hm *history.Augmented) *ConnectOutcome {
	start := spanStart(g.observer())
	out, wrote := g.fallback(hm, FallbackNone)
	if err := wrote.sync(); err != nil {
		panic(fmt.Sprintf("replica: base journal failed: %v", err))
	}
	g.emit(obs.Event{
		Phase:      obs.PhaseReprocess,
		Dur:        sinceSpan(start),
		Reexecuted: out.Reprocessed,
		Failed:     out.Failed,
	})
	return out
}

// fallbackGroup widens the group to every shard reprocessing hm may touch:
// the owners of hm's actual footprint and of each transaction's static
// read and write sets, since a re-executed transaction may take a branch
// its tentative run did not.
func (g shardGroup) fallbackGroup(hm *history.Augmented) shardGroup {
	if g.home.tier == nil {
		return g
	}
	set := footprintOf(hm)
	for i := 0; i < hm.H.Len(); i++ {
		t := hm.H.Txn(i)
		for it := range t.StaticReadSet().Union(t.StaticWriteSet()) {
			set.Add(it)
		}
	}
	return g.with(set.Items())
}

// fallback re-executes every transaction of hm under the mutexes of
// fallbackGroup(hm), so the reprocessed history installs as one atomic
// unit, and returns the outcome with the group whose journals it wrote.
//
//tiermerge:locks(none)
func (g shardGroup) fallback(hm *history.Augmented, reason FallbackReason) (*ConnectOutcome, shardGroup) {
	wrote := g.fallbackGroup(hm)
	lockClusters(wrote.members)
	out := g.fallbackLocked(hm, reason)
	unlockClusters(wrote.members)
	return out, wrote
}

// fallbackLocked re-executes every transaction of hm in order. Caller
// holds the mutexes of fallbackGroup(hm).
//
//tiermerge:locks(shard)
func (g shardGroup) fallbackLocked(hm *history.Augmented, reason FallbackReason) *ConnectOutcome {
	out := &ConnectOutcome{Fallback: reason}
	if reason != FallbackNone {
		g.home.counters.Update(func(c *cost.Counts) { c.MergeFallbacks++ })
	}
	for i := 0; i < hm.H.Len(); i++ {
		if g.reexecLocked(hm.H.Txn(i), hm.Effects[i]) {
			out.Reprocessed++
		} else {
			out.Failed++
		}
	}
	return out
}

// Checkout is the token a mobile node receives when it synchronizes its
// replica before disconnecting.
type Checkout struct {
	MobileID string
	WindowID int
	// Pos is the base-history position of the snapshot (Strategy 1 only).
	Pos int
	// Origin is the snapshot the tentative history starts from. It is
	// read-only: under Strategy 2 it is the tier's window origin itself,
	// shared by every checkout of the window (a window advance installs a
	// new map rather than changing this one), so holders copy it before
	// writing — a mobile node's working replica is such a copy. Under
	// Strategy 1 it is a private copy of the master state.
	Origin model.State
	// OriginID is Origin's content identity when Origin is a Strategy 2
	// window origin (model.State.Digest for a plain cluster, a composite
	// of the shards' ids for a sharded one); empty under Strategy 1. Peers
	// that both hold the origin exchange the id instead of the snapshot.
	OriginID string
	// Shards carries the per-shard checkout tokens when the checkout came
	// from a sharded base tier (ShardedBase.CheckoutReplica); nil for a
	// plain cluster checkout. All entries agree on WindowID (the window
	// barrier guarantees it), and Origin is their union.
	Shards []Checkout
}

// CheckoutReplica hands a mobile node its origin snapshot: the window
// origin under Strategy 2, the live master state under Strategy 1. The
// download is charged to the communication budget.
//
//tiermerge:locks(none)
func (b *BaseCluster) CheckoutReplica(mobileID string) Checkout {
	start := spanStart(b.cfg.Observer)
	b.mu.Lock()
	w := b.cfg.Weights
	ck := Checkout{MobileID: mobileID, WindowID: b.windowID}
	if b.cfg.Origin == Strategy1 {
		ck.Pos = len(b.entries)
		ck.Origin = b.master.Clone()
	} else {
		// Shared, not copied: the window origin is immutable (see
		// windowOrigin), and every holder treats Checkout.Origin as
		// read-only.
		ck.Origin = b.windowOrigin
		if b.originID == "" {
			b.originID = b.windowOrigin.Digest()
		}
		ck.OriginID = b.originID
	}
	b.counters.Msg(w, int64(len(ck.Origin))*w.UpdateEntryBytes)
	b.mu.Unlock()
	emit(b.cfg.Observer, obs.Event{Mobile: mobileID, Phase: obs.PhaseCheckout, Dur: sinceSpan(start)})
	return ck
}

// token returns the cluster's own checkout token out of ck: its per-shard
// token when ck came from a sharded tier, ck itself otherwise.
func (b *BaseCluster) token(ck Checkout) Checkout {
	if ck.Shards == nil {
		return ck
	}
	return ck.Shards[b.shard]
}

// Preview computes the merge report a connect would produce right now —
// precedence graph, back-out set, saved set, forwarded updates — without
// committing anything or charging costs. Mobile users call it to see what a
// reconnect would cost them before going online ("what will I lose?").
//
//tiermerge:locks(none)
func (b *BaseCluster) Preview(ck Checkout, hm *history.Augmented) (*merge.Report, error) {
	return b.solo.preview(ck, hm)
}

// preview validates and snapshots under the group's mutexes, then merges
// outside them: the augmented view stays valid after release (see
// windowPrefix), and the merge is the heavy step — running it locked would
// stall admissions and invoke any configured MergeOptions.Observer under a
// mutex (a lockorder violation).
//
//tiermerge:locks(none)
func (g shardGroup) preview(ck Checkout, hm *history.Augmented) (*merge.Report, error) {
	gs, fb := g.snapshot(ck)
	switch fb {
	case FallbackNone:
	case FallbackWindowExpired:
		return nil, fmt.Errorf("preview: %w (checkout window %d): everything would be reprocessed",
			ErrWindowExpired, ck.WindowID)
	default:
		return nil, fmt.Errorf("preview: %w: everything would be reprocessed", ErrOriginInvalid)
	}
	var ver int64
	gs.combine(&ver)
	return merge.Merge(hm, gs.view.hb, g.home.cfg.MergeOptions)
}
