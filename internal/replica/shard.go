package replica

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"tiermerge/internal/cost"
	"tiermerge/internal/expr"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
)

// Sharded base tier. A single BaseCluster funnels every merge through one
// cluster mutex — the scalability ceiling E13/E15 measure. ShardedBase
// partitions the item space across N BaseCluster shards, each with its own
// mutex, window clock, base history, WAL journal and cost counters. It
// routes every operation to the group of shards owning its items and runs
// it through the one pipeline (pipeline.go, base.go) that also serves a
// plain cluster. A merge whose footprint lives in one partition runs as
// that shard's group of one — prepare, extend, admission — with no
// coordination, so disjoint merges on different shards share nothing at
// all. The rare cross-shard merge runs the same pipeline over several
// shards (DESIGN.md §11):
//
//  1. snapshot each involved shard's prefix and combine them into one
//     serial base view (combineParts), deduplicating previously installed
//     cross-shard transactions into their global identity (full
//     footprint) so cycles spanning partitions stay detectable;
//  2. prepare lock-free against the combined view;
//  3. admit: acquire the item locks on their owning shards, then the shard
//     mutexes in ascending shard order — one global order, so cross-shard
//     admits can never deadlock each other — revalidate every shard's
//     prefix, and install atomically across all of them or retry.
//
// What stays here is what is truly sharded: routing, the window barrier,
// origin composition, the per-shard tokens of a wire checkout, the
// combined view and the slice installer. Cross-shard installed
// transactions are stored per shard as restricted slices (this shard's
// reads and writes only) sharing one *crossTxn identity: restricted views
// are exact for single-shard merges (their conflicts with the transaction
// can only involve this shard's items), and the combined view is exact for
// cross-shard merges.

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
// ExecBase / AdvanceWindow). With one shard every operation's group is the
// underlying cluster's own — the N=1 configuration is byte-for-byte a
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

	// hookAfterPrepare mirrors BaseCluster.hookAfterPrepare for
	// cross-shard groups: tests use it to commit base transactions
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
		s.shards[k].tier, s.shards[k].shard = s, k
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
		if shards > 1 {
			b.tier, b.shard = s, k
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

// groupOf returns the group of shards owning the items of set, the lowest
// of them home; an empty set goes to shard 0. A single owner's group is
// that cluster's own group of one.
func (s *ShardedBase) groupOf(set model.ItemSet) shardGroup {
	ks := s.router.shardsOf(set)
	switch len(ks) {
	case 0:
		return s.shards[0].solo
	case 1:
		return s.shards[ks[0]].solo
	}
	members := make([]*BaseCluster, len(ks))
	for i, k := range ks {
		members[i] = s.shards[k]
	}
	return shardGroup{members: members, home: members[0]}
}

// ExecBase runs one base transaction against the sharded tier, over the
// group of shards owning its static read and write sets: installed whole
// on one shard, or as per-shard restricted slices sharing one cross-shard
// identity.
//
//tiermerge:locks(none)
func (s *ShardedBase) ExecBase(t *tx.Transaction) error {
	return s.groupOf(t.StaticReadSet().Union(t.StaticWriteSet())).execBase(t)
}

// installSlicesLocked installs one executed cross-shard transaction: for
// each involved shard a restricted slice transaction — reads of this
// shard's read-only items, constant writes of this shard's written values
// — is executed on the shard master (reproducing the restricted effect
// with true before-images) and appended to its history, all slices
// sharing one *crossTxn global identity carrying the full transaction and
// effect. ks are the shards the effect touches, ascending. Each shard
// forces its own commit record: a cross-shard install pays one forced
// write per involved shard, the genuine durability cost of spanning
// partitions. Caller holds every involved shard's mutex.
//
//tiermerge:locks(shard)
func (s *ShardedBase) installSlicesLocked(base *tx.Transaction, eff *tx.Effect, ks []int) {
	g := &crossTxn{t: base, eff: eff}
	for _, k := range ks {
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

// Merge runs the merging protocol against the sharded tier over the group
// of shards owning the merge's footprint: one shard's own pipeline, or
// the cross-shard two-phase admit.
//
//tiermerge:locks(none)
func (s *ShardedBase) Merge(ck Checkout, hm *history.Augmented) (*ConnectOutcome, error) {
	ck, err := s.shardTokens(ck)
	if err != nil {
		return nil, err
	}
	return s.groupOf(footprintOf(hm)).merge(ck, hm)
}

// shardTokens checks a checkout's per-shard tokens against the tier. A
// multi-shard checkout that crossed the wire with only the combined token
// gets them synthesized (wireTokens); a one-shard tier reads the combined
// token as its shard's own.
func (s *ShardedBase) shardTokens(ck Checkout) (Checkout, error) {
	switch {
	case ck.Shards == nil && len(s.shards) > 1:
		return s.wireTokens(ck), nil
	case ck.Shards != nil && len(ck.Shards) != len(s.shards):
		return ck, fmt.Errorf("%w: checkout carries %d shard tokens, tier has %d shards",
			ErrBadConfig, len(ck.Shards), len(s.shards))
	}
	return ck, nil
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

// Preview reports what a merge would do right now without committing
// anything, like BaseCluster.Preview.
//
//tiermerge:locks(none)
func (s *ShardedBase) Preview(ck Checkout, hm *history.Augmented) (*merge.Report, error) {
	ck, err := s.shardTokens(ck)
	if err != nil {
		return nil, err
	}
	return s.groupOf(footprintOf(hm)).preview(ck, hm)
}

// Reprocess runs the original two-tier protocol against the sharded tier,
// re-executing every tentative transaction on the shards it touches.
//
//tiermerge:locks(none)
func (s *ShardedBase) Reprocess(hm *history.Augmented) *ConnectOutcome {
	return s.groupOf(footprintOf(hm)).reprocess(hm)
}

// combineParts interleaves the involved shards' prefix snapshots into one
// combined serial base view. Shard-local entries are item-disjoint across
// shards, so any interleaving preserving each shard's order is a legal
// serial history; cross-shard slices are deduplicated into their global
// identity (full transaction, full effect) and emitted at a position
// consistent with every involved shard — the position every slice has
// reached, which exists because cross-shard installs append to all their
// shards atomically and snapshots are taken in ascending shard order.
// refs[i] holds the cross-shard identities parallel to parts[i]'s entries.
// structVer is a caller-chosen synthetic version; cross-shard retries pass
// strictly decreasing values so prepareMerge always rebuilds (per-shard
// suffixes cannot be grafted onto a combined graph).
func combineParts(parts []prefixSnapshot, refs [][]*crossTxn, structVer int64) prefixSnapshot {
	type ref struct{ part, pos int }
	where := make(map[*crossTxn][]ref)
	total := 0
	for pi := range parts {
		total += len(refs[pi])
		for i, g := range refs[pi] {
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
			for ptr[pi] < len(refs[pi]) {
				i := ptr[pi]
				g := refs[pi][i]
				switch {
				case g == nil:
					entries = append(entries, p.hb.H.Entries[i])
					effects = append(effects, p.hb.Effects[i])
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
		for pi := range parts {
			if ptr[pi] < len(refs[pi]) {
				done = false
			}
		}
		if done {
			break
		}
		if !progress {
			// Unreachable when snapshots respect the atomic cross-install
			// order; break the tie deterministically instead of spinning.
			for pi := range parts {
				if ptr[pi] < len(refs[pi]) {
					emitCross(refs[pi][ptr[pi]])
					ptr[pi]++
					break
				}
			}
		}
	}
	hb := &history.Augmented{H: &history.History{Entries: entries}, Effects: effects}
	return prefixSnapshot{
		windowID:  parts[0].windowID,
		structVer: structVer,
		histLen:   len(entries),
		pos:       0,
		hb:        hb,
	}
}

// installForwardedAcrossLocked installs a cross-shard group's forwarded
// write-back (repaired values plus net deltas). Updates confined to one
// shard go through that shard's ordinary installForwarded; updates
// spanning shards become one global forwarded transaction (the "XU"
// namespace) installed as per-shard slices sharing its identity. Member i
// installs at position at(i). Caller holds every member's mutex.
//
//tiermerge:locks(shard)
func (s *ShardedBase) installForwardedAcrossLocked(g shardGroup, mobileID string, values, deltas map[model.Item]model.Value, at func(i int) int) {
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
	if len(hit) == 1 {
		for i, b := range g.members {
			if hit[b.shard] > 0 {
				b.installForwarded(mobileID, valsBy[b.shard], delsBy[b.shard], at(i))
			}
		}
		return
	}
	gt := s.crossForwardTxn(mobileID, values, deltas)
	geff, err := gt.ExecInPlace(g.gatherLocked(gt.StaticReadSet().Union(gt.StaticWriteSet())), nil)
	if err != nil {
		panic(fmt.Sprintf("replica: forwarded updates failed: %v", err))
	}
	xt := &crossTxn{t: gt, eff: geff}
	for i, b := range g.members {
		n := hit[b.shard]
		if n == 0 {
			continue
		}
		slice := s.sliceTxn(gt, geff, b.shard, deltas)
		slice.Type = "forwarded-updates"
		b.installForwardTxn(slice, n, at(i), xt)
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
