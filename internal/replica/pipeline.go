package replica

import (
	"errors"
	"fmt"

	"tiermerge/internal/cost"
	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/lockmgr"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
)

// Concurrent merge pipeline. The original Merge held the cluster mutex
// across the entire protocol — graph build, back-out, the O(n²) rewrite,
// pruning and re-execution — so N reconnecting mobiles queued end-to-end
// (the degradation E11 measures). The pipeline splits the protocol into:
//
//  1. snapshot: a short critical section captures an immutable view of the
//     base prefix (window, history position, origin validity, the cached
//     augmented sub-history);
//  2. prepare: all heavy computation runs lock-free against the snapshot,
//     charging its cost into a private delta;
//  3. admit: a short critical section revalidates the snapshot — the base
//     history is unchanged, or every extension entry's read/write sets are
//     disjoint from the merge's footprint (the same test Strategy 1
//     already applies to forwarded updates) — then installs the forwarded
//     updates, merges the cost delta, and re-executes the backed-out
//     transactions.
//
// A failed validation retries prepare against the extended prefix; after
// MergeAttempts tries the merge degrades to running serially under the
// cluster lock, which always succeeds. Admission additionally acquires the
// merge's write footprint through the lock manager (sorted, with deadlock
// retry) before entering the critical section, so merges serialize with
// concurrent base transactions under the same strict-2PL discipline
// ExecBase uses.
//
// Every step runs over a shardGroup: the base clusters the reconnect
// involves, in ascending tier order, plus the tier's item→owner lookup. A
// plain BaseCluster is a group of one that owns every item; a sharded tier
// (shard.go) hands the pipeline the shards owning the merge's footprint.
// One set of functions serves both. A group of one snapshots its cluster's
// own prefix under its real structure version; a cross-shard group
// combines its members' prefixes into one serial view (combineParts) and
// revalidates and installs across all of them. An install holds the
// group's mutexes widened by the owners of every item a re-executed
// transaction may touch (shardGroup.with), so a re-execution that branches
// onto another shard finds that shard held.
//
// Incremental re-prepare keeps retries cheap at scale: a retry carries the
// previous attempt's preparedMerge. Base transactions are durable and only
// append to the history between structural changes, so the precedence
// graph is monotone in the base suffix: prepareMerge extends the prior
// graph with just the entries in [prevSnap.histLen, snap.histLen) instead
// of rebuilding it, and reruns back-out/rewrite only when the extension
// adds an edge incident to Hm (merge.Extend). The mobile's upload (set
// entries, local graph edges) is billed once per reconnect, never on a
// retry.

// defaultMergeAttempts is the optimistic prepare/admit attempt budget when
// Config.MergeAttempts is zero.
const defaultMergeAttempts = 3

// prefixSnapshot is the immutable base-prefix view a merge prepares
// against.
//
//tiermerge:immutable
type prefixSnapshot struct {
	windowID  int
	structVer int64
	histLen   int // committed entries at snapshot time
	pos       int // validated checkout position (0 under Strategy 2)
	hb        *history.Augmented
}

// preparedMerge is the outcome of the lock-free prepare phase.
type preparedMerge struct {
	snap prefixSnapshot
	// parts are a cross-shard group's member snapshots, which snap
	// combines and admission revalidates one by one; nil for a group of
	// one, whose member snapshot is snap itself (memberSnap).
	parts []prefixSnapshot
	rep   *merge.Report
	// footprint is the union of Hm's actual read and write sets — the
	// items whose base-side history must not have changed for the prepared
	// report to stay valid.
	footprint model.ItemSet
	// deltaFoot is the footprint's delta-pure subset: items every Hm
	// transaction touching them accessed only as a pure commutative
	// increment. A base extension entry that is itself delta-pure on such
	// an item is invisible to the prepared merge — the graph extension
	// would only elide edges, never add one incident to Hm, and the net
	// forwarded delta composes with the extension's increments — so
	// admission validation tolerates the overlap instead of retrying.
	// Empty under DisableDeltas and under Strategy 1 (whose interior
	// insert shifts later states by the inserted write images, which an
	// overlapping extension entry would corrupt).
	deltaFoot model.ItemSet
	effByTxn  map[*tx.Transaction]*tx.Effect
	// insertConflict records a Strategy 1 insert-position conflict found
	// against the snapshot prefix; admission falls back to reprocessing.
	insertConflict bool
	// deltaPrepare holds charges incurred by any merge that ran to the
	// insert-conflict check; deltaCommit holds charges only an installed
	// merge pays. Both merge into the shared counters at admission.
	//
	// Across retry attempts deltaPrepare accumulates: each re-prepare
	// starts from the previous attempt's delta and adds only the new work
	// (the incremental graph extension, or a full rebuild when the prefix
	// changed shape), so the admitted attempt bills every piece of compute
	// the reconnect actually performed — and the mobile→base upload
	// exactly once.
	deltaPrepare, deltaCommit cost.Counts
}

// bindMerge stamps merge identity (mobile, sequence number, attempt) onto
// every event an inner protocol step emits, so prepare sub-phase events
// from package merge land in the right trace group.
func bindMerge(o obs.Observer, mobile string, seq int64, attempt int) obs.Observer {
	if o == nil {
		return nil
	}
	return obs.ObserverFunc(func(ev obs.Event) {
		if ev.Mobile == "" {
			ev.Mobile = mobile
		}
		if ev.Seq == 0 {
			ev.Seq = seq
		}
		if ev.Attempt == 0 {
			ev.Attempt = attempt
		}
		o.Observe(ev)
	})
}

// eventBuffer queues events emitted inside a critical section for delivery
// after the lock is released. The serial degradation path runs the whole
// protocol under b.mu, where calling out to a user observer is forbidden;
// it buffers here and the caller flushes post-unlock. Single-goroutine use
// only — no lock needed.
type eventBuffer struct{ events []obs.Event }

func (eb *eventBuffer) Observe(ev obs.Event) { eb.events = append(eb.events, ev) }

// shardGroup is the set of base clusters one operation of the base tier
// involves — the one parameter the pipeline varies between a plain cluster
// and a sharded tier. The tier's item→owner lookup comes with the home
// cluster: a plain cluster owns every item, a shard routes through its
// tier (owner).
type shardGroup struct {
	// members are the involved clusters in ascending tier order, never
	// empty; their mutexes, taken in this order (lockClusters), are the
	// operation's critical section.
	members []*BaseCluster
	// home is the lowest shard of the operation's own footprint: it takes
	// the operation's tier-level charges and numbers its merges. A
	// widened group (with) keeps it.
	home *BaseCluster
}

// cross reports whether the group spans more than one shard.
func (g shardGroup) cross() bool { return len(g.members) > 1 }

// owner returns the cluster owning item it.
func (g shardGroup) owner(it model.Item) *BaseCluster {
	s := g.home.tier
	if s == nil {
		return g.home
	}
	return s.shards[s.router.Shard(it)]
}

// with widens the group by the owners of items, keeping its home. A plain
// cluster's group, like any group already holding every owner, comes back
// as it is.
func (g shardGroup) with(items []model.Item) shardGroup {
	s := g.home.tier
	if s == nil {
		return g
	}
	hit := make([]bool, len(s.shards))
	for _, b := range g.members {
		hit[b.shard] = true
	}
	grown := false
	for _, it := range items {
		if k := s.router.Shard(it); !hit[k] {
			hit[k], grown = true, true
		}
	}
	if !grown {
		return g
	}
	var members []*BaseCluster
	for k, h := range hit {
		if h {
			members = append(members, s.shards[k])
		}
	}
	return shardGroup{members: members, home: g.home}
}

// observer returns where the group's events go: a group of one reports
// through its cluster's observer (shard-stamped in a sharded tier), a
// cross-shard group through the tier's.
func (g shardGroup) observer() obs.Observer {
	if g.cross() {
		return g.home.tier.cfg.Observer
	}
	return g.home.cfg.Observer
}

// emit delivers one of the group's events, marking a cross-shard group's
// with Detail "cross-shard". Never called under a held mutex.
func (g shardGroup) emit(ev obs.Event) {
	if g.cross() {
		ev.Detail = "cross-shard"
	}
	emit(g.observer(), ev)
}

// lockClusters acquires the given clusters' mutexes in ascending shard
// order — the one global acquisition order every multi-cluster path uses,
// so two cross-shard admits (or an admit and a cross-shard base
// transaction) can never deadlock on shard mutexes. Callers pass a group's
// members, which are in that order.
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

// lockItems takes owner's item locks in the given (sorted) order, each on
// its owning cluster's lock manager — exclusive on writes, shared
// otherwise — waiting as needed and retrying as a deadlock victim up to
// ten times. On failure it releases whatever it took. It must never run
// while a cluster mutex is held: item locks come first, then the mutexes,
// and nothing under a mutex ever waits on an item lock.
//
//tiermerge:blocking
func (g shardGroup) lockItems(owner string, items []model.Item, writes model.ItemSet) error {
	for attempt := 0; ; attempt++ {
		var err error
		for _, it := range items {
			mode := lockmgr.Shared
			if writes.Has(it) {
				mode = lockmgr.Exclusive
			}
			if err = g.owner(it).lm.Acquire(owner, it, mode); err != nil {
				break
			}
		}
		if err == nil {
			return nil
		}
		g.releaseItems(owner)
		if !errors.Is(err, lockmgr.ErrDeadlock) || attempt >= 10 {
			return err
		}
	}
}

// releaseItems drops owner's item locks on every member.
func (g shardGroup) releaseItems(owner string) {
	for _, b := range g.members {
		b.lm.ReleaseAll(owner)
	}
}

// sync forces every member's journal to stable media. Every path that
// acknowledges a commit or a window advance calls it after releasing the
// mutexes: the flush blocks on file I/O, which must never run under a
// cluster mutex. An in-memory sink makes it a no-op.
//
//tiermerge:locks(none)
//tiermerge:blocking
func (g shardGroup) sync() error {
	for _, b := range g.members {
		b.mu.Lock()
		j := b.journal
		b.mu.Unlock()
		if j == nil {
			continue
		}
		if err := j.Sync(); err != nil {
			return fmt.Errorf("replica: journal sync: %w", err)
		}
	}
	return nil
}

// merge runs the merging protocol for one reconnect over the group, then
// forces the journals it wrote: the installed forwarded updates and
// re-executions must be durable before the mobile node treats its
// tentative work as saved.
//
//tiermerge:locks(none)
func (g shardGroup) merge(ck Checkout, hm *history.Augmented) (*ConnectOutcome, error) {
	out, wrote, err := g.mergeAttempts(ck, hm)
	if err != nil {
		return nil, err
	}
	if err := wrote.sync(); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeAttempts runs the optimistic attempts and, when they all fail
// validation, the serial round. It returns the outcome and the group whose
// journals the outcome was written to.
//
//tiermerge:locks(none)
func (g shardGroup) mergeAttempts(ck Checkout, hm *history.Augmented) (*ConnectOutcome, shardGroup, error) {
	home, o := g.home, g.observer()
	attempts := home.cfg.MergeAttempts
	if attempts == 0 {
		attempts = defaultMergeAttempts
	}
	hook := home.hookAfterPrepare
	if g.cross() {
		hook = home.tier.hookAfterPrepare
	}
	seq := home.mergeSeq.Add(1)
	mergeStart := spanStart(o)
	// finish emits the fallback classification (if any) and the
	// whole-reconnect summary event, then passes the result through.
	finish := func(out *ConnectOutcome, wrote shardGroup, err error) (*ConnectOutcome, shardGroup, error) {
		if o == nil {
			return out, wrote, err
		}
		ev := obs.Event{Mobile: ck.MobileID, Seq: seq, Phase: obs.PhaseMerge, Dur: sinceSpan(mergeStart)}
		if err != nil {
			ev.Err = err.Error()
		} else if out != nil {
			if out.Fallback != FallbackNone {
				g.emit(obs.Event{
					Mobile: ck.MobileID, Seq: seq,
					Phase: obs.PhaseFallback, Cause: obs.Cause(out.Fallback),
				})
			}
			ev.Saved = out.Saved
			ev.BackedOut = len(out.BadIDs)
			ev.Reexecuted = out.Reprocessed
			ev.Failed = out.Failed
		}
		g.emit(ev)
		return out, wrote, err
	}
	var prev *preparedMerge
	var ver int64 // a cross-shard group's synthetic structure version
	for attempt := 1; attempt <= attempts; attempt++ {
		snapStart := spanStart(o)
		gs, fb := g.snapshot(ck)
		if fb != FallbackNone {
			out, wrote := g.fallback(hm, fb)
			return finish(out, wrote, nil)
		}
		gs.combine(&ver)
		g.emit(obs.Event{
			Mobile: ck.MobileID, Seq: seq,
			Phase: obs.PhaseSnapshot, Attempt: attempt, Dur: sinceSpan(snapStart),
		})

		p, err := prepareMerge(home.cfg, gs.view, hm, prev, bindMerge(o, ck.MobileID, seq, attempt))
		if err != nil {
			return finish(nil, shardGroup{}, err)
		}
		p.parts = gs.parts
		if hook != nil {
			hook(attempt)
		}
		admitStart := spanStart(o)
		out, wrote, cause, err := g.admit(ck, hm, p)
		if err != nil {
			return finish(nil, shardGroup{}, err)
		}
		g.emit(obs.Event{
			Mobile: ck.MobileID, Seq: seq,
			Phase: obs.PhaseAdmit, Attempt: attempt, Dur: sinceSpan(admitStart), Cause: cause,
		})
		if out != nil {
			return finish(out, wrote, nil)
		}
		// Validation failed: the base history grew a conflicting extension
		// (or changed shape). Retry prepare against the extended prefix,
		// carrying the prepared merge so the retry extends instead of
		// rebuilding.
		prev = p
	}
	// Degrade to the serial path: the whole protocol under the mutexes of
	// every shard the reconnect can touch cannot be invalidated. The
	// carried prepared merge still applies: the serial prepare extends it
	// (or rebuilds without re-billing the upload). Sub-phase events are
	// buffered and flushed after unlock (see eventBuffer).
	var buf *eventBuffer
	var inner obs.Observer
	if o != nil {
		buf = &eventBuffer{}
		inner = bindMerge(buf, ck.MobileID, seq, 0)
	}
	serialStart := spanStart(o)
	wrote := g.fallbackGroup(hm)
	lockClusters(wrote.members)
	out, err := g.mergeSerialLocked(ck, hm, prev, &ver, inner)
	unlockClusters(wrote.members)
	if buf != nil {
		for _, ev := range buf.events {
			o.Observe(ev)
		}
	}
	// The serial-degrade mark goes through emit like every other phase, so
	// trace consumers always see the serial attempt (it must not hide
	// behind the buffered sub-phase flush above).
	g.emit(obs.Event{
		Mobile: ck.MobileID, Seq: seq,
		Phase: obs.PhaseSerial, Attempt: max(attempts, 0), Dur: sinceSpan(serialStart),
	})
	return finish(out, wrote, err)
}

// groupSnap is a group's captured base prefix: the view prepare runs
// against and, for a cross-shard group, each member's own snapshot (which
// admission revalidates) with the cross-shard identities parallel to its
// entries.
type groupSnap struct {
	view  prefixSnapshot
	parts []prefixSnapshot
	refs  [][]*crossTxn
}

// snapshot captures the group's prefix under its members' mutexes.
//
//tiermerge:locks(none)
func (g shardGroup) snapshot(ck Checkout) (groupSnap, FallbackReason) {
	lockClusters(g.members)
	gs, fb := g.snapshotLocked(ck)
	unlockClusters(g.members)
	return gs, fb
}

// snapshotLocked validates every member's checkout token and captures its
// prefix snapshot: a group of one's is the view itself, a cross-shard
// group's parts wait for combine. Caller holds every member's mutex.
//
//tiermerge:locks(shard)
func (g shardGroup) snapshotLocked(ck Checkout) (gs groupSnap, fb FallbackReason) {
	if !g.cross() {
		gs.view, fb = g.home.snapshotLocked(g.home.token(ck))
		return gs, fb
	}
	gs.parts = make([]prefixSnapshot, len(g.members))
	gs.refs = make([][]*crossTxn, len(g.members))
	for i, b := range g.members {
		if gs.parts[i], fb = b.snapshotLocked(b.token(ck)); fb != FallbackNone {
			return groupSnap{}, fb
		}
		gs.refs[i] = b.crossRefsLocked(gs.parts[i].pos)
	}
	return gs, FallbackNone
}

// combine builds a cross-shard group's view from its members' snapshots
// under the next synthetic structure version. *ver counts down, so no two
// attempts of one merge share a version and prepareMerge always rebuilds:
// per-shard suffixes cannot be grafted onto a combined graph. A group of
// one keeps its member's snapshot, real structure version and all, so
// incremental re-prepare applies.
func (gs *groupSnap) combine(ver *int64) {
	if gs.parts == nil {
		return
	}
	*ver--
	gs.view = combineParts(gs.parts, gs.refs, *ver)
}

// snapshotLocked validates the checkout token and captures the prefix
// snapshot. Caller holds b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) snapshotLocked(ck Checkout) (prefixSnapshot, FallbackReason) {
	if ck.WindowID != b.windowID {
		return prefixSnapshot{}, FallbackWindowExpired
	}
	pos := 0
	if b.cfg.Origin == Strategy1 {
		pos = ck.Pos
		if pos > len(b.entries) || !ck.Origin.Equal(b.stateAt(pos)) {
			return prefixSnapshot{}, FallbackOriginInvalid
		}
	}
	return prefixSnapshot{
		windowID:  b.windowID,
		structVer: b.structVer,
		histLen:   len(b.entries),
		pos:       pos,
		hb:        b.baseAugmented(pos),
	}, FallbackNone
}

// prepareMerge runs every heavy step of the merging protocol against the
// snapshot without any cluster lock, accumulating the Section 7.1 charges
// into private deltas. o (may be nil) receives the prepare sub-phase span
// events — graph build/extend, back-out, rewrite, prune — already bound to
// the owning merge.
//
// prev, when non-nil, is the previous attempt's prepared merge. Its
// accumulated charges carry over, and the mobile→base upload (set entries,
// local graph edges and their message) is never re-billed: the mobile ships
// Hm once per reconnect. When the new snapshot is an append-only extension
// of prev's — same window, same structure version, same position, history
// at least as long — the precedence graph is extended in place
// (merge.Extend) and only the incremental graph work is charged; otherwise
// the prepare rebuilds from scratch (charging the rebuild, which is work
// actually performed).
func prepareMerge(cfg Config, snap prefixSnapshot, hm *history.Augmented, prev *preparedMerge, o obs.Observer) (*preparedMerge, error) {
	w := cfg.Weights
	p := &preparedMerge{snap: snap}
	opts := cfg.MergeOptions
	opts.Observer = o

	if prev != nil {
		// A retry: carry the accumulated charges (failed-attempt compute is
		// work performed; the admitted attempt bills it all) and the
		// Hm-derived state, which no base change can alter.
		p.deltaPrepare = prev.deltaPrepare
		p.deltaPrepare.MergeRetries++
		p.footprint = prev.footprint
		p.deltaFoot = prev.deltaFoot
		p.effByTxn = prev.effByTxn
		if canExtend(prev.snap, snap) {
			if done, err := p.extendFrom(cfg, snap, hm, prev, opts); err != nil {
				return nil, err
			} else if done {
				return p, nil
			}
			// Not extendable after all: fall through to a full re-prepare.
		}
	} else {
		// First attempt. Communication, mobile -> base: read/write sets of
		// Hm plus G(Hm) — billed exactly once per reconnect.
		var setEntries, localEdges int64
		mobAcc := graph.AccessesOf(hm)
		p.footprint = make(model.ItemSet)
		for _, a := range mobAcc {
			setEntries += int64(len(a.ReadSet) + len(a.WriteSet))
			for it := range a.ReadSet {
				p.footprint.Add(it)
			}
			for it := range a.WriteSet {
				p.footprint.Add(it)
			}
		}
		gm := graph.Build(mobAcc, nil)
		for v := 0; v < gm.Len(); v++ {
			localEdges += int64(len(gm.Succ(v)))
		}
		p.deltaPrepare.Msg(w, setEntries*w.SetEntryBytes+localEdges*w.GraphEdgeBytes)
		p.deltaPrepare.SetEntriesSent += setEntries
		p.deltaPrepare.GraphEdgesSent += localEdges
		p.deltaPrepare.MobileGraphOps += int64(gm.Len()) + localEdges
		p.deltaFoot = deltaFootprint(cfg, hm, p.footprint)

		p.effByTxn = make(map[*tx.Transaction]*tx.Effect, hm.H.Len())
		for i := 0; i < hm.H.Len(); i++ {
			p.effByTxn[hm.H.Txn(i)] = hm.Effects[i]
		}
	}

	rep, err := merge.Merge(hm, snap.hb, opts)
	if err != nil {
		return nil, fmt.Errorf("replica: merge: %w", err)
	}
	p.rep = rep
	p.chargePrepared(cfg, hm, snap.hb.Effects)
	p.chargeCommit(w)
	return p, nil
}

// canExtend reports whether next is an append-only extension of prev: the
// same window, the same structural shape and checkout position, with a base
// history at least as long. Exactly then the entries in
// [prev.histLen, next.histLen) are the only difference, and grafting them
// onto prev's precedence graph reproduces a from-scratch build.
func canExtend(prev, next prefixSnapshot) bool {
	return prev.windowID == next.windowID &&
		prev.structVer == next.structVer &&
		prev.pos == next.pos &&
		next.histLen >= prev.histLen
}

// extendFrom performs the incremental re-prepare: extend prev's precedence
// graph with the base entries committed since prev's snapshot, rerun the
// downstream protocol steps only if the extension added an edge incident to
// Hm, and charge only the incremental work. Returns done=false (with p
// untouched beyond the carried fields) when the prior report cannot be
// extended and the caller must rebuild.
func (p *preparedMerge) extendFrom(cfg Config, snap prefixSnapshot, hm *history.Augmented, prev *preparedMerge, opts merge.Options) (done bool, err error) {
	w := cfg.Weights
	prevBase := prev.rep.Graph.BaseLen
	prevElided := prev.rep.Graph.Elided
	suffix := &history.Augmented{
		H:       &history.History{Entries: snap.hb.H.Entries[prevBase:]},
		Effects: snap.hb.Effects[prevBase:],
	}
	rep, info, err := merge.Extend(prev.rep, hm, suffix, opts)
	if err != nil {
		if errors.Is(err, merge.ErrNotExtendable) {
			return false, nil
		}
		return false, fmt.Errorf("replica: merge extend: %w", err)
	}
	p.rep = rep
	// Incremental graph work: vertices and edges actually added, plus the
	// delta-delta conflict pairs the extension elided instead of adding.
	p.deltaPrepare.BaseGraphOps += int64(info.NewVertices + info.NewEdges)
	p.deltaPrepare.EdgesElided += int64(rep.Graph.Elided - prevElided)
	if info.Reran {
		// Back-out, rewrite and prune reran on the extended graph; charge
		// them like a fresh prepare, and the refreshed set B travels
		// base -> mobile again.
		var fullEdges int64
		for v := 0; v < rep.Graph.Len(); v++ {
			fullEdges += int64(len(rep.Graph.Succ(v)))
		}
		rewriteOps := int64(hm.H.Len())
		if rep.RewriteResult != nil {
			rewriteOps += int64(rep.RewriteResult.PairChecks)
		}
		p.deltaPrepare.BaseBackoutOps += fullEdges + int64(len(rep.BadIDs))*int64(rep.Graph.Len())
		p.deltaPrepare.MobileRewriteOps += rewriteOps
		p.deltaPrepare.MobilePruneOps += int64(len(rep.Reexecute) + len(rep.AffectedIDs))
		p.deltaPrepare.Msg(w, int64(len(rep.BadIDs))*w.SetEntryBytes)
		p.insertConflict = scanInsertConflict(cfg, snap.hb.Effects, rep.ForwardUpdates, rep.ForwardDeltas)
	} else {
		// The report is unchanged; only the new suffix needs the Strategy 1
		// insert-conflict scan.
		p.insertConflict = prev.insertConflict ||
			scanInsertConflict(cfg, suffix.Effects, rep.ForwardUpdates, rep.ForwardDeltas)
	}
	p.chargeCommit(w)
	return true, nil
}

// chargePrepared records the base- and mobile-side compute of a full
// (from-scratch) prepare, plus the Strategy 1 insert-conflict scan over the
// snapshot prefix.
func (p *preparedMerge) chargePrepared(cfg Config, hm *history.Augmented, prefixEffects []*tx.Effect) {
	w := cfg.Weights
	rep := p.rep
	// Base computing: building G(Hm, Hb) and computing B.
	var fullEdges int64
	for v := 0; v < rep.Graph.Len(); v++ {
		fullEdges += int64(len(rep.Graph.Succ(v)))
	}
	rewriteOps := int64(hm.H.Len()) // scan cost even when nothing moves
	if rep.RewriteResult != nil {
		rewriteOps += int64(rep.RewriteResult.PairChecks)
	}
	p.deltaPrepare.BaseGraphOps += int64(rep.Graph.Len()) + fullEdges
	p.deltaPrepare.EdgesElided += int64(rep.Graph.Elided)
	p.deltaPrepare.BaseBackoutOps += fullEdges + int64(len(rep.BadIDs))*int64(rep.Graph.Len())
	// Base -> mobile: the set B.
	p.deltaPrepare.MobileRewriteOps += rewriteOps // actual pair checks, O(n^2) worst case
	p.deltaPrepare.MobilePruneOps += int64(len(rep.Reexecute) + len(rep.AffectedIDs))
	p.deltaPrepare.Msg(w, int64(len(rep.BadIDs))*w.SetEntryBytes)

	// Strategy 1 serializes the saved work at the checkout position; that
	// is only possible when no committed base transaction after it
	// conflicts with the forwarded updates (otherwise durable history
	// would change). The snapshot prefix covers entries[pos:histLen];
	// admission's extension check covers everything committed since.
	p.insertConflict = scanInsertConflict(cfg, prefixEffects, rep.ForwardUpdates, rep.ForwardDeltas)
}

// deltaFootprint derives the delta-pure subset of the merge footprint: the
// items every tentative transaction touching them accessed only as pure
// commutative increments. Disabled (nil) when delta semantics are off or
// under Strategy 1 — the interior insert shifts later states by its write
// images, which is only exact when nothing after the insert position
// touches the forwarded items, delta-pure or not.
func deltaFootprint(cfg Config, hm *history.Augmented, footprint model.ItemSet) model.ItemSet {
	if cfg.MergeOptions.DisableDeltas || cfg.Origin == Strategy1 {
		return nil
	}
	unsafe := make(model.ItemSet)
	mark := func(set model.ItemSet, pure model.ItemSet) {
		for it := range set {
			if !pure.Has(it) {
				unsafe.Add(it)
			}
		}
	}
	for _, eff := range hm.Effects {
		pure := eff.DeltaPure()
		mark(eff.ReadSet, pure)
		mark(eff.WriteSet, pure)
	}
	out := make(model.ItemSet)
	for it := range footprint {
		if !unsafe.Has(it) {
			out.Add(it)
		}
	}
	return out
}

// extensionInvisible reports whether one base entry committed since the
// snapshot is invisible to the prepared merge: it touches nothing in the
// merge footprint, or every footprint item it touches is delta-pure on both
// sides — the mobile side accessed it only as pure increments (deltaFoot)
// and the entry did too. Such an entry adds no precedence edge incident to
// Hm (the delta-delta pairs are elided), so the prepared report is exactly
// what a re-prepare over the longer prefix would compute, and the net
// forwarded deltas compose with the entry's increments at install time.
func (p *preparedMerge) extensionInvisible(eff *tx.Effect) bool {
	if eff.ReadSet.Disjoint(p.footprint) && eff.WriteSet.Disjoint(p.footprint) {
		return true
	}
	if len(p.deltaFoot) == 0 {
		return false
	}
	pure := eff.DeltaPure()
	check := func(set model.ItemSet) bool {
		for it := range set {
			if !p.footprint.Has(it) {
				continue
			}
			if !p.deltaFoot.Has(it) || !pure.Has(it) {
				return false
			}
		}
		return true
	}
	return check(eff.ReadSet) && check(eff.WriteSet)
}

// scanInsertConflict applies the Strategy 1 insert-position test: some
// committed base transaction in effects touches an item the forwarded
// write-back (values or deltas) would rewrite at the checkout position.
func scanInsertConflict(cfg Config, effects []*tx.Effect, values, deltas map[model.Item]model.Value) bool {
	if cfg.Origin != Strategy1 || len(values)+len(deltas) == 0 {
		return false
	}
	updItems := make(model.ItemSet, len(values)+len(deltas))
	for it := range values {
		updItems.Add(it)
	}
	for it := range deltas {
		updItems.Add(it)
	}
	for _, eff := range effects {
		if !eff.ReadSet.Disjoint(updItems) || !eff.WriteSet.Disjoint(updItems) {
			return true
		}
	}
	return false
}

// chargeCommit records the charges only an installed merge pays: the
// forwarded-updates message and the outcome tallies. Recomputed fresh on
// every attempt (never accumulated) — they describe the one admitted
// outcome, not work performed.
func (p *preparedMerge) chargeCommit(w cost.Weights) {
	rep := p.rep
	nUpd := int64(len(rep.ForwardUpdates) + len(rep.ForwardDeltas))
	p.deltaCommit = cost.Counts{}
	p.deltaCommit.Msg(w, nUpd*w.UpdateEntryBytes)
	p.deltaCommit.UpdatesSent += nUpd
	p.deltaCommit.DeltaFolded += int64(rep.DeltaFolded)
	p.deltaCommit.TxnsSaved += int64(len(rep.SavedIDs))
	p.deltaCommit.TxnsBackedOut += int64(len(rep.Reexecute))
	p.deltaCommit.MergesPerformed++
}

// lockPlan derives the admission lock set: exclusive on every item the
// merge writes (forwarded updates plus re-executed write sets), shared on
// the items re-execution reads.
func (p *preparedMerge) lockPlan(mobileID string) (owner string, items []model.Item, writes model.ItemSet) {
	owner = "merge:" + mobileID
	all := make(model.ItemSet)
	writes = make(model.ItemSet)
	for it := range p.rep.ForwardUpdates {
		all.Add(it)
		writes.Add(it)
	}
	for it := range p.rep.ForwardDeltas {
		all.Add(it)
		writes.Add(it)
	}
	for _, t := range p.rep.Reexecute {
		for it := range t.StaticReadSet() {
			all.Add(it)
		}
		for it := range t.StaticWriteSet() {
			all.Add(it)
			writes.Add(it)
		}
	}
	return owner, all.Items(), writes
}

// admit is one attempt's admission: take the merge's item locks on their
// owners, then the mutexes of the group widened by those owners (a
// re-execution may branch onto a shard the snapshot did not cover),
// revalidate the snapshot, and install. A nil outcome means validation
// failed and the caller should re-prepare; cause classifies the retry
// (struct-changed, extension-conflict) or the in-admission fallback
// (window-expired), which reprocesses after the locks are released. wrote
// is the group the outcome's journal records went to.
//
//tiermerge:locks(none)
func (g shardGroup) admit(ck Checkout, hm *history.Augmented, p *preparedMerge) (out *ConnectOutcome, wrote shardGroup, cause obs.Cause, err error) {
	owner, items, writes := p.lockPlan(ck.MobileID)
	wrote = g.with(items)
	if len(items) > 0 {
		// Same two-phase pattern as ExecBase: item locks first, then the
		// mutexes; nothing under a mutex ever waits on a lock, so lock waits
		// cannot entangle with mutex waits.
		if lockErr := wrote.lockItems(owner, items, writes); lockErr != nil {
			return nil, shardGroup{}, obs.CauseNone, fmt.Errorf("replica: merge locks for %s: %w", ck.MobileID, lockErr)
		}
	}
	lockClusters(wrote.members)
	out, cause, fb := g.admitLocked(ck, p)
	unlockClusters(wrote.members)
	if len(items) > 0 {
		wrote.releaseItems(owner)
	}
	if fb != FallbackNone {
		out, wrote = g.fallback(hm, fb)
	}
	return out, wrote, cause, nil
}

// admitLocked validates the prepared merge against every member's live
// history and installs it on success. It returns a nil outcome with the
// retry cause when validation failed, and a fallback reason instead of
// installing when the merge must reprocess. Caller holds the members'
// mutexes and those of every shard the re-executions reach.
//
//tiermerge:locks(shard)
func (g shardGroup) admitLocked(ck Checkout, p *preparedMerge) (*ConnectOutcome, obs.Cause, FallbackReason) {
	for _, b := range g.members {
		if b.token(ck).WindowID != b.windowID {
			// The window closed between prepare and admit; the prepared
			// work is unusable under any validation.
			return nil, obs.CauseWindowExpired, FallbackWindowExpired
		}
	}
	// The base extension must be invisible to the merge: every entry
	// committed on a member since its snapshot must touch nothing Hm read
	// or wrote — or overlap only on items both sides access purely as
	// commutative deltas (extensionInvisible). Then G(Hm, Hb) gains no edge
	// incident to Hm, B and the rewrite are unchanged, and appending the
	// forwarded write-back after the extension commutes with it. A member's
	// entries carry only its own items' reads and writes, which is exactly
	// the merge footprint's share of that member.
	for i, b := range g.members {
		snap := p.memberSnap(i)
		if snap.structVer != b.structVer {
			return nil, obs.CauseStructChanged, FallbackNone
		}
		for j := snap.histLen; j < len(b.entries); j++ {
			if !p.extensionInvisible(b.entries[j].eff) {
				return nil, obs.CauseExtensionConflict, FallbackNone
			}
		}
	}
	out, fb := g.installLocked(ck, p)
	return out, obs.CauseNone, fb
}

// memberSnap returns member i's own prefix snapshot.
func (p *preparedMerge) memberSnap(i int) prefixSnapshot {
	if p.parts == nil {
		return p.snap
	}
	return p.parts[i]
}

// mergeSerialLocked runs the whole protocol under the mutexes — the
// degradation path after repeated validation failures, immune to
// invalidation by construction. Caller holds the mutex of every shard the
// reconnect can touch (fallbackGroup). ver is the merge's synthetic
// structure version counter (see combine). prev (may be nil) is the last
// optimistic attempt's prepared merge: the serial prepare extends it when
// possible and never re-bills the upload. o must not be a user observer:
// events would fire under the mutexes. The caller passes an eventBuffer
// (or nil) and flushes it after unlocking.
//
//tiermerge:locks(shard)
//tiermerge:buffered-events
func (g shardGroup) mergeSerialLocked(ck Checkout, hm *history.Augmented, prev *preparedMerge, ver *int64, o obs.Observer) (*ConnectOutcome, error) {
	gs, fb := g.snapshotLocked(ck)
	if fb != FallbackNone {
		return g.fallbackLocked(hm, fb), nil
	}
	gs.combine(ver)
	p, err := prepareMerge(g.home.cfg, gs.view, hm, prev, o)
	if err != nil {
		return nil, err
	}
	p.parts = gs.parts
	out, fb := g.installLocked(ck, p)
	if fb != FallbackNone {
		out = g.fallbackLocked(hm, fb)
	}
	return out, nil
}

// installLocked commits a validated prepared merge: charge the deltas to
// the home cluster (one deterministic shard, so aggregate counters stay
// schedule-independent), install the forwarded updates, and re-execute the
// backed-out transactions (step 6), comparing each against its tentative
// effect for acceptance. Under a Strategy 1 insert conflict it installs
// nothing and returns FallbackInsertConflict for the caller to reprocess.
// Caller holds the members' mutexes and those of every shard the
// re-executions reach.
//
//tiermerge:locks(shard)
func (g shardGroup) installLocked(ck Checkout, p *preparedMerge) (*ConnectOutcome, FallbackReason) {
	home := g.home
	home.counters.Add(p.deltaPrepare)
	if p.insertConflict {
		return nil, FallbackInsertConflict
	}
	home.counters.Add(p.deltaCommit)
	if g.cross() {
		home.counters.Update(func(c *cost.Counts) { c.CrossShardMerges++ })
	}
	g.installForwardedLocked(ck.MobileID, p)
	out := &ConnectOutcome{Merged: true, Report: p.rep, BadIDs: p.rep.BadIDs, Saved: len(p.rep.SavedIDs)}
	for _, t := range p.rep.Reexecute {
		if g.reexecLocked(t, p.effByTxn[t]) {
			out.Reprocessed++
		} else {
			out.Failed++
		}
	}
	return out, FallbackNone
}

// installForwardedLocked installs the merge's forwarded write-back
// (repaired values plus net deltas) at each member's strategy position:
// the tail under Strategy 2, the checkout position under Strategy 1, whose
// insert-conflict check cleared it. A cross-shard group's write-back goes
// through the tier's slice installer. Caller holds every member's mutex.
//
//tiermerge:locks(shard)
func (g shardGroup) installForwardedLocked(mobileID string, p *preparedMerge) {
	values, deltas := p.rep.ForwardUpdates, p.rep.ForwardDeltas
	if len(values)+len(deltas) == 0 {
		return
	}
	at := func(i int) int {
		if g.home.cfg.Origin == Strategy1 {
			return p.memberSnap(i).pos
		}
		return len(g.members[i].entries)
	}
	if !g.cross() {
		g.home.installForwarded(mobileID, values, deltas, at(0))
		return
	}
	g.home.tier.installForwardedAcrossLocked(g, mobileID, values, deltas, at)
}
