package replica

import (
	"fmt"

	"tiermerge/internal/model"
	"tiermerge/internal/obs"
)

// Follower state: the base tier is lazy-master ("lazy replication
// asynchronously propagates replica updates to other nodes after the
// updating transaction", Section 1; reads go to the master, so base
// transactions keep ACID serializability). BaseCluster materializes the
// other BaseNodes-1 replicas as followers fed by per-follower update
// queues: every commit enqueues its write images, and queues drain either
// on demand (SyncReplicas) or automatically once they exceed
// maxReplicaLag entries.

// replUpdate is one propagated commit's write images.
type replUpdate struct {
	txID   string
	writes map[model.Item]model.Value
}

// follower is one lazy base replica.
type follower struct {
	state model.State
	queue []replUpdate
}

// maxReplicaLag bounds how many commits a follower may trail before the
// cluster drains its queue inline.
const maxReplicaLag = 64

// initFollowers builds the follower replicas. Caller holds b.mu (or is the
// constructor).
func (b *BaseCluster) initFollowers() {
	n := b.cfg.BaseNodes - 1
	if n <= 0 {
		return
	}
	b.followers = make([]*follower, n)
	for i := range b.followers {
		b.followers[i] = &follower{state: b.master.Clone()}
	}
}

// propagate enqueues one commit's writes to every follower and charges the
// propagation messages. Caller holds b.mu.
//
//tiermerge:locks(cluster)
func (b *BaseCluster) propagate(txID string, writes map[model.Item]model.Value) {
	if len(b.followers) == 0 || len(writes) == 0 {
		return
	}
	w := b.cfg.Weights
	cp := make(map[model.Item]model.Value, len(writes))
	for k, v := range writes {
		cp[k] = v
	}
	for _, f := range b.followers {
		f.queue = append(f.queue, replUpdate{txID: txID, writes: cp})
		b.counters.Msg(w, int64(len(cp))*w.UpdateEntryBytes)
		if len(f.queue) > maxReplicaLag {
			drainFollower(f)
		}
	}
}

// drainFollower applies a follower's queued updates in commit order.
//
//tiermerge:sink
func drainFollower(f *follower) {
	for _, u := range f.queue {
		f.state.Apply(u.writes)
	}
	f.queue = f.queue[:0]
}

// SyncReplicas drains every follower's queue and returns the number of
// updates applied.
//
//tiermerge:locks(none)
func (b *BaseCluster) SyncReplicas() int {
	start := spanStart(b.cfg.Observer)
	b.mu.Lock()
	applied := 0
	for _, f := range b.followers {
		applied += len(f.queue)
		drainFollower(f)
	}
	b.mu.Unlock()
	if applied > 0 {
		emit(b.cfg.Observer, obs.Event{Phase: obs.PhasePropagate, Dur: sinceSpan(start), Lag: applied})
	}
	return applied
}

// ReplicaLag returns each follower's queued-update count.
//
//tiermerge:locks(none)
func (b *BaseCluster) ReplicaLag() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	lags := make([]int, len(b.followers))
	for i, f := range b.followers {
		lags[i] = len(f.queue)
	}
	return lags
}

// FollowerState returns a copy of follower i's replica (after its queue
// position; it may trail the master until SyncReplicas).
//
//tiermerge:locks(none)
func (b *BaseCluster) FollowerState(i int) (model.State, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= len(b.followers) {
		return nil, fmt.Errorf("replica: no follower %d (cluster has %d)", i, len(b.followers))
	}
	return b.followers[i].state.Clone(), nil
}

// Converged reports whether every follower, after draining, equals the
// master — the protocol's convergence property.
//
//tiermerge:locks(none)
func (b *BaseCluster) Converged() bool {
	b.SyncReplicas()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, f := range b.followers {
		if !f.state.Equal(b.master) {
			return false
		}
	}
	return true
}
