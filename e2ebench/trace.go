package main

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"tiermerge"
	"tiermerge/internal/replica"
)

// spanSum accumulates the durations of one kind of span. Spans are kept
// as running sums, not lists: the layer budget needs means per reconnect,
// and a sum costs two atomic adds on the traced path.
type spanSum struct {
	ns, n atomic.Int64
}

func (s *spanSum) add(d time.Duration) {
	s.ns.Add(int64(d))
	s.n.Add(1)
}

// total returns the summed duration and span count so far.
func (s *spanSum) total() (time.Duration, int64) {
	return time.Duration(s.ns.Load()), s.n.Load()
}

// kindPrefix opens every request envelope the client sends: the envelope
// is a JSON object whose first field is the request kind.
var kindPrefix = []byte(`{"kind":"`)

// requestKind reads a request envelope's kind without decoding the rest
// of it ("merge", "checkout", ...), or "" when the payload does not start
// with one.
func requestKind(payload []byte) string {
	if !bytes.HasPrefix(payload, kindPrefix) {
		return ""
	}
	rest := payload[len(kindPrefix):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return ""
	}
	return string(rest[:end])
}

// timedTransport wraps a client Transport and times each call by the
// request kind it carries: the wire layer's span, seen from the client.
type timedTransport struct {
	inner           tiermerge.Transport
	merge, checkout spanSum
}

func (t *timedTransport) Call(ctx context.Context, payload []byte) ([]byte, error) {
	start := time.Now()
	resp, err := t.inner.Call(ctx, payload)
	d := time.Since(start)
	switch requestKind(payload) {
	case "merge":
		t.merge.add(d)
	case "checkout":
		t.checkout.add(d)
	}
	return resp, err
}

func (t *timedTransport) Close() error { return t.inner.Close() }

// timedTier wraps the tier a BaseServer serves and times the calls the
// server and the drivers make into it: the tier layer's spans.
type timedTier struct {
	tiermerge.BaseTier
	merge, checkout, execBase spanSum
	// reprocess sums the merges that fell back to re-executing the whole
	// tentative history.
	reprocess spanSum
}

func (t *timedTier) CheckoutReplica(mobileID string) replica.Checkout {
	start := time.Now()
	ck := t.BaseTier.CheckoutReplica(mobileID)
	t.checkout.add(time.Since(start))
	return ck
}

func (t *timedTier) Merge(ck replica.Checkout, hm *tiermerge.Augmented) (*tiermerge.ConnectOutcome, error) {
	start := time.Now()
	out, err := t.BaseTier.Merge(ck, hm)
	d := time.Since(start)
	t.merge.add(d)
	if err == nil && !out.Merged {
		t.reprocess.add(d)
	}
	return out, err
}

func (t *timedTier) ExecBase(txn *tiermerge.Transaction) error {
	start := time.Now()
	err := t.BaseTier.ExecBase(txn)
	t.execBase.add(time.Since(start))
	return err
}

// crossSync recovers the journal sync a cross-shard merge runs inside its
// merge span: the coordinator emits the successful admit event, forces
// every involved shard's log, then emits the merge event. Events arrive
// synchronously as they are emitted, so the gap between the two arrivals
// of one mobile's reconnect is the sync. (A shard-local merge syncs after
// its merge span instead, where the tier wrapper's time covers it.)
type crossSync struct {
	mu       sync.Mutex
	admitted map[string]time.Time // mobile -> arrival of its admit event
	sync     spanSum
}

func newCrossSync() *crossSync {
	return &crossSync{admitted: make(map[string]time.Time)}
}

func (c *crossSync) Observe(ev tiermerge.MergeEvent) {
	if ev.Detail != "cross-shard" {
		return
	}
	switch ev.Phase {
	case tiermerge.PhaseAdmit:
		if ev.Cause == "" {
			c.mu.Lock()
			c.admitted[ev.Mobile] = time.Now()
			c.mu.Unlock()
		}
	case tiermerge.PhaseMerge:
		c.mu.Lock()
		at, ok := c.admitted[ev.Mobile]
		delete(c.admitted, ev.Mobile)
		c.mu.Unlock()
		if ok {
			c.sync.add(time.Since(at))
		}
	}
}
