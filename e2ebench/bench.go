package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tiermerge"
	"tiermerge/internal/obs"
	"tiermerge/internal/wire"
)

// setupRuns is how many times a run sets the system up; setup_s is their
// median, and the last set-up system is the one measured.
const setupRuns = 5

// reopens is how many times the recovery measurement reopens the closed
// store; recovery_s is their median.
const reopens = 11

// durableTier is what the benchmark needs of the durable base tier beyond
// the served surface: the count-driven window and checkpoint calls, and
// closing the store without a drain checkpoint.
type durableTier interface {
	tiermerge.BaseTier
	AdvanceWindow() int
	Checkpoint() error
	CloseStore() error
}

// openTier opens (or recovers) the workload's durable tier under dir and
// returns the journal records its recovery replayed.
func openTier(dir string, s spec, origin tiermerge.State, cfg tiermerge.ClusterConfig) (durableTier, int, error) {
	if s.shards == 1 {
		b, rec, err := tiermerge.OpenBase(dir, origin, cfg)
		if err != nil {
			return nil, 0, err
		}
		return b, rec.Records, nil
	}
	sb, recs, err := tiermerge.OpenShardedBase(dir, origin, s.shards, cfg)
	if err != nil {
		return nil, 0, err
	}
	n := 0
	for _, r := range recs {
		n += r.Records
	}
	return sb, n, nil
}

// countsOf returns the tier's Section 7.1 event counters.
func countsOf(t durableTier) tiermerge.CostCounts {
	switch t := t.(type) {
	case *tiermerge.BaseCluster:
		return t.Counters().Snapshot()
	case *tiermerge.ShardedBase:
		return t.Counters()
	}
	return tiermerge.CostCounts{}
}

// bench is one run of one workload.
type bench struct {
	spec   spec
	opts   options
	items  []tiermerge.Item
	origin tiermerge.State

	// completed counts finished reconnects across drivers and phases; the
	// driver that completes the n-th one advances the window or
	// checkpoints when n is a multiple of the workload's cadence.
	completed atomic.Int64

	windowSpan, ckptSpan spanSum
	// rotatedBytes sums the size of every tail segment a checkpoint
	// rotated away, so rotatedBytes plus the live tails is the log written.
	rotatedBytes atomic.Int64
}

// system is one set-up instance of the stack: the durable tier, the
// BaseServer and wire server in front of it, and the driver fleet.
type system struct {
	dir    string
	tier   durableTier
	served tiermerge.BaseTier // tier, or its timing wrapper when traced
	timed  *timedTier
	// crossSync times the journal sync inside cross-shard merge spans
	// when traced.
	crossSync *crossSync
	metrics   *tiermerge.Metrics
	srv       *tiermerge.BaseServer
	ws        *wire.Server
	drivers   []*driver
}

// driver runs one closed loop: it owns one TCP transport and round-robins
// its logical mobiles over it, one reconnect at a time.
type driver struct {
	idx     int
	rng     *rand.Rand
	tr      *wire.Transport
	timed   *timedTransport
	ids     []string
	clients []*tiermerge.MobileClient
	next    int
	minted  int

	// deposits sums every Deposit amount that ran: shipped tentative ones
	// and committed base ones (the conservation check's right-hand side).
	deposits tiermerge.Value

	// Tallies of the measured phase. A failed operation ends the run, so
	// every attempted one succeeded.
	reconnectLat, baseLat []time.Duration
	doneAt                []time.Time // when each reconnect completed
	shipped, saved        int64
	attempted             int64
}

func newBench(s spec, o options) *bench {
	items := itemNames(s.items)
	return &bench{spec: s, opts: o, items: items, origin: originState(items)}
}

// start sets the stack up in a fresh directory: open the store (which
// writes its initial checkpoint), serve it, listen on loopback TCP, and
// dial and check out the whole fleet.
func (b *bench) start(ctx context.Context, dir string, drivers int) (*system, error) {
	m := tiermerge.NewMetrics()
	cfg := tiermerge.ClusterConfig{Observer: m}
	var cs *crossSync
	if b.opts.trace {
		cs = newCrossSync()
		cfg.Observer = tiermerge.MultiObserver(m, cs)
	}
	tier, _, err := openTier(dir, b.spec, b.origin, cfg)
	if err != nil {
		return nil, fmt.Errorf("open tier: %w", err)
	}
	sys := &system{dir: dir, tier: tier, served: tier, metrics: m, crossSync: cs}
	if b.opts.trace {
		sys.timed = &timedTier{BaseTier: tier}
		sys.served = sys.timed
	}
	sys.srv = tiermerge.Serve(sys.served, tiermerge.WithObserver(m))
	sys.ws = wire.NewServer(sys.srv, wire.ServerConfig{})
	addr, err := sys.ws.Listen("127.0.0.1:0")
	if err != nil {
		sys.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	for i := 0; i < drivers; i++ {
		d := &driver{
			idx: i,
			rng: rand.New(rand.NewSource(b.opts.seed*1000003 + int64(i))),
			tr:  wire.Dial(addr.String(), wire.ClientConfig{}),
		}
		sys.drivers = append(sys.drivers, d)
		var tr tiermerge.Transport = d.tr
		if b.opts.trace {
			d.timed = &timedTransport{inner: d.tr}
			tr = d.timed
		}
		for j := 0; j < fleet; j++ {
			id := fmt.Sprintf("d%d-m%d", i, j)
			c, err := tiermerge.DialTransport(ctx, id, tr)
			if err != nil {
				sys.close()
				return nil, fmt.Errorf("check out %s: %w", id, err)
			}
			d.ids = append(d.ids, id)
			d.clients = append(d.clients, c)
		}
	}
	return sys, nil
}

// closeFront closes the client transports, then the wire server and the
// BaseServer, leaving the store open. Clients go first: wire.Server.Close
// expires the read deadline of idle connections, but a handler that is
// between frames at that moment re-arms its idle deadline and keeps
// reading, so closing the server under connected clients can block for
// the whole idle timeout (two minutes by default).
func (s *system) closeFront() {
	for _, d := range s.drivers {
		d.tr.Close()
	}
	if s.ws != nil {
		s.ws.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.ws, s.srv, s.drivers = nil, nil, nil
}

// close tears the whole stack down; the store closes without a drain
// checkpoint.
func (s *system) close() error {
	s.closeFront()
	return s.tier.CloseStore()
}

// phase is the part of a run a reconnect belongs to.
type phase int

const (
	warmUp phase = iota
	measured
	// recoveryTail reconnects write the log a recovery replays. They skip
	// the window and checkpoint cadence, so every run replays as much.
	recoveryTail
)

// step runs one reconnect of the driver's next mobile: its tentative
// transactions, the timed ConnectMergeContext, then the workload's base
// transactions through ExecBase. It then advances the window or
// checkpoints when this reconnect's count calls for it. Only the measured
// phase's reconnects are tallied.
func (d *driver) step(ctx context.Context, b *bench, sys *system, p phase) error {
	record := p == measured
	k := d.next
	d.next = (d.next + 1) % len(d.clients)
	c, id := d.clients[k], d.ids[k]
	var deposits tiermerge.Value
	for i := 0; i < b.spec.tentative; i++ {
		t := b.spec.gen(d.rng, fmt.Sprintf("%s-t%d", id, d.minted), tiermerge.Tentative, b.items)
		d.minted++
		if err := c.Run(t); err != nil {
			return fmt.Errorf("%s: run %s: %w", id, t.ID, err)
		}
		deposits += depositAmount(t)
	}
	start := time.Now()
	out, err := c.ConnectMergeContext(ctx)
	lat := time.Since(start)
	if record {
		d.attempted++
	}
	if err != nil {
		return fmt.Errorf("%s: reconnect: %w", id, err)
	}
	if err := checkAccounting(out, b.spec.tentative); err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	d.deposits += deposits
	if record {
		d.reconnectLat = append(d.reconnectLat, lat)
		d.doneAt = append(d.doneAt, time.Now())
		d.shipped += int64(b.spec.tentative)
		d.saved += int64(out.Saved)
	}
	for i := 0; i < b.spec.base; i++ {
		t := b.spec.gen(d.rng, fmt.Sprintf("b%d-%d", d.idx, d.minted), tiermerge.Base, b.items)
		d.minted++
		start := time.Now()
		err := sys.served.ExecBase(t)
		lat := time.Since(start)
		if record {
			d.attempted++
		}
		if err != nil {
			return fmt.Errorf("exec base %s: %w", t.ID, err)
		}
		d.deposits += depositAmount(t)
		if record {
			d.baseLat = append(d.baseLat, lat)
		}
	}
	n := b.completed.Add(1)
	if p == recoveryTail {
		return nil
	}
	if n%int64(b.spec.window) == 0 {
		start := time.Now()
		sys.tier.AdvanceWindow()
		b.windowSpan.add(time.Since(start))
	}
	if n%int64(b.spec.checkpoint) == 0 {
		if err := b.checkpoint(sys); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint rotates the store's log, first adding the tails about to be
// rotated away to the bytes-written tally.
func (b *bench) checkpoint(sys *system) error {
	b.rotatedBytes.Add(tailBytes(sys.dir))
	start := time.Now()
	err := sys.tier.Checkpoint()
	b.ckptSpan.add(time.Since(start))
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// tailBytes sums the live tail segments under dir: the log bytes written
// since the last checkpoint rotated each shard's tail.
func tailBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasPrefix(e.Name(), "tail-") {
			return nil
		}
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// runPhase runs every driver's closed loop until more reports false or a
// driver fails; a failure stops the other drivers.
func (b *bench) runPhase(ctx context.Context, sys *system, p phase, more func() bool) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(sys.drivers))
	var wg sync.WaitGroup
	for i, d := range sys.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && more() {
				if err := d.step(ctx, b, sys, p); err != nil {
					errs[i] = err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	return ctx.Err()
}

// countdown returns a more-func that admits exactly n reconnects across
// all drivers.
func countdown(n int) func() bool {
	var left atomic.Int64
	left.Store(int64(n))
	return func() bool { return left.Add(-1) >= 0 }
}

// until returns a more-func that admits reconnects until the deadline.
func until(deadline time.Time) func() bool {
	return func() bool { return time.Now().Before(deadline) }
}

// probe is a point-in-time reading of every counter the metrics are
// deltas of.
type probe struct {
	at        time.Time
	counts    tiermerge.CostCounts
	reg       obs.Snapshot
	wireBytes int64
	redials   int64
	cpu       time.Duration
	steal     int64 // machine-wide stolen and total CPU ticks
	ticks     int64
	mallocs   uint64
	allocs    uint64
	logBytes  int64
	spans     map[string]time.Duration
	spanN     map[string]int64
}

func (b *bench) probe(sys *system) probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, ticks := cpuTicks()
	p := probe{
		at:       time.Now(),
		steal:    steal,
		ticks:    ticks,
		counts:   countsOf(sys.tier),
		reg:      sys.metrics.Registry().Snapshot(),
		cpu:      cpuTime(),
		mallocs:  ms.Mallocs,
		allocs:   ms.TotalAlloc,
		logBytes: b.rotatedBytes.Load() + tailBytes(sys.dir),
		spans:    map[string]time.Duration{},
		spanN:    map[string]int64{},
	}
	_, in, out, _ := sys.ws.Stats()
	p.wireBytes = in + out
	add := func(name string, s *spanSum) {
		d, n := s.total()
		p.spans[name] += d
		p.spanN[name] += n
	}
	for _, d := range sys.drivers {
		_, r := d.tr.Stats()
		p.redials += r
		if d.timed != nil {
			add("wire.merge", &d.timed.merge)
			add("wire.checkout", &d.timed.checkout)
		}
	}
	if t := sys.timed; t != nil {
		add("tier.merge", &t.merge)
		add("tier.checkout", &t.checkout)
		add("tier.execbase", &t.execBase)
		add("tier.reprocess", &t.reprocess)
	}
	if c := sys.crossSync; c != nil {
		add("cross.sync", &c.sync)
	}
	add("window", &b.windowSpan)
	add("checkpoint", &b.ckptSpan)
	return p
}

// outcome is everything a run measured, before it is turned into the
// reported metrics.
type outcome struct {
	setups     []time.Duration
	recoveries []time.Duration
	recRecords int
	before     probe
	after      probe
	elapsed    time.Duration

	reconnectLat, baseLat []time.Duration
	doneAt                []time.Time
	shipped, saved        int64
	attempted             int64
}

// run sets up, warms up, measures, and checks one workload, returning
// what it measured.
func (b *bench) run(ctx context.Context, root string, drivers int) (*outcome, error) {
	out := &outcome{}
	var sys *system
	for i := 0; i < setupRuns; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i-1, err)
			}
			os.RemoveAll(sys.dir)
		}
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", i))
		// Each timed set-up and reopen starts from a collected heap, so
		// garbage the previous step left does not decide when the
		// collector interrupts this one.
		runtime.GC()
		start := time.Now()
		var err error
		sys, err = b.start(ctx, dir, drivers)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(start))
	}
	closed := false
	defer func() {
		if !closed {
			sys.close()
		}
	}()

	if err := b.runPhase(ctx, sys, warmUp, countdown(b.spec.warmup)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	out.before = b.probe(sys)
	if err := b.runPhase(ctx, sys, measured, until(time.Now().Add(time.Duration(b.opts.seconds)*time.Second))); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	out.after = b.probe(sys)
	out.elapsed = out.after.at.Sub(out.before.at)
	for _, d := range sys.drivers {
		out.reconnectLat = append(out.reconnectLat, d.reconnectLat...)
		out.doneAt = append(out.doneAt, d.doneAt...)
		out.baseLat = append(out.baseLat, d.baseLat...)
		out.shipped += d.shipped
		out.saved += d.saved
		out.attempted += d.attempted
	}

	// Recovery: give every run the same log to replay — a fresh window and
	// checkpoint, then a fixed tail of reconnects — and close the store
	// without a drain checkpoint.
	sys.tier.AdvanceWindow()
	if err := b.checkpoint(sys); err != nil {
		return nil, err
	}
	if err := b.runPhase(ctx, sys, recoveryTail, countdown(b.spec.tail)); err != nil {
		return nil, fmt.Errorf("recovery tail: %w", err)
	}
	master := sys.tier.Master()
	if b.spec.conserving {
		var deposits tiermerge.Value
		for _, d := range sys.drivers {
			deposits += d.deposits
		}
		if err := checkConservation(b.origin, master, deposits); err != nil {
			return nil, err
		}
	}
	closed = true
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}
	// Drop the closed stack, so the collections before each reopen leave
	// the same small live heap in every run.
	dir := sys.dir
	sys = nil
	for i := 0; i < reopens; i++ {
		runtime.GC()
		start := time.Now()
		tier, records, err := openTier(dir, b.spec, b.origin, tiermerge.ClusterConfig{Observer: tiermerge.NewMetrics()})
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		out.recoveries = append(out.recoveries, time.Since(start))
		out.recRecords = records
		recovered := tier.Master()
		if err := tier.CloseStore(); err != nil {
			return nil, fmt.Errorf("close reopened store: %w", err)
		}
		if err := checkDurable(master, recovered); err != nil {
			return nil, err
		}
	}
	return out, nil
}
