package main

import (
	"time"

	"tiermerge"
	"tiermerge/internal/obs"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// wireSeconds and phaseSeconds name the registry histograms the server
// and merge layers already export.
func wireSeconds(endpoint string) string {
	return obs.Label("tiermerge_wire_request_seconds", "endpoint", endpoint)
}

func phaseSeconds(phase tiermerge.MergePhase) string {
	return obs.Label(obs.MetricPhaseSeconds, "phase", string(phase))
}

// The methods below read the change of a counter between the two probes
// of the measured phase.

func (o *outcome) reconnects() float64 { return float64(len(o.reconnectLat)) }

// histMs is a registry histogram's summed milliseconds over the phase.
func (o *outcome) histMs(name string) float64 {
	return (o.after.reg.Histograms[name].Sum - o.before.reg.Histograms[name].Sum) * 1000
}

func (o *outcome) counter(name string) float64 {
	return float64(o.after.reg.Counters[name] - o.before.reg.Counters[name])
}

func (o *outcome) spanMs(name string) float64 {
	return ms(o.after.spans[name] - o.before.spans[name])
}

func (o *outcome) spanCount(name string) float64 {
	return float64(o.after.spanN[name] - o.before.spanN[name])
}

// spanMean is the mean duration of one span kind over the phase, or 0
// when none ran.
func (o *outcome) spanMean(name string) float64 {
	if n := o.spanCount(name); n > 0 {
		return o.spanMs(name) / n
	}
	return 0
}

// count is the change of one Section 7.1 counter over the phase.
func (o *outcome) count(field func(tiermerge.CostCounts) int64) float64 {
	return float64(field(o.after.counts) - field(o.before.counts))
}

// endToEnd computes the metrics a user of the system sees, from the
// untraced run. The informational ones are printed but left out of the
// result line: base-commit latency is mostly an fsync and moves with the
// host's load more than any bound allows (see README.md).
func endToEnd(o *outcome) (gated, informational []metric) {
	rec := sortedCopy(o.reconnectLat)
	base := sortedCopy(o.baseLat)
	n := o.reconnects()
	w := tiermerge.DefaultCostWeights()
	costDelta := float64(o.after.counts.Weighted(w).Total() - o.before.counts.Weighted(w).Total())
	gated = []metric{
		{"reconnect_p50_ms", ms(percentile(rec, 50)), "ms"},
		{"reconnect_p99_ms", ms(percentile(rec, 99)), "ms"},
		{"reconnects_per_s", medianRate(o.before.at, o.after.at, o.doneAt), "1/s"},
		{"saved_frac", float64(o.saved) / float64(o.shipped), "ratio"},
		{"cost_per_reconnect", costDelta / n, "cost"},
		{"setup_s", median(o.setups).Seconds(), "s"},
		{"recovery_s", median(o.recoveries).Seconds(), "s"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}
	informational = []metric{
		{"base_txn_p50_ms", ms(percentile(base, 50)), "ms"},
		{"base_txn_p99_ms", ms(percentile(base, 99)), "ms"},
	}
	return gated, informational
}

// budget is the traced run's per-reconnect time budget: each layer's
// self time, in milliseconds.
type budget struct {
	reconnect                                float64
	client, wire, server, tier, merge, store float64
	wireMerge, wireCheckout                  float64
	frameMerge, frameCheckout                float64
	tierMerge, tierCheckout                  float64
}

// layerBudget telescopes the nested spans of a reconnect into self times:
// the client-observed reconnect contains two wire calls (merge, then the
// re-checkout), each wire call a server frame, each frame a tier call,
// and the tier's merge call the merge pipeline span and the journal sync
// (after the span for a shard-local merge, at its end for a cross-shard
// one).
func layerBudget(o *outcome) budget {
	n := o.reconnects()
	var reconnect time.Duration
	for _, l := range o.reconnectLat {
		reconnect += l
	}
	b := budget{
		reconnect:     ms(reconnect) / n,
		wireMerge:     o.spanMs("wire.merge") / n,
		wireCheckout:  o.spanMs("wire.checkout") / n,
		frameMerge:    o.histMs(wireSeconds("merge")) / n,
		frameCheckout: o.histMs(wireSeconds("checkout")) / n,
		tierMerge:     o.spanMs("tier.merge") / n,
		tierCheckout:  o.spanMs("tier.checkout") / n,
	}
	crossSync := o.spanMs("cross.sync") / n
	b.merge = o.histMs(phaseSeconds(tiermerge.PhaseMerge))/n - crossSync
	b.client = selfTime(b.reconnect, b.wireMerge, b.wireCheckout)
	b.wire = selfTime(b.wireMerge+b.wireCheckout, b.frameMerge, b.frameCheckout)
	b.server = selfTime(b.frameMerge+b.frameCheckout, b.tierMerge, b.tierCheckout)
	// The merge call's time outside its pipeline is the journal sync; the
	// tier's own time is then its checkout call.
	b.store = selfTime(b.tierMerge, b.merge)
	b.tier = selfTime(b.tierMerge+b.tierCheckout, b.merge, b.store)
	return b
}

// layers lists the budget's self times in report order.
func (b budget) layers() []metric {
	return []metric{
		{"client", b.client, "ms"},
		{"wire", b.wire, "ms"},
		{"server", b.server, "ms"},
		{"tier", b.tier, "ms"},
		{"merge", b.merge, "ms"},
		{"store", b.store, "ms"},
	}
}

// closure is the sum of the layers' self times over the reconnect time. A
// negative self time (spans that do not nest) counts as zero, so a budget
// that does not add up shows as a closure away from 1.
func (b budget) closure() float64 {
	var sum float64
	for _, l := range b.layers() {
		sum += max(l.value, 0)
	}
	return sum / b.reconnect
}

// perLayer computes the layer metrics from the traced run.
func perLayer(o *outcome) []metric {
	n := o.reconnects()
	b := layerBudget(o)
	mergeSub := 0.0
	sub := func(phases ...tiermerge.MergePhase) float64 {
		var sum float64
		for _, p := range phases {
			sum += o.histMs(phaseSeconds(p))
		}
		mergeSub += sum / n
		return sum / n
	}
	snapshot := sub(tiermerge.PhaseSnapshot)
	graph := sub(tiermerge.PhaseGraph, obs.PhaseExtend)
	backout := sub(tiermerge.PhaseBackout)
	rewrite := sub(tiermerge.PhaseRewrite)
	prune := sub(tiermerge.PhasePrune)
	admit := sub(tiermerge.PhaseAdmit)
	fallbackLabel := func(cause tiermerge.MergeCause) string {
		return obs.Label(obs.MetricFallbacks, "cause", string(cause))
	}
	fbWindow := o.counter(fallbackLabel(obs.CauseWindowExpired))
	fbOther := o.counter(fallbackLabel(obs.CauseOriginInvalid)) + o.counter(fallbackLabel(obs.CauseInsertConflict))
	commits := n + float64(len(o.baseLat))

	out := []metric{
		{"client.self_ms", b.client, "ms"},

		{"wire.call_ms.merge", b.wireMerge, "ms"},
		{"wire.call_ms.checkout", b.wireCheckout, "ms"},
		{"wire.self_ms", b.wire, "ms"},
		{"wire.bytes_per_reconnect", float64(o.after.wireBytes-o.before.wireBytes) / n, "B"},
		{"wire.redials", float64(o.after.redials - o.before.redials), "count"},

		{"server.frame_ms.merge", b.frameMerge, "ms"},
		{"server.frame_ms.checkout", b.frameCheckout, "ms"},
		{"server.self_ms", b.server, "ms"},

		{"tier.merge_ms", b.tierMerge, "ms"},
		{"tier.checkout_ms", b.tierCheckout, "ms"},
		{"tier.execbase_ms", o.spanMean("tier.execbase"), "ms"},
		{"tier.self_ms", b.tier, "ms"},
		{"tier.admit_retries_per_merge", o.count(func(c tiermerge.CostCounts) int64 { return c.MergeRetries }) / n, "count"},
		{"tier.cross_shard_frac", o.count(func(c tiermerge.CostCounts) int64 { return c.CrossShardMerges }) / n, "ratio"},
		{"tier.serial_degrades", o.counter(obs.MetricSerial), "count"},

		{"merge.pipeline_ms", b.merge, "ms"},
		{"merge.snapshot_ms", snapshot, "ms"},
		{"merge.graph_ms", graph, "ms"},
		{"merge.backout_ms", backout, "ms"},
		{"merge.rewrite_ms", rewrite, "ms"},
		{"merge.prune_ms", prune, "ms"},
		{"merge.admit_ms", admit, "ms"},
		{"merge.self_ms", selfTime(b.merge, mergeSub), "ms"},
		{"merge.graph_ops_per_reconnect", o.count(func(c tiermerge.CostCounts) int64 { return c.BaseGraphOps + c.MobileGraphOps }) / n, "count"},
		{"merge.edges_elided_per_reconnect", o.count(func(c tiermerge.CostCounts) int64 { return c.EdgesElided }) / n, "count"},
		{"merge.backedout_per_reconnect", o.count(func(c tiermerge.CostCounts) int64 { return c.TxnsBackedOut }) / n, "count"},
		{"merge.fallback_frac", (fbWindow + fbOther) / n, "ratio"},
		{"merge.fallback_frac.window_expired", fbWindow / n, "ratio"},
		{"merge.fallback_frac.other", fbOther / n, "ratio"},

		{"store.sync_ms", b.store, "ms"},
		{"store.checkpoint_ms", o.spanMean("checkpoint"), "ms"},
		{"store.window_advance_ms", o.spanMean("window"), "ms"},
		{"store.log_bytes_per_commit", float64(o.after.logBytes-o.before.logBytes) / commits, "B"},
		{"store.recovery_records", float64(o.recRecords), "count"},

		{"tx.reexecuted_per_reconnect", o.count(func(c tiermerge.CostCounts) int64 { return c.TxnsReprocessed }) / n, "count"},
		{"tx.reprocess_ms", o.spanMs("tier.reprocess") / n, "ms"},

		{"runtime.cpu_ms_per_reconnect", ms(o.after.cpu-o.before.cpu) / n, "ms"},
		{"runtime.alloc_bytes_per_reconnect", float64(o.after.allocs-o.before.allocs) / n, "B"},
		{"runtime.allocs_per_reconnect", float64(o.after.mallocs-o.before.mallocs) / n, "count"},

		{"trace.reconnect_ms", b.reconnect, "ms"},
		{"trace.reconnects_per_s", medianRate(o.before.at, o.after.at, o.doneAt), "1/s"},
		{"trace.budget_closure", b.closure(), "ratio"},
	}
	for _, l := range b.layers() {
		out = append(out, metric{"share." + l.name, l.value / b.reconnect, "ratio"})
	}
	return out
}
