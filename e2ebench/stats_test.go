package main

import (
	"math"
	"testing"
	"time"

	"tiermerge"
	"tiermerge/internal/obs"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{199, 90},
		{100, 90},
		{40, 75},
		{39, 50},
		{20, 50},
		{19, 0},
		{0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 1000; i++ {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
}

func TestMedianDoesNotReorderSamples(t *testing.T) {
	s := []time.Duration{5, 1, 4, 2, 3}
	if got := median(s); got != 3 {
		t.Errorf("median = %d, want 3", got)
	}
	if s[0] != 5 || s[4] != 3 {
		t.Errorf("median reordered its input: %v", s)
	}
	if got := median([]time.Duration{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of even count = %d, want the lower middle 2", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	if got := selfTime(10, 3, 4); got != 3 {
		t.Errorf("selfTime(10, 3, 4) = %g, want 3", got)
	}
	if got := selfTime(10); got != 10 {
		t.Errorf("selfTime(10) = %g, want 10", got)
	}
	if got := selfTime(5, 3, 4); got != -2 {
		t.Errorf("selfTime(5, 3, 4) = %g, want -2 (children overrun the parent)", got)
	}
}

// budgetOutcome builds a measured phase of n reconnects of reconnectMs
// each, whose nested spans total the given milliseconds.
func budgetOutcome(n int, reconnectMs, wireMerge, wireCheckout, frameMerge, frameCheckout, tierMerge, tierCheckout, pipeline, crossSync float64) *outcome {
	d := func(msTotal float64) time.Duration {
		return time.Duration(msTotal * float64(n) * float64(time.Millisecond))
	}
	o := &outcome{}
	for i := 0; i < n; i++ {
		o.reconnectLat = append(o.reconnectLat, time.Duration(reconnectMs*float64(time.Millisecond)))
	}
	o.before = probe{spans: map[string]time.Duration{}, spanN: map[string]int64{}, reg: tiermerge.MetricsSnapshot{
		Histograms: map[string]obs.HistogramSnapshot{},
	}}
	o.after = probe{
		spans: map[string]time.Duration{
			"wire.merge": d(wireMerge), "wire.checkout": d(wireCheckout),
			"tier.merge": d(tierMerge), "tier.checkout": d(tierCheckout),
			"cross.sync": d(crossSync),
		},
		spanN: map[string]int64{},
		reg: tiermerge.MetricsSnapshot{Histograms: map[string]obs.HistogramSnapshot{
			wireSeconds("merge"):               {Sum: d(frameMerge).Seconds()},
			wireSeconds("checkout"):            {Sum: d(frameCheckout).Seconds()},
			phaseSeconds(tiermerge.PhaseMerge): {Sum: d(pipeline).Seconds()},
		}},
	}
	return o
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestLayerBudgetTelescopes(t *testing.T) {
	// 20 ms reconnect: 12 ms merge call + 5 ms checkout call on the wire;
	// 10 + 4 ms of server frames; 7 + 2 ms in the tier, of which the
	// merge span is 6 ms including 1 ms of cross-shard sync.
	b := layerBudget(budgetOutcome(10, 20, 12, 5, 10, 4, 7, 2, 6, 1))
	want := map[string]float64{
		"client": 3, // 20 - 12 - 5
		"wire":   3, // 17 - 14
		"server": 5, // 14 - 9
		"tier":   2, // the checkout call
		"merge":  5, // 6 - 1 cross-shard sync
		"store":  2, // 7 - 5
	}
	for _, l := range b.layers() {
		if !near(l.value, want[l.name]) {
			t.Errorf("%s self time = %g ms, want %g", l.name, l.value, want[l.name])
		}
	}
	if c := b.closure(); !near(c, 1) {
		t.Errorf("closure = %g, want 1", c)
	}
}

func TestLayerBudgetReportsSpansThatDoNotNest(t *testing.T) {
	// Server frames longer than the wire calls that carry them: the wire
	// self time goes negative and the budget no longer closes.
	b := layerBudget(budgetOutcome(10, 20, 12, 5, 15, 4, 7, 2, 6, 0))
	if b.wire >= 0 {
		t.Errorf("wire self time = %g ms, want negative", b.wire)
	}
	if c := b.closure(); near(c, 1) {
		t.Errorf("closure = %g, want a budget that does not close", c)
	}
}

func TestRequestKindReadsTheEnvelopeKind(t *testing.T) {
	for payload, want := range map[string]string{
		`{"kind":"merge","mobile":"m1","seq":3}`: "merge",
		`{"kind":"checkout","mobile":"m1"}`:      "checkout",
		`{"mobile":"m1","kind":"merge"}`:         "",
		`{"kind":"merge`:                         "",
		``:                                       "",
	} {
		if got := requestKind([]byte(payload)); got != want {
			t.Errorf("requestKind(%s) = %q, want %q", payload, got, want)
		}
	}
}

func TestMedianRateIgnoresAStalledWindow(t *testing.T) {
	start := time.Unix(1000, 0)
	var done []time.Time
	// 10 per second for four seconds, then a second with one completion.
	for sec := 0; sec < 4; sec++ {
		for i := 0; i < 10; i++ {
			done = append(done, start.Add(time.Duration(sec)*time.Second+time.Duration(i)*time.Millisecond))
		}
	}
	done = append(done, start.Add(4500*time.Millisecond))
	if got := medianRate(start, start.Add(5*time.Second), done); got != 10 {
		t.Errorf("medianRate = %g, want 10", got)
	}
	// A phase shorter than one window falls back to the overall rate.
	if got := medianRate(start, start.Add(500*time.Millisecond), done[:5]); got != 10 {
		t.Errorf("medianRate over half a window = %g, want 10", got)
	}
}
