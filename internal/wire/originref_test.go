package wire

// By-reference conformance: a Strategy 2 window origin crosses the wire
// once per window. Re-checkouts in the same window answer "same" instead
// of resending the snapshot, and reconnect journals name the origin by id
// (origin_ref). Every test runs over the in-process channel transport and
// over loopback TCP.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/replica"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
	"tiermerge/internal/workload"
)

var transportNames = []string{"chan", "tcp"}

// bigOrigin is an origin large enough that shipping it dominates a
// reconnect's bytes.
func bigOrigin() model.State {
	st := testOrigin()
	for i := 0; i < 512; i++ {
		st.Set(model.Item(fmt.Sprintf("item%03d", i)), model.Value(1000+i))
	}
	return st
}

// serveTier serves tier over the named transport and returns the server,
// a client transport to it, and a stop function closing both.
func serveTier(t *testing.T, name string, tier replica.BaseTier, opts ...replica.ServeOption) (*replica.BaseServer, replica.Transport, func()) {
	t.Helper()
	srv := replica.Serve(tier, opts...)
	if name == "chan" {
		return srv, srv.Transport(), srv.Close
	}
	ws := NewServer(srv, ServerConfig{})
	addr, err := ws.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	tr := Dial(addr.String(), ClientConfig{})
	return srv, tr, func() {
		tr.Close()
		ws.Close()
		srv.Close()
	}
}

// tapCall is one request and its response as the client saw them.
type tapCall struct{ req, resp []byte }

// tapTransport records every call with its response (nil when lost) and
// lets a test swap the server behind a connected client (a restart).
type tapTransport struct {
	mu    sync.Mutex
	inner replica.Transport
	calls []tapCall
}

func (tp *tapTransport) Call(ctx context.Context, payload []byte) ([]byte, error) {
	tp.mu.Lock()
	inner := tp.inner
	tp.mu.Unlock()
	resp, err := inner.Call(ctx, payload)
	tp.mu.Lock()
	tp.calls = append(tp.calls, tapCall{req: append([]byte(nil), payload...), resp: resp})
	tp.mu.Unlock()
	return resp, err
}

func (tp *tapTransport) Close() error { return nil }

func (tp *tapTransport) swap(inner replica.Transport) {
	tp.mu.Lock()
	tp.inner = inner
	tp.mu.Unlock()
}

// take returns the calls recorded since the last take.
func (tp *tapTransport) take() []tapCall {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := tp.calls
	tp.calls = nil
	return out
}

// tapFrame is the part of a request envelope these tests inspect.
type tapFrame struct {
	Kind    string `json:"kind"`
	Seq     int64  `json:"seq"`
	Have    string `json:"have"`
	Journal []byte `json:"journal"`
}

// tapResp is the part of a response envelope these tests inspect.
type tapResp struct {
	Err        string                     `json:"err"`
	Origin     map[model.Item]model.Value `json:"origin"`
	OriginID   string                     `json:"origin_id"`
	Same       bool                       `json:"same"`
	NeedOrigin bool                       `json:"need_origin"`
}

func decodeFrame(t *testing.T, raw []byte) tapFrame {
	t.Helper()
	var f tapFrame
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func decodeResp(t *testing.T, raw []byte) tapResp {
	t.Helper()
	var r tapResp
	if raw != nil {
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// journalCheckout returns a reconnect frame's checkout record.
func journalCheckout(t *testing.T, f tapFrame) wal.Record {
	t.Helper()
	recs, err := wal.ReadAll(bytes.NewReader(f.Journal))
	if err != nil || len(recs) == 0 {
		t.Fatalf("decode %s journal: %v (%d records)", f.Kind, err, len(recs))
	}
	return recs[0]
}

// callsOf filters recorded calls by request kind.
func callsOf(t *testing.T, calls []tapCall, kind string) []tapCall {
	t.Helper()
	var out []tapCall
	for _, c := range calls {
		if decodeFrame(t, c.req).Kind == kind {
			out = append(out, c)
		}
	}
	return out
}

// TestConformanceOriginByReference: within one window only the first
// checkout carries the origin. A reconnect's journal names it by id and
// its re-checkout answers "same", so the reconnect moves a small fraction
// of the origin's bytes.
func TestConformanceOriginByReference(t *testing.T) {
	for _, name := range transportNames {
		t.Run(name, func(t *testing.T) {
			cluster := replica.NewBaseCluster(bigOrigin(), replica.Config{})
			srv, inner, stop := serveTier(t, name, cluster)
			defer stop()
			ctx := context.Background()
			tap := &tapTransport{inner: inner}
			c, err := replica.DialTransport(ctx, "m1", tap)
			if err != nil {
				t.Fatal(err)
			}
			dial := tap.take()
			first := decodeResp(t, dial[0].resp)
			if first.OriginID == "" || first.Same || len(first.Origin) != len(bigOrigin()) {
				t.Fatalf("first checkout: id=%q same=%v origin=%d items, want an id and the full origin",
					first.OriginID, first.Same, len(first.Origin))
			}
			fullCheckout := len(dial[0].resp)

			for round := 1; round <= 2; round++ {
				if err := c.Run(workload.Deposit(fmt.Sprintf("T%d", round), tx.Tentative, "acct", 5)); err != nil {
					t.Fatal(err)
				}
				_, in0, out0 := srv.Stats()
				out, err := c.ConnectMergeContext(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Merged || out.Saved != 1 {
					t.Fatalf("round %d outcome %+v, want merged with 1 saved", round, out)
				}
				_, in1, out1 := srv.Stats()
				calls := tap.take()
				merges, checkouts := callsOf(t, calls, "merge"), callsOf(t, calls, "checkout")
				if len(merges) != 1 || len(checkouts) != 1 {
					t.Fatalf("round %d: %d merge and %d checkout calls, want 1 each", round, len(merges), len(checkouts))
				}
				ckRec := journalCheckout(t, decodeFrame(t, merges[0].req))
				if ckRec.OriginRef != first.OriginID || ckRec.Origin != nil {
					t.Errorf("round %d journal checkout: ref=%q origin=%d items, want ref %q and no origin",
						round, ckRec.OriginRef, len(ckRec.Origin), first.OriginID)
				}
				req := decodeFrame(t, checkouts[0].req)
				resp := decodeResp(t, checkouts[0].resp)
				if req.Have != first.OriginID || !resp.Same || resp.Origin != nil || resp.OriginID != first.OriginID {
					t.Errorf("round %d re-checkout: have=%q same=%v origin=%d items id=%q, want same without origin",
						round, req.Have, resp.Same, len(resp.Origin), resp.OriginID)
				}
				if moved := (in1 - in0) + (out1 - out0); moved*4 > int64(fullCheckout) {
					t.Errorf("round %d moved %d payload bytes, want under a quarter of the %d-byte origin checkout",
						round, moved, fullCheckout)
				}
			}
			// Strategy 2: every checkout of the window starts from its origin.
			if !c.Local().Equal(bigOrigin()) {
				t.Error("client replica is not the window origin after by-reference re-checkouts")
			}
			if got := cluster.Master().Get("acct"); got != 110 {
				t.Errorf("acct = %d, want 110", got)
			}
		})
	}
}

// TestConformanceOriginRefWindowAdvance: a window advance between checkout
// and merge still resolves the journal's ref (the server keeps the previous
// origin), and the re-checkout ships the new origin in full. After two
// advances the ref is gone: the server answers need_origin and the client
// resends the full journal under the same seq.
func TestConformanceOriginRefWindowAdvance(t *testing.T) {
	for _, name := range transportNames {
		t.Run(name, func(t *testing.T) {
			cluster := replica.NewBaseCluster(bigOrigin(), replica.Config{})
			_, inner, stop := serveTier(t, name, cluster)
			defer stop()
			ctx := context.Background()
			tap := &tapTransport{inner: inner}
			c, err := replica.DialTransport(ctx, "m1", tap)
			if err != nil {
				t.Fatal(err)
			}
			oldID := decodeResp(t, tap.take()[0].resp).OriginID

			// One advance: the ref resolves, the merge falls back to
			// reprocessing, and the re-checkout carries the new origin.
			if err := c.Run(workload.Deposit("T1", tx.Tentative, "acct", 5)); err != nil {
				t.Fatal(err)
			}
			if err := cluster.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 1)); err != nil {
				t.Fatal(err)
			}
			cluster.AdvanceWindow()
			newOrigin := cluster.Master()
			// Another mobile's checkout in the new window moves the
			// server's held origins on; the previous one stays resolvable.
			if _, err := replica.DialTransport(ctx, "m2", inner); err != nil {
				t.Fatal(err)
			}
			out, err := c.ConnectMergeContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if out.Merged || out.Fallback != replica.FallbackWindowExpired || out.Reprocessed != 1 {
				t.Errorf("outcome %+v, want a window-expired fallback reprocessing 1", out)
			}
			calls := tap.take()
			merges := callsOf(t, calls, "merge")
			if len(merges) != 1 || decodeResp(t, merges[0].resp).NeedOrigin {
				t.Fatalf("after one advance: %d merge calls, want 1 resolved by reference", len(merges))
			}
			resp := decodeResp(t, callsOf(t, calls, "checkout")[0].resp)
			if resp.Same || resp.OriginID == oldID || !model.State(resp.Origin).Equal(newOrigin) {
				t.Errorf("re-checkout after advance: same=%v id changed=%v, want the new origin in full",
					resp.Same, resp.OriginID != oldID)
			}

			// Two advances: the journal's ref is no longer held.
			if err := c.Run(workload.Deposit("T2", tx.Tentative, "acct", 5)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := cluster.ExecBase(workload.Deposit(fmt.Sprintf("Tb%d", i+2), tx.Base, "y", 1)); err != nil {
					t.Fatal(err)
				}
				cluster.AdvanceWindow()
				if _, err := replica.DialTransport(ctx, fmt.Sprintf("n%d", i), inner); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.ConnectMergeContext(ctx); err != nil {
				t.Fatal(err)
			}
			merges = callsOf(t, tap.take(), "merge")
			if len(merges) != 2 || !decodeResp(t, merges[0].resp).NeedOrigin {
				t.Fatalf("after two advances: %d merge calls, want need_origin then a full resend", len(merges))
			}
			ref, full := decodeFrame(t, merges[0].req), decodeFrame(t, merges[1].req)
			if ref.Seq != full.Seq || journalCheckout(t, full).Origin == nil {
				t.Errorf("resend seq %d (first %d), origin inline=%v; want the same seq with the origin",
					full.Seq, ref.Seq, journalCheckout(t, full).Origin != nil)
			}
			if got := cluster.Master().Get("acct"); got != 110 {
				t.Errorf("acct = %d, want 110", got)
			}
		})
	}
}

// TestConformanceOriginRefServerRestart: a server restarted between
// checkout and merge no longer holds the journal's origin. It answers
// need_origin without applying or caching anything; the client resends
// the full journal under the same seq and the merge applies exactly once
// — also when the resend's response is lost and retried.
func TestConformanceOriginRefServerRestart(t *testing.T) {
	for _, name := range transportNames {
		for _, dropNth := range []int64{0, 2} {
			t.Run(fmt.Sprintf("%s/drop%d", name, dropNth), func(t *testing.T) {
				cluster := replica.NewBaseCluster(bigOrigin(), replica.Config{})
				_, inner, stop := serveTier(t, name, cluster)
				ctx := context.Background()
				tap := &tapTransport{inner: inner}
				c, err := replica.DialTransport(ctx, "m1", tap)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Run(workload.Deposit("T1", tx.Tentative, "acct", 5)); err != nil {
					t.Fatal(err)
				}
				stop()
				// Every 2nd response of the restarted server is lost: the
				// need_origin answer arrives, the full resend's is dropped.
				srv2, inner2, stop2 := serveTier(t, name, cluster, replica.WithDropEveryNth(dropNth))
				defer stop2()
				tap.swap(inner2)
				tap.take()

				out, err := c.ConnectMergeContext(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Merged || out.Saved != 1 {
					t.Errorf("outcome %+v, want merged with 1 saved", out)
				}
				if got := cluster.Master().Get("acct"); got != 105 {
					t.Errorf("acct = %d, want 105 (merge lost or applied twice)", got)
				}
				merges := callsOf(t, tap.take(), "merge")
				if len(merges) < 2 {
					t.Fatalf("%d merge calls, want need_origin then a full resend", len(merges))
				}
				first := decodeFrame(t, merges[0].req)
				if journalCheckout(t, first).OriginRef == "" || !decodeResp(t, merges[0].resp).NeedOrigin {
					t.Error("first merge after restart was not a by-reference frame answered need_origin")
				}
				for i, m := range merges[1:] {
					f := decodeFrame(t, m.req)
					if f.Seq != first.Seq || journalCheckout(t, f).Origin == nil {
						t.Errorf("resend %d: seq %d (want %d), origin inline=%v", i+1, f.Seq, first.Seq,
							journalCheckout(t, f).Origin != nil)
					}
				}
				if dropNth > 0 && len(merges) < 3 {
					t.Errorf("%d merge calls, want the dropped full resend retried", len(merges))
				}
				if srv2.DedupEntries() != 1 {
					t.Errorf("dedup entries = %d, want 1 (the applied resend only)", srv2.DedupEntries())
				}
			})
		}
	}
}

// TestConformanceStrategy1IssuesNoOriginID: a Strategy 1 tier hands out
// live master snapshots, never an id, so every checkout and journal
// carries the origin in full.
func TestConformanceStrategy1IssuesNoOriginID(t *testing.T) {
	for _, name := range transportNames {
		t.Run(name, func(t *testing.T) {
			cluster := replica.NewBaseCluster(testOrigin(), replica.Config{Origin: replica.Strategy1})
			_, inner, stop := serveTier(t, name, cluster)
			defer stop()
			ctx := context.Background()
			tap := &tapTransport{inner: inner}
			c, err := replica.DialTransport(ctx, "m1", tap)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				if err := c.Run(workload.Deposit(fmt.Sprintf("T%d", round), tx.Tentative, "acct", 5)); err != nil {
					t.Fatal(err)
				}
				if _, err := c.ConnectMergeContext(ctx); err != nil {
					t.Fatal(err)
				}
			}
			for _, call := range tap.take() {
				f := decodeFrame(t, call.req)
				switch f.Kind {
				case "checkout":
					r := decodeResp(t, call.resp)
					if f.Have != "" || r.OriginID != "" || r.Same || r.Origin == nil {
						t.Errorf("Strategy 1 checkout: have=%q id=%q same=%v origin=%v",
							f.Have, r.OriginID, r.Same, r.Origin != nil)
					}
				case "merge":
					if rec := journalCheckout(t, f); rec.OriginRef != "" || rec.Origin == nil {
						t.Errorf("Strategy 1 journal checkout: ref=%q origin inline=%v", rec.OriginRef, rec.Origin != nil)
					}
				}
			}
			if got := cluster.Master().Get("acct"); got != 110 {
				t.Errorf("acct = %d, want 110", got)
			}
		})
	}
}

// TestConformanceOriginRefConcurrentFleet: concurrent reconnects share the
// server's held origins while windows advance underneath them. Every
// deposit lands exactly once — merged by reference, merged after a full
// resend, or reprocessed after its window expired.
func TestConformanceOriginRefConcurrentFleet(t *testing.T) {
	const mobiles, rounds = 4, 6
	for _, name := range transportNames {
		t.Run(name, func(t *testing.T) {
			cluster := replica.NewBaseCluster(bigOrigin(), replica.Config{})
			_, inner, stop := serveTier(t, name, cluster, replica.WithWorkers(2))
			defer stop()
			ctx := context.Background()
			done := make(chan struct{})
			var advancer sync.WaitGroup
			advancer.Add(1)
			go func() {
				defer advancer.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					if err := cluster.ExecBase(workload.Deposit(fmt.Sprintf("Tb%d", i), tx.Base, "x", 1)); err != nil {
						t.Error(err)
						return
					}
					cluster.AdvanceWindow()
				}
			}()
			var wg sync.WaitGroup
			errs := make([]error, mobiles)
			for i := 0; i < mobiles; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c, err := replica.DialTransport(ctx, fmt.Sprintf("m%d", i), inner)
					if err != nil {
						errs[i] = err
						return
					}
					for r := 0; r < rounds; r++ {
						if err := c.Run(workload.Deposit(fmt.Sprintf("T%d.%d", i, r), tx.Tentative, "acct", 1)); err != nil {
							errs[i] = err
							return
						}
						if _, err := c.ConnectMergeContext(ctx); err != nil {
							errs[i] = err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			close(done)
			advancer.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("mobile %d: %v", i, err)
				}
			}
			if got, want := cluster.Master().Get("acct"), model.Value(100+mobiles*rounds); got != want {
				t.Errorf("acct = %d, want %d (a reconnect was lost or applied twice)", got, want)
			}
		})
	}
}
