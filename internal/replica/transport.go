package replica

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
)

// Transport carries one serialized request envelope to a base server and
// returns the serialized response — the seam between the protocol's
// request/response envelopes and whatever medium moves them. Two
// realizations ship with the module: the in-process channel transport
// (BaseServer.Transport) and the length-prefixed TCP transport
// (internal/wire), so the same Client reconciles against a goroutine or a
// separate process without knowing which.
//
// Call blocks until the response arrives, ctx is done, or the link fails.
// A response lost after the request may have been applied is reported as
// an error matching ErrResponseLost (errors.Is); callers whose requests
// are idempotent or sequence-numbered retry on it. Implementations must be
// safe for concurrent Call.
type Transport interface {
	Call(ctx context.Context, payload []byte) ([]byte, error)
	// Close releases the transport's resources. Calls in flight fail.
	Close() error
}

// chanTransport is the in-process transport: frames travel over the
// server's rendezvous channel to its worker pool. Closing it is a no-op —
// the server owns the channel's lifecycle.
type chanTransport struct{ s *BaseServer }

// Transport returns the server's in-process transport. Every returned
// value shares the server's worker pool; Close on it is a no-op (Close the
// server instead).
func (s *BaseServer) Transport() Transport { return chanTransport{s} }

// Call sends one frame to the worker pool and awaits the reply, honoring
// ctx for both the enqueue and the wait.
func (t chanTransport) Call(ctx context.Context, payload []byte) ([]byte, error) {
	r := rpc{payload: payload, reply: make(chan []byte, 1)}
	select {
	case t.s.req <- r:
		// The request channel is unbuffered: a successful send means a
		// worker owns the frame and will reply exactly once (the reply
		// channel is buffered, so an abandoned wait leaks nothing).
	case <-t.s.stop:
		return nil, ErrServerClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case raw := <-r.reply:
		if raw == nil {
			return nil, ErrResponseLost
		}
		return raw, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (chanTransport) Close() error { return nil }

// call performs one encode/decode round trip over a transport. When the
// server answers with an error, the decoded response is returned alongside
// it, so callers can tell an answered request from one whose outcome is
// unknown (a nil response).
func call(ctx context.Context, tr Transport, req wireReq) (*wireResp, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("replica: encode request: %w", err)
	}
	raw, err := tr.Call(ctx, payload)
	if err != nil {
		return nil, err
	}
	var resp wireResp
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("replica: decode response: %w", err)
	}
	if resp.Err != "" {
		if resp.Stale {
			// Typed so clients can tell "this frame was an out-of-order
			// duplicate" (safe to discard) from a genuine merge failure.
			return &resp, fmt.Errorf("replica: server: %s: %w", resp.Err, ErrStaleSeq)
		}
		if resp.TooLarge {
			// Typed so retry loops fail fast: a response over the frame
			// limit stays over it on every retry.
			return &resp, fmt.Errorf("replica: server: %s: %w", resp.Err, ErrOversized)
		}
		return &resp, fmt.Errorf("replica: server: %s", resp.Err)
	}
	return &resp, nil
}

// ErrReconnectPending is returned by Client.Run while a reconnect is
// unfinished: its response was lost, or the re-checkout after it failed.
// Call ConnectMerge or ConnectReprocess again to finish it; the retry
// resends the same request, so the server applies it at most once.
var ErrReconnectPending = errors.New("replica: reconnect pending")

// Client is a mobile node that talks to the base tier only through a
// Transport: checkout, merge and reprocess all travel as serialized
// payloads. Reconnects carry a sequence number and retry on lost
// responses; the server's dedup cache makes them exactly-once.
type Client struct {
	node *MobileNode
	tr   Transport
	seq  int64
	// pending is the unfinished reconnect, nil when there is none: a
	// retry after an error resends its frame under the same seq instead
	// of shipping the history again under a new one.
	pending *pendingConnect
	// epoch identifies this client instance to the server's dedup cache:
	// seqs are scoped to it, so a restarted client reusing a mobile ID
	// starts over at seq 1 without tripping the stale-seq guard, while a
	// delayed duplicate frame from THIS instance (same epoch, lower seq)
	// is still rejected.
	epoch string
	// MaxRetries bounds reconnect retries on lost responses (default 3).
	MaxRetries int
}

// Dial checks out a replica over the server's in-process transport and
// returns the connected client.
func Dial(id string, srv *BaseServer) (*Client, error) {
	return DialContext(context.Background(), id, srv)
}

// DialContext is Dial honoring ctx for the initial checkout.
func DialContext(ctx context.Context, id string, srv *BaseServer) (*Client, error) {
	return DialTransport(ctx, id, srv.Transport())
}

// DialTransport checks out a replica over any Transport — the in-process
// channel transport or a TCP connection pool (internal/wire) — and returns
// the connected client. The client does not own the transport; close it
// separately when done.
func DialTransport(ctx context.Context, id string, tr Transport) (*Client, error) {
	c := &Client{tr: tr, node: &MobileNode{ID: id}, epoch: newEpoch()}
	if err := c.checkout(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// newEpoch draws a fresh session identifier. Collision across instances
// would only merge two sessions' dedup state, so a short random token is
// plenty; on the (never-observed) failure of the system randomness source
// it degrades to the shared empty epoch — the pre-epoch behavior.
func newEpoch() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// retries returns the lost-response retry budget.
func (c *Client) retries() int {
	if c.MaxRetries == 0 {
		return 3
	}
	return c.MaxRetries
}

// retryPause backs off briefly (exponential, jittered) before a
// lost-response retry. The jitter matters more than the delay: a fleet of
// lockstep clients facing a periodic fault schedule (DropEveryNth) can
// resonate with it — every retry landing on another dropped slot — and
// random desynchronization breaks the lockstep.
func retryPause(ctx context.Context, attempt int) {
	d := time.Duration(1<<uint(min(attempt, 6))) * time.Millisecond
	d += time.Duration(rand.Int63n(int64(d) + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// callRetrying is call resent while it fails with ErrResponseLost, up to
// the retry budget — for requests that are idempotent or deduplicated by
// their sequence number.
func (c *Client) callRetrying(ctx context.Context, req wireReq) (*wireResp, error) {
	for attempt := 0; ; attempt++ {
		resp, err := call(ctx, c.tr, req)
		if !errors.Is(err, ErrResponseLost) || attempt >= c.retries() {
			return resp, err
		}
		retryPause(ctx, attempt)
	}
}

// checkout refreshes the client's replica over the wire, retrying lost
// responses (checkouts are read-only, hence idempotent).
//
// The request names the origin the client holds; when the server's window
// origin is the same one, the response omits the snapshot and the client
// keeps its own.
func (c *Client) checkout(ctx context.Context) error {
	held := c.node.ck
	resp, err := c.callRetrying(ctx, wireReq{Kind: reqCheckout, MobileID: c.node.ID, Have: held.OriginID})
	if err != nil {
		return err
	}
	origin := model.State(resp.Origin)
	if resp.Same && held.OriginID != "" && resp.OriginID == held.OriginID {
		origin = held.Origin
	}
	c.node.resetFrom(Checkout{
		MobileID: c.node.ID,
		WindowID: resp.Window,
		Pos:      resp.Pos,
		Origin:   origin,
		OriginID: resp.OriginID,
	})
	return nil
}

// Run executes a tentative transaction locally (no communication). It
// fails with ErrReconnectPending while a reconnect is unfinished: the
// history it would extend has already been shipped under that
// reconnect's sequence number.
func (c *Client) Run(t *tx.Transaction) error {
	if c.pending != nil {
		return fmt.Errorf("%w: %s: finish the reconnect before running %s",
			ErrReconnectPending, c.node.ID, t.ID)
	}
	return c.node.Run(t)
}

// Local returns the client's tentative state.
func (c *Client) Local() model.State { return c.node.Local() }

// Pending returns the number of unreconciled tentative transactions.
func (c *Client) Pending() int { return c.node.Pending() }

// marshalJournal serializes the node's whole period as wal records — the
// payload a reconnect ships. byRef names a Strategy 2 window origin by its
// id instead of carrying it; a checkout without an id always ships the
// origin inline.
func (c *Client) marshalJournal(byRef bool) ([]byte, error) {
	var buf bytes.Buffer
	w := wal.NewWriter(&buf)
	ck := c.node.ck
	var err error
	if byRef && ck.OriginID != "" {
		err = w.CheckoutRef(ck.WindowID, ck.Pos, ck.OriginID)
	} else {
		err = w.Checkout(ck.WindowID, ck.Pos, ck.Origin)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.node.hist.Len(); i++ {
		if err := w.LogTxn(c.node.hist.Txn(i), c.node.effects[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// pendingConnect is a reconnect from the moment its request is built until
// the re-checkout after its response succeeds: the frame, resent verbatim
// until answered, then the outcome. byRef reports that the frame's journal
// names its origin by id; once the server asks for the origin, the frame
// carries it inline for every later retry.
type pendingConnect struct {
	req   wireReq
	byRef bool
	out   *ConnectOutcome
}

// connect performs a reconcile round trip of the given kind, retrying on
// lost responses (the sequence number makes retries exactly-once), then
// re-checks out. When a previous reconnect is unfinished it completes that
// one instead — same frame, same seq, whatever kind was asked for now —
// and returns its outcome.
func (c *Client) connect(ctx context.Context, kind reqKind) (*ConnectOutcome, error) {
	if c.pending == nil {
		journal, err := c.marshalJournal(true)
		if err != nil {
			return nil, err
		}
		c.seq++
		c.pending = &pendingConnect{req: wireReq{
			Kind: kind, MobileID: c.node.ID, Seq: c.seq, Epoch: c.epoch,
			Journal: journal,
		}, byRef: c.node.ck.OriginID != ""}
	}
	p := c.pending
	if p.out == nil {
		resp, err := c.callRetrying(ctx, p.req)
		if err != nil && resp != nil && resp.NeedOrigin && p.byRef {
			// The server no longer holds the origin the journal names:
			// resend the same reconnect under the same seq, origin inline.
			journal, jerr := c.marshalJournal(false)
			if jerr != nil {
				return nil, jerr
			}
			p.req.Journal, p.byRef = journal, false
			resp, err = c.callRetrying(ctx, p.req)
		}
		if err != nil {
			// A server-reported error means nothing was applied, so the
			// history stays editable — except an oversized response,
			// which stands in for an outcome the server already cached.
			if resp != nil && !resp.TooLarge {
				c.pending = nil
			}
			return nil, err
		}
		p.out = &ConnectOutcome{
			Merged:      resp.Merged,
			Fallback:    FallbackReason(resp.Fallback),
			BadIDs:      resp.BadIDs,
			Saved:       resp.Saved,
			Reprocessed: resp.Reproc,
			Failed:      resp.Failed,
		}
		// The base tier has reconciled the history: it must never ship
		// again, even if the re-checkout below fails.
		c.node.hist, c.node.effects = &history.History{}, nil
	}
	if err := c.checkout(ctx); err != nil {
		return nil, err
	}
	c.pending = nil
	return p.out, nil
}

// ConnectMerge reconciles via the merging protocol over the wire.
func (c *Client) ConnectMerge() (*ConnectOutcome, error) {
	return c.connect(context.Background(), reqMerge)
}

// ConnectMergeContext is ConnectMerge honoring ctx: cancellation or a
// deadline aborts the round trip (the server may still apply a merge whose
// response was cut off; the next retry with the same sequence number
// replays the cached outcome).
func (c *Client) ConnectMergeContext(ctx context.Context) (*ConnectOutcome, error) {
	return c.connect(ctx, reqMerge)
}

// ConnectReprocess reconciles via the reprocessing protocol over the wire.
func (c *Client) ConnectReprocess() (*ConnectOutcome, error) {
	return c.connect(context.Background(), reqReprocess)
}

// ConnectReprocessContext is ConnectReprocess honoring ctx.
func (c *Client) ConnectReprocessContext(ctx context.Context) (*ConnectOutcome, error) {
	return c.connect(ctx, reqReprocess)
}

// MasterRemote fetches the base tier's current master state over the wire
// (convergence checks for multi-process fleets). Reads are idempotent, so
// lost responses are retried like checkouts.
func (c *Client) MasterRemote(ctx context.Context) (model.State, error) {
	resp, err := c.callRetrying(ctx, wireReq{Kind: reqMaster})
	if err != nil {
		return nil, err
	}
	return model.StateOf(resp.Master), nil
}
