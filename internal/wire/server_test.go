package wire

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"tiermerge/internal/obs"
	"tiermerge/internal/replica"
)

// TestCloseReturnsPromptlyWithRequestInFlight: Close is called while a
// handler is inside ServeFrame. Regression: Close expired the connection's
// read deadline while the handler was still serving; the handler then
// wrote its response, re-armed the deadline to now+IdleTimeout and blocked
// in readFrame until the client hung up, so Close hung for the whole
// IdleTimeout (here a minute, two by default).
func TestCloseReturnsPromptlyWithRequestInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	block := obs.ObserverFunc(func(ev obs.Event) {
		if ev.Phase == obs.PhaseCheckout {
			// Park the handler inside ServeFrame until the test has
			// started Close.
			close(entered)
			<-release
		}
	})
	cluster := replica.NewBaseCluster(testOrigin(), replica.Config{Observer: block})
	srv := replica.Serve(cluster)
	defer srv.Close()
	ws := NewServer(srv, ServerConfig{IdleTimeout: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	expired := &expiryListener{Listener: ln, expired: make(chan struct{})}
	if err := ws.Serve(expired); err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	// The client keeps its pooled connection open until the end of the
	// test, so only the server side can end the handler's read.
	tr := Dial(addr.String(), ClientConfig{})
	defer tr.Close()
	dialed := make(chan error, 1)
	go func() {
		_, err := replica.DialTransport(context.Background(), "m1", tr)
		dialed <- err
	}()
	<-entered

	closed := make(chan struct{})
	go func() {
		ws.Close()
		close(closed)
	}()
	// Finish the in-flight request only after Close has expired the
	// connection's read deadline.
	<-expired.expired
	close(release)

	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return within 10s of the in-flight request finishing")
	}
	if err := <-dialed; err != nil {
		t.Errorf("in-flight checkout = %v, want its response written before the drain", err)
	}
}

// expiryListener hands out connections that report, by closing expired,
// the first read deadline set at or before the current time — the expiry
// Server.Close applies to every connection.
type expiryListener struct {
	net.Listener
	expired chan struct{}
	once    sync.Once
}

func (l *expiryListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &expiryConn{Conn: c, l: l}, nil
}

type expiryConn struct {
	net.Conn
	l *expiryListener
}

func (c *expiryConn) SetReadDeadline(t time.Time) error {
	if !t.After(time.Now()) {
		c.l.once.Do(func() { close(c.l.expired) })
	}
	return c.Conn.SetReadDeadline(t)
}
