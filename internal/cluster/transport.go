package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// SearchRequest is one search: a POST /search body and a per-shard call,
// shared read-only across a query's fan-out. Zero K or L ask for the
// server's defaults; the router forwards L, the query's pool budget.
type SearchRequest struct {
	Query []float32 `json:"query"`
	K     int       `json:"k"`
	L     int       `json:"l"`
	// Stats asks nsgserve for hops and evaluations; frames do not carry it.
	Stats bool `json:"stats,omitempty"`
	// Filter is an opaque predicate clause forwarded verbatim to each shard
	// server (the JSON a client put in "filter"). The router never parses it —
	// each backend compiles the clause against its own metadata store, so a
	// bad clause comes back as that backend's 400 (*ReplicaError).
	Filter json.RawMessage `json:"filter,omitempty"`
}

// SearchResponse is one answer: a replica's shard-local ids (the router
// translates them with the shard's IDOffset) and exact squared L2
// distances, and the POST /search answer of either server.
type SearchResponse struct {
	IDs       []int32   `json:"ids"`
	Dists     []float32 `json:"dists"`
	Hops      int       `json:"hops,omitempty"`
	DistComps uint64    `json:"dist_comps,omitempty"`
	Result
}

// Transport performs the router's per-replica calls. Implementations must be
// safe for concurrent use; every call must honor ctx cancellation (the
// router cancels hedged losers through it) and its deadline (the
// per-attempt timeout). FaultTransport wraps any Transport with injected
// failures so every router failure path is unit-testable without real
// processes.
type Transport interface {
	// Search runs one query against the replica at addr until deadline (the
	// zero time sets none), into resp's reused ids and distances. A replica
	// that answered but refused the request returns a *ReplicaError.
	Search(ctx context.Context, addr string, deadline time.Time, req *SearchRequest, resp *SearchResponse) error
	// Ready probes the replica's readiness (nsgserve's GET /readyz); a nil
	// error means the replica is loaded and willing to serve.
	Ready(ctx context.Context, addr string) error
}

// HTTPTransport talks to nsgserve replicas on their one HTTP port: readiness
// probes are plain GETs, searches travel as frames (see frame.go) over
// connections upgraded with GET /wire and kept open between queries — so
// router and backends must be built from the same tree. Addresses are
// host:port (an http:// prefix is accepted).
type HTTPTransport struct {
	// Client serves the readiness probes; nil means http.DefaultClient.
	Client *http.Client

	mu   sync.Mutex
	idle map[string][]*wireConn // per replica, most recently used last
}

// maxIdlePerReplica bounds the upgraded connections kept open to one replica
// between queries; concurrent queries beyond it dial and close their own.
const maxIdlePerReplica = 8

// NewHTTPTransport returns a transport with its own pooled probe client.
func NewHTTPTransport() *HTTPTransport {
	return &HTTPTransport{Client: &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		},
	}}
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// Search implements Transport: one request frame out, one reply frame back,
// on an idle upgraded connection when there is one. A kept connection may
// have died while idle (the backend restarted); when it fails before any
// byte of a reply arrives the call redials once, so only a replica that is
// down now is reported as failed. The deadline is the connection's and the
// dialer's, so bounding an attempt costs no context.
func (t *HTTPTransport) Search(ctx context.Context, addr string, deadline time.Time, req *SearchRequest, resp *SearchResponse) error {
	c := t.takeIdle(addr)
	reused := c != nil
	for {
		if c == nil {
			var err error
			if c, err = dialWire(ctx, addr, deadline); err != nil {
				return err
			}
		}
		reusable, err := c.roundTrip(ctx, deadline, req, resp)
		replied := c.fr.started // read before another query can take c
		if reusable {
			t.putIdle(addr, c)
		} else {
			c.conn.Close()
		}
		if err == nil {
			return nil
		}
		if !reused || replied || ctx.Err() != nil {
			return fmt.Errorf("%s %s: %w", addr, WirePath, err)
		}
		reused, c = false, nil
	}
}

func (t *HTTPTransport) takeIdle(addr string) *wireConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	conns := t.idle[addr]
	if len(conns) == 0 {
		return nil
	}
	c := conns[len(conns)-1]
	t.idle[addr] = conns[:len(conns)-1]
	return c
}

func (t *HTTPTransport) putIdle(addr string, c *wireConn) {
	t.mu.Lock()
	if t.idle == nil {
		t.idle = make(map[string][]*wireConn)
	}
	keep := len(t.idle[addr]) < maxIdlePerReplica
	if keep {
		t.idle[addr] = append(t.idle[addr], c)
	}
	t.mu.Unlock()
	if !keep {
		c.conn.Close()
	}
}

// CloseIdleConnections closes the kept-open connections; later searches
// dial afresh.
func (t *HTTPTransport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.conn.Close()
		}
	}
}

// wireConn is one upgraded connection. Its buffers are reused by every
// query it carries, one at a time.
type wireConn struct {
	conn net.Conn
	fr   frameReader
	out  []byte
	// abort unblocks the connection's pending and future I/O; it is what a
	// query's context runs when it ends first.
	abort func()
}

var longAgo = time.Unix(1, 0)

func newWireConn(conn net.Conn) *wireConn {
	c := &wireConn{conn: conn, fr: frameReader{r: conn}}
	c.abort = func() { conn.SetDeadline(longAgo) }
	return c
}

// watch arranges for ctx's end to abort c's I/O. The returned func ends the
// watch and reports whether the abort was kept from running.
func (c *wireConn) watch(ctx context.Context) (stop func() bool) {
	if ctx.Done() == nil {
		return func() bool { return true }
	}
	return context.AfterFunc(ctx, c.abort)
}

// dialWire connects to addr and upgrades the connection to the frame
// protocol before deadline. A replica that answers anything but 101 is a
// failed replica.
func dialWire(ctx context.Context, addr string, deadline time.Time) (*wireConn, error) {
	host := strings.TrimPrefix(addr, "http://")
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	c := newWireConn(conn)
	conn.SetDeadline(deadline)
	stop := c.watch(ctx)
	err = c.upgrade(host)
	if !stop() {
		err = ctx.Err() // aborted: whatever upgrade saw, ctx is the cause
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%s %s: %w", addr, WirePath, err)
	}
	return c, nil
}

func (c *wireConn) upgrade(host string) error {
	if _, err := fmt.Fprintf(c.conn, "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		WirePath, host, WireProtocol); err != nil {
		return err
	}
	br := bufio.NewReader(c.conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), WireProtocol) {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("replica did not upgrade to %s (is it an nsgserve from this tree?): status %d: %s",
			WireProtocol, resp.StatusCode, bytes.TrimSpace(body))
	}
	if br.Buffered() > 0 {
		return fmt.Errorf("replica sent %d bytes before any request frame", br.Buffered())
	}
	return nil
}

// roundTrip sends req and reads its reply into resp, or times out at
// deadline. When ctx ends first the blocked
// read or write is aborted and ctx's error returned. reusable reports whether
// the stream is still frame-aligned and may carry another query: an exchange
// cut short may have left half a frame behind, and such a connection is
// closed, never pooled.
func (c *wireConn) roundTrip(ctx context.Context, deadline time.Time, req *SearchRequest, resp *SearchResponse) (reusable bool, err error) {
	c.fr.started = false
	c.out = appendRequest(c.out[:0], req)
	c.conn.SetDeadline(deadline) // before the watch, whose abort overrides it
	stop := c.watch(ctx)
	err = c.exchange(resp)
	if !stop() {
		// The abort ran (or is running): the deadline it leaves behind makes
		// this connection useless even if the reply beat it.
		if err != nil {
			err = ctx.Err()
		}
		return false, err
	}
	// An error frame (parseReply hands its *ReplicaError over unwrapped) is
	// still a whole frame: the stream stays aligned.
	_, refused := err.(*ReplicaError)
	return err == nil || refused, err
}

func (c *wireConn) exchange(resp *SearchResponse) error {
	if _, err := c.conn.Write(c.out); err != nil {
		return err
	}
	payload, err := c.fr.next()
	if err != nil {
		return err
	}
	return parseReply(payload, resp)
}

// AcceptWire is the server half of the upgrade: it checks the request asks
// for the frame protocol, takes the connection over from the HTTP server,
// answers 101 and clears the server's per-request deadlines, which do not
// apply to a long-lived stream. The caller owns the returned connection —
// typically: defer conn.Close(), then ServeFrames. On error a response has
// been written and there is nothing to close.
func AcceptWire(w http.ResponseWriter, r *http.Request) (net.Conn, error) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), WireProtocol) {
		http.Error(w, "expected Upgrade: "+WireProtocol, http.StatusUpgradeRequired)
		return nil, fmt.Errorf("%s: request does not upgrade to %s", WirePath, WireProtocol)
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "connection cannot be upgraded", http.StatusInternalServerError)
		return nil, fmt.Errorf("%s: response writer cannot hijack", WirePath)
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil, fmt.Errorf("%s: hijack: %w", WirePath, err)
	}
	if rw.Reader.Buffered() > 0 {
		conn.Close()
		return nil, fmt.Errorf("%s: peer sent frames before the upgrade was answered", WirePath)
	}
	if err := conn.SetDeadline(time.Time{}); err == nil {
		_, err = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+WireProtocol+"\r\n\r\n")
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%s: answer upgrade: %w", WirePath, err)
	}
	return conn, nil
}

// Ready implements Transport over nsgserve's GET /readyz.
func (t *HTTPTransport) Ready(ctx context.Context, addr string) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL(addr)+"/readyz", nil)
	if err != nil {
		return err
	}
	hresp, err := t.client().Do(hreq)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(hresp.Body, 512))
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s /readyz: status %d", addr, hresp.StatusCode)
	}
	return nil
}
