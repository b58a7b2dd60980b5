// Package clustertest is the in-process stand-in for an nsgserve replica
// that the router's tests share: the real upgrade (cluster.AcceptWire) and
// the real frame loop (cluster.ServeFrames) over a test's handler.
package clustertest

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
)

// Backend serves /readyz (always 200) and /wire like one nsgserve. Unlike
// an httptest.Server alone, Close also cuts the upgraded streams, the way a
// killed process would.
type Backend struct {
	*httptest.Server
	// Upgrades counts the streams accepted so far.
	Upgrades atomic.Int32

	mu      sync.Mutex
	streams []net.Conn
}

// Start listens on addr ("" picks a free port) and answers frames with h. The
// backend is closed when the test ends, if not before.
func Start(tb testing.TB, addr string, h cluster.FrameHandler) *Backend {
	tb.Helper()
	b := &Backend{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET "+cluster.WirePath, func(w http.ResponseWriter, r *http.Request) {
		conn, err := cluster.AcceptWire(w, r)
		if err != nil {
			return
		}
		defer conn.Close()
		b.Upgrades.Add(1)
		b.mu.Lock()
		b.streams = append(b.streams, conn)
		b.mu.Unlock()
		cluster.ServeFrames(conn, h)
	})
	b.Server = httptest.NewUnstartedServer(mux)
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			tb.Fatal(err)
		}
		b.Server.Listener.Close()
		b.Server.Listener = ln
	}
	b.Server.Start()
	tb.Cleanup(b.Close)
	return b
}

// Close stops the listener and cuts every upgraded stream.
func (b *Backend) Close() {
	b.Server.Close()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.streams {
		c.Close()
	}
	b.streams = nil
}

// Addr is the backend's host:port, as a topology names a replica.
func (b *Backend) Addr() string { return b.Listener.Addr().String() }

// Canned answers every query with the same neighbor list cut at k, like a
// replica that always finds the same neighbors.
func Canned(ids []int32, dists []float32) cluster.FrameHandler {
	return func(req *cluster.SearchRequest) ([]int32, []float32, error) {
		n := min(req.K, len(ids))
		return ids[:n], dists[:n], nil
	}
}
