package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Fault is the injected failure behavior of one replica. Fields compose in
// the order Kill → ErrRate → Latency → Hang → inner call, so a killed
// replica fails instantly (a dead process refuses connections immediately)
// while a hung one consumes the caller's full patience.
type Fault struct {
	// Kill makes every call fail immediately, like a SIGKILLed process
	// refusing connections.
	Kill bool
	// ErrRate is the probability in [0, 1] that a call fails immediately
	// with an injected error (flaky replica).
	ErrRate float64
	// Latency is added before the call proceeds (slow replica); the wait
	// ends early at the call's deadline or its context's cancellation.
	Latency time.Duration
	// Hang blocks the call until its deadline passes or its context is
	// canceled (stuck replica — the case WriteTimeout and attempt timeouts
	// exist for).
	Hang bool
}

// ErrInjected is the base error of ErrRate-injected failures.
var ErrInjected = errors.New("injected fault")

// FaultStats counts what one replica observed through the fault wrapper.
type FaultStats struct {
	Calls    int // calls that reached this replica (search + ready)
	Injected int // calls failed by Kill or ErrRate
	Canceled int // calls that ended at their deadline or on cancellation (hung/slow losers)
	Served   int // calls passed through to the inner transport
}

// FaultTransport wraps a Transport with per-replica fault injection so
// every router failure mode — timeouts, retries, hedges, ejections, whole
// shards down — is unit-testable without real processes. Deterministic:
// ErrRate draws come from a seeded RNG. Safe for concurrent use.
type FaultTransport struct {
	inner Transport

	mu     sync.Mutex
	rng    *rand.Rand
	faults map[string]Fault
	stats  map[string]*FaultStats
}

// NewFaultTransport wraps inner; seed drives the ErrRate coin flips.
func NewFaultTransport(inner Transport, seed int64) *FaultTransport {
	return &FaultTransport{
		inner:  inner,
		rng:    rand.New(rand.NewSource(seed)),
		faults: make(map[string]Fault),
		stats:  make(map[string]*FaultStats),
	}
}

// SetFault replaces addr's fault behavior.
func (ft *FaultTransport) SetFault(addr string, f Fault) {
	ft.mu.Lock()
	ft.faults[addr] = f
	ft.mu.Unlock()
}

// Kill flips addr's kill switch on: every call fails instantly until
// Revive.
func (ft *FaultTransport) Kill(addr string) {
	ft.mu.Lock()
	f := ft.faults[addr]
	f.Kill = true
	ft.faults[addr] = f
	ft.mu.Unlock()
}

// Revive clears addr's faults entirely (a restarted, healthy process).
func (ft *FaultTransport) Revive(addr string) {
	ft.mu.Lock()
	delete(ft.faults, addr)
	ft.mu.Unlock()
}

// Stats returns a snapshot of addr's observed-call counters.
func (ft *FaultTransport) Stats(addr string) FaultStats {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if st := ft.stats[addr]; st != nil {
		return *st
	}
	return FaultStats{}
}

// admit applies addr's pre-call faults, returning an error for injected
// failures and for waits that reach deadline (the zero time sets none) or
// ctx's end. It holds no lock while waiting.
func (ft *FaultTransport) admit(ctx context.Context, addr string, deadline time.Time) error {
	ft.mu.Lock()
	f := ft.faults[addr]
	st := ft.stats[addr]
	if st == nil {
		st = &FaultStats{}
		ft.stats[addr] = st
	}
	st.Calls++
	injected := false
	if f.Kill {
		injected = true
	} else if f.ErrRate > 0 && ft.rng.Float64() < f.ErrRate {
		injected = true
	}
	if injected {
		st.Injected++
	}
	ft.mu.Unlock()

	if injected {
		if f.Kill {
			return fmt.Errorf("%s: connection refused (killed): %w", addr, ErrInjected)
		}
		return fmt.Errorf("%s: %w", addr, ErrInjected)
	}
	if f.Latency > 0 || f.Hang {
		if !deadline.IsZero() {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
		if f.Hang || !sleepCtx(ctx, f.Latency) {
			<-ctx.Done()
			ft.record(addr, func(st *FaultStats) { st.Canceled++ })
			return ctx.Err()
		}
	}
	ft.record(addr, func(st *FaultStats) { st.Served++ })
	return nil
}

func (ft *FaultTransport) record(addr string, f func(*FaultStats)) {
	ft.mu.Lock()
	st := ft.stats[addr]
	if st == nil {
		st = &FaultStats{}
		ft.stats[addr] = st
	}
	f(st)
	ft.mu.Unlock()
}

// Search implements Transport with addr's faults applied first.
func (ft *FaultTransport) Search(ctx context.Context, addr string, deadline time.Time, req *SearchRequest, resp *SearchResponse) error {
	if err := ft.admit(ctx, addr, deadline); err != nil {
		return err
	}
	return ft.inner.Search(ctx, addr, deadline, req, resp)
}

// Ready implements Transport with addr's faults applied first.
func (ft *FaultTransport) Ready(ctx context.Context, addr string) error {
	if err := ft.admit(ctx, addr, time.Time{}); err != nil {
		return err
	}
	return ft.inner.Ready(ctx, addr)
}
