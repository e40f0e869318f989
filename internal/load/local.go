package load

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"roccc/client"
	"roccc/internal/fleet"
	"roccc/internal/serve"
)

// LocalFleet is a self-hosted serving stack for the harness: a
// front-end server dispatching through a router into in-process worker
// shards, a TCP listener and a /metrics endpoint — the same topology
// `rocccserve -shards N -metrics :p` runs, stood up in-process so
// `rocccload -local` and the tests need no external server.
type LocalFleet struct {
	Addr       string
	MetricsURL string

	front   *serve.Server
	workers []*serve.Server
	router  *fleet.Router
	ln      net.Listener
	msrv    *http.Server
	mln     net.Listener
}

// StartLocalFleet stands up shards in-process worker servers behind a
// router (slots bounds each shard's concurrent streams — size it low to
// make shedding reachable at modest rates), registers every spec on
// every shard, and serves TCP + /metrics on loopback.
func StartLocalFleet(shards, slots, poolWorkers int, specs []serve.KernelSpec) (*LocalFleet, error) {
	if shards < 2 {
		return nil, fmt.Errorf("load: a local fleet needs at least 2 shards (got %d) — shedding is the router's job", shards)
	}
	if slots <= 0 {
		return nil, fmt.Errorf("load: shard slot budget must be positive (got %d)", slots)
	}
	lf := &LocalFleet{}
	fshards := make([]fleet.Shard, shards)
	for i := range fshards {
		w := serve.NewServer(poolWorkers)
		for _, spec := range specs {
			if err := w.Register(spec); err != nil {
				return nil, fmt.Errorf("load: registering %s on shard %d: %w", spec.Name, i, err)
			}
		}
		lf.workers = append(lf.workers, w)
		fshards[i] = fleet.Shard{Local: w, Slots: slots}
	}
	router, err := fleet.NewRouter(fshards)
	if err != nil {
		return nil, err
	}
	lf.router = router
	// The front's per-connection executor must be wider than the whole
	// fleet's slot budget, or it backpressures on the byte stream before
	// the router ever sheds — and the harness is here to measure the
	// router's admission control, not the front's read loop.
	lf.front = serve.NewServer(shards*slots + 64)
	lf.front.SetDispatcher(router)

	lf.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		router.Close()
		return nil, err
	}
	lf.Addr = lf.ln.Addr().String()
	go lf.front.Serve(lf.ln)

	lf.mln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lf.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	front, r := lf.front, lf.router
	mux.Handle("/metrics", serve.FleetMetricsHandler(func() any {
		fm := r.Metrics()
		return client.FleetSnapshot{Front: front.Metrics(), Fleet: &fm}
	}))
	lf.msrv = &http.Server{Handler: mux}
	go lf.msrv.Serve(lf.mln)
	lf.MetricsURL = fmt.Sprintf("http://%s/metrics", lf.mln.Addr())
	return lf, nil
}

// PoolsBalanced verifies every shard drained to Gets == Puts + Rejected
// (waiting up to timeout for in-flight streams to finish) — the no-leak
// invariant after a storm that included rude disconnects.
func (lf *LocalFleet) PoolsBalanced(timeout time.Duration) error {
	for i, w := range lf.workers {
		if !w.WaitIdle(timeout) {
			return fmt.Errorf("load: shard %d still has in-flight streams after %s", i, timeout)
		}
		for name, st := range w.Stats() {
			if st.Gets != st.Puts+st.Rejected {
				return fmt.Errorf("load: shard %d pool %s unbalanced: gets=%d puts=%d rejected=%d",
					i, name, st.Gets, st.Puts, st.Rejected)
			}
		}
	}
	return nil
}

// Close drains and tears the stack down.
func (lf *LocalFleet) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if lf.front != nil {
		lf.front.Shutdown(ctx)
	}
	if lf.router != nil {
		lf.router.Close()
	}
	for _, w := range lf.workers {
		w.Shutdown(ctx)
	}
	if lf.msrv != nil {
		lf.msrv.Close()
	}
}
