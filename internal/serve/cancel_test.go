package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"roccc/internal/netlist"
)

// accumBatch builds n accum streams with distinct inputs.
func accumBatch(n int) []netlist.Job {
	jobs := make([]netlist.Job, n)
	for i := range jobs {
		in := make([]int64, 32)
		for j := range in {
			in[j] = int64(i + j)
		}
		jobs[i].Inputs = map[string][]int64{"A": in}
	}
	return jobs
}

// gate is a Dispatcher over the server's own registry that can hold one
// request: once armed, every stream of the next request opened signals
// entered and blocks until release is closed, then runs normally. Tests
// use it to keep a request in flight for exactly as long as they need,
// instead of betting on how long a large batch takes to simulate.
type gate struct {
	srv     *Server
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGate(srv *Server) *gate {
	return &gate{srv: srv, entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *gate) Dispatch(kernel string) (Runner, error) {
	e, err := g.srv.entry(kernel)
	if err != nil {
		return nil, err
	}
	if g.armed.CompareAndSwap(true, false) {
		return heldRunner{e: e, g: g}, nil
	}
	return e, nil
}

// heldRunner runs the streams of the request an armed gate holds.
type heldRunner struct {
	e *kernelEntry
	g *gate
}

func (r heldRunner) RunStream(job *netlist.Job) error {
	select {
	case r.g.entered <- struct{}{}:
	default: // a sibling stream already signalled
	}
	<-r.g.release
	return r.e.RunStream(job)
}

// startGatedServer starts the test server with a gate plugged in as its
// dispatcher.
func startGatedServer(t *testing.T, workers int) (*Server, string, *gate) {
	t.Helper()
	var g *gate
	srv, addr := startServerWith(t, workers, func(s *Server) {
		g = newGate(s)
		s.SetDispatcher(g)
	})
	return srv, addr, g
}

// TestRunContextSlotCancel cancels a request while it is still waiting
// for a connection slot: a single-slot pipelined connection is occupied
// by a request the server holds in flight, so the second RunContext
// blocks on slot acquisition and must return the context error without
// corrupting the connection or stealing the slot.
func TestRunContextSlotCancel(t *testing.T) {
	srv, addr, g := startGatedServer(t, 2)
	c, err := DialContext(context.Background(), addr, WithPipelined(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run("accum", accumBatch(1)); err != nil {
		t.Fatal(err)
	}

	g.armed.Store(true)
	long := make(chan error, 1)
	go func() { long <- c.RunContext(context.Background(), "accum", accumBatch(1)) }()
	// The held stream is executing on the server, so its request owns
	// the only slot until the gate opens.
	<-g.entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = c.RunContext(ctx, "accum", accumBatch(1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slot-blocked RunContext = %v, want DeadlineExceeded", err)
	}

	close(g.release)
	if err := <-long; err != nil {
		t.Fatalf("long batch on the held slot failed: %v", err)
	}
	if !c.Healthy() {
		t.Fatal("connection poisoned after a slot-wait cancellation")
	}
	if err := c.Run("accum", accumBatch(2)); err != nil {
		t.Fatalf("follow-up request after cancellation: %v", err)
	}
	assertPoolsBalanced(t, srv)
}

// TestRunContextDeadlineMidFlight cancels a request that is already on
// the wire: the server holds its first stream until the client's
// deadline has passed, so the request cannot complete in time. The
// cancelled request must release its slot, the demux loop must stay
// healthy as the server's late frames for the dead request drain, and a
// follow-up request on the same connection must succeed with the pools
// balanced afterwards (Gets == Puts + Rejected).
func TestRunContextDeadlineMidFlight(t *testing.T) {
	srv, addr, g := startGatedServer(t, 2)
	c, err := DialContext(context.Background(), addr, WithPipelined(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run("accum", accumBatch(1)); err != nil {
		t.Fatal(err)
	}

	g.armed.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err = c.RunContext(ctx, "accum", accumBatch(3))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-flight RunContext = %v, want DeadlineExceeded", err)
	}
	// Open the gate only now: the dead request's frames arrive late,
	// interleaved with the follow-up below.
	close(g.release)
	if !c.Healthy() {
		t.Fatal("connection poisoned by a mid-flight cancellation")
	}

	follow := accumBatch(3)
	if err := c.RunContext(context.Background(), "accum", follow); err != nil {
		t.Fatalf("follow-up request on the same connection: %v", err)
	}
	for i, job := range follow {
		if job.Err != nil || job.Cycles == 0 {
			t.Fatalf("follow-up stream %d: err=%v cycles=%d", i, job.Err, job.Cycles)
		}
	}
	if !c.Healthy() {
		t.Fatal("connection unhealthy after the follow-up")
	}
	assertPoolsBalanced(t, srv)
}

// assertPoolsBalanced waits for the server to drain and checks every
// kernel pool returned each System it handed out.
func assertPoolsBalanced(t *testing.T, srv *Server) {
	t.Helper()
	if !srv.WaitIdle(30 * time.Second) {
		t.Fatal("server still has in-flight streams")
	}
	for name, st := range srv.Stats() {
		if st.Gets != st.Puts+st.Rejected {
			t.Errorf("pool %s unbalanced: gets=%d puts=%d rejected=%d", name, st.Gets, st.Puts, st.Rejected)
		}
	}
}
