package serve

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"roccc/internal/dp"
	"roccc/internal/netlist"
)

// Client is the request surface shared by the TCP client (Conn) and the
// in-process client (Local): Run streams a batch of independent input
// streams through one kernel. Per-stream results land in each
// netlist.Job in place — Outputs, Feedbacks, Cycles on success, a typed
// error in Job.Err on a mid-stream fault — and buffers are reused across
// calls, so steady-state request loops do not allocate in the pool path.
// Run's own error is the first stream failure (request-level failures —
// unknown kernel, transport loss, server drain — abort the whole batch).
type Client interface {
	Run(kernel string, streams []netlist.Job) error
	Close() error
}

// firstStreamErr mirrors SystemPool.RunBatch's contract: the returned
// error is the first per-stream failure in stream order.
func firstStreamErr(kernel string, streams []netlist.Job) error {
	for i := range streams {
		if streams[i].Err != nil {
			return fmt.Errorf("serve: %s stream %d: %w", kernel, i, streams[i].Err)
		}
	}
	return nil
}

// Local is the in-process client: no sockets, no framing — Run goes
// straight to the kernel's warm SystemPool, which is also the path the
// 0 allocs/op steady-state gate measures.
type Local struct {
	srv *Server
}

// Local returns an in-process client bound to this server.
func (s *Server) Local() *Local { return &Local{srv: s} }

// Run shards the streams across the kernel pool's worker crew.
func (c *Local) Run(kernel string, streams []netlist.Job) error {
	e, err := c.srv.entry(kernel)
	if err != nil {
		return err
	}
	if !c.srv.beginStream() {
		return fmt.Errorf("serve: server is draining")
	}
	defer c.srv.endStream()
	e.opens.Add(1)
	e.lastUse.Store(c.srv.tick.Add(1))
	err = e.runBatch(streams)
	for i := range streams {
		c.srv.countStream(streams[i].Err)
	}
	// runBatch's error is the first per-stream failure unless the pool
	// itself failed to (re)build (no stream carries an error then).
	if serr := firstStreamErr(kernel, streams); serr != nil {
		return serr
	}
	return err
}

// Close is a no-op: the Local client owns no transport.
func (c *Local) Close() error { return nil }

// Conn is the TCP client. A serial (v1) Conn carries one request in
// flight at a time and is not safe for concurrent use (open one Conn
// per client goroutine — they multiplex fine on the server side). A
// pipelined Conn (DialContext with WithPipelined) speaks v2: a reader
// goroutine demuxes responses by request id, so any number of
// goroutines may Run on the same Conn concurrently and their requests
// share the connection's server-side executor slots.
type Conn struct {
	c    net.Conn
	enc  encoder
	rbuf []byte
	next uint32

	// Pipelined (v2) state. wmu keeps each Write whole — a request's
	// frames go out in one Write, never interleaved with another
	// request's; pmu guards the pending demux table and the latched
	// transport error; slots, when non-nil, is the client-side
	// request-slot semaphore (WithPipelined(n) with n > 0).
	pipelined  bool
	hsVersion  uint16
	slots      chan struct{}
	wmu        sync.Mutex
	pmu        sync.Mutex
	pending    map[uint32]*pending
	preq       uint32
	rerr       error
	readerDone chan struct{}
}

// pending is one in-flight pipelined request. jobs and answered are
// owned by the reader goroutine until done is signalled; the Run
// goroutine reads the jobs only after receiving on done. mu orders a
// RunContext cancellation against the reader's in-progress decode: once
// cancelled is set the reader drops the request's remaining frames
// without touching jobs, so the caller may reuse its Job buffers the
// moment RunContext returns. Pendings (and their done channels) are
// recycled through pendPool once their request retired normally.
type pending struct {
	kernel   string
	jobs     []netlist.Job
	answered int
	ping     bool
	done     chan error

	mu        sync.Mutex
	cancelled bool
}

var pendPool = sync.Pool{New: func() any { return &pending{done: make(chan error, 1)} }}

func getPending(kernel string, jobs []netlist.Job, ping bool) *pending {
	p := pendPool.Get().(*pending)
	p.kernel, p.jobs, p.answered, p.ping, p.cancelled = kernel, jobs, 0, ping, false
	return p
}

// wait parks until p's request reaches its terminal status and recycles
// p. A request retired by abort is not recycled: the reader may still
// hold p mid-decode, so it is left to the garbage collector.
func (c *Conn) wait(p *pending) error {
	err := <-p.done
	c.release(p)
	return err
}

// release recycles a pending whose status has been received.
func (c *Conn) release(p *pending) {
	c.pmu.Lock()
	healthy := c.rerr == nil
	c.pmu.Unlock()
	if healthy {
		p.kernel, p.jobs = "", nil
		pendPool.Put(p)
	}
}

// DialOption configures DialContext.
type DialOption func(*dialConfig)

type dialConfig struct {
	pipelined bool
	slots     int
	timeout   time.Duration
	version   int
}

// WithPipelined negotiates protocol v2 and returns a Conn that is safe
// for concurrent Run/RunContext calls: a reader goroutine demuxes
// responses by request id. slots > 0 bounds the connection's concurrent
// in-flight requests client-side (RunContext blocks for a free slot, or
// until its context cancels); slots <= 0 leaves admission entirely to
// the server's per-connection executor budget.
func WithPipelined(slots int) DialOption {
	return func(c *dialConfig) {
		c.pipelined = true
		c.slots = slots
	}
}

// WithDialTimeout bounds the TCP connect (and, for pipelined conns, the
// hello handshake's send). Zero means no timeout beyond the context's.
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// WithProtocolVersion overrides the protocol version the client offers
// in its hello (default ProtoV2). Pipelined mode requires the
// negotiated version to be >= ProtoV2, so offering ProtoV1 together
// with WithPipelined fails at dial with a clear error.
func WithProtocolVersion(v int) DialOption {
	return func(c *dialConfig) { c.version = v }
}

// DialContext connects to a rocccserve address. With no options the
// Conn speaks protocol v1 (serial requests, no handshake — v1 byte
// streams are valid v2 byte streams, so it works against both v1 and
// v2 servers). WithPipelined negotiates v2 and enables concurrent
// requests over the one socket. ctx bounds the dial (and the v2
// handshake); it does not outlive DialContext.
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Conn, error) {
	cfg := dialConfig{version: ProtoV2}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.version < ProtoV1 || cfg.version > ProtoV2 {
		return nil, fmt.Errorf("serve: unsupported protocol version %d (have v%d..v%d)", cfg.version, ProtoV1, ProtoV2)
	}
	d := net.Dialer{Timeout: cfg.timeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if !cfg.pipelined {
		return &Conn{c: nc}, nil
	}
	c := &Conn{c: nc, pipelined: true,
		hsVersion:  uint16(cfg.version),
		pending:    map[uint32]*pending{},
		readerDone: make(chan struct{}),
	}
	if cfg.slots > 0 {
		c.slots = make(chan struct{}, cfg.slots)
	}
	// The handshake round trip honours the context: a cancelled ctx
	// closes the socket under the blocked read.
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { nc.Close() })
	}
	err = c.handshake()
	if stop != nil && !stop() {
		err = fmt.Errorf("serve: dial %s: %w", addr, ctx.Err())
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// handshake sends the client hello and classifies the server's answer.
func (c *Conn) handshake() error {
	e := &c.enc
	e.begin(frameHello, 0)
	e.u16(c.hsVersion)
	if _, err := c.c.Write(e.finish()); err != nil {
		return fmt.Errorf("serve: sending hello: %w", err)
	}
	payload, err := readFrame(c.c, nil)
	if err != nil {
		return fmt.Errorf("serve: reading hello response: %w", err)
	}
	d := decoder{b: payload}
	typ := d.u8()
	d.u32() // request id (0, or reqNone on an unattributable v1 error)
	switch typ {
	case frameHello:
		ver := int(d.u16())
		if d.err != nil {
			return fmt.Errorf("serve: malformed hello response: %w", d.err)
		}
		if ver < ProtoV2 {
			return fmt.Errorf("serve: server negotiated protocol v%d; pipelined mode needs v2 — use DialContext without WithPipelined for serial requests", ver)
		}
		return nil
	case frameError:
		// A v1 server does not know the hello frame type: it answers with
		// a request-level error and closes the connection.
		d.u32() // stream id
		msg := d.str16()
		return fmt.Errorf("serve: server speaks protocol v1 (no request pipelining; hello refused: %s) — use DialContext without WithPipelined for serial requests", msg)
	default:
		return fmt.Errorf("serve: unexpected hello response frame %q", typ)
	}
}

// Close closes the connection; in-flight server work completes and its
// pooled Systems return to their pools. On a pipelined Conn, in-flight
// Runs fail with a transport error.
func (c *Conn) Close() error {
	err := c.c.Close()
	if c.pipelined {
		<-c.readerDone
	}
	return err
}

// Healthy reports whether a pipelined Conn can still carry requests;
// connection pools use it to drop broken conns instead of reusing them.
func (c *Conn) Healthy() bool {
	if !c.pipelined {
		return true
	}
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.rerr == nil
}

// Ping round-trips a keepalive frame through the server (pipelined
// conns only): it proves the connection and the server's reader loop
// are alive without touching any kernel.
func (c *Conn) Ping() error {
	if !c.pipelined {
		return fmt.Errorf("serve: Ping requires a pipelined connection (DialContext with WithPipelined)")
	}
	p := getPending("", nil, true)
	req, err := c.register(p)
	if err != nil {
		return err
	}
	e := getEncoder()
	e.begin(frameKeepAlive, req)
	err = c.write(e.finish())
	putEncoder(e)
	if err != nil {
		c.abort(fmt.Errorf("serve: sending keepalive: %w", err))
	}
	return c.wait(p)
}

// register installs a pending request under a fresh request id,
// refusing if the connection is already poisoned.
func (c *Conn) register(p *pending) (uint32, error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.rerr != nil {
		return 0, c.rerr
	}
	c.preq++
	req := c.preq
	c.pending[req] = p
	return req, nil
}

// write sends whole frames in one Write under the write lock.
func (c *Conn) write(frames []byte) error {
	c.wmu.Lock()
	_, err := c.c.Write(frames)
	c.wmu.Unlock()
	return err
}

// send encodes a request's 'O' frame and all its 'S' frames into one
// buffer and writes it at once, flushing early only when the buffered
// frames pass bufHighWater.
func (c *Conn) send(req uint32, kernel string, streams []netlist.Job) error {
	e := getEncoder()
	defer putEncoder(e)
	e.begin(frameOpen, req)
	e.str8(kernel)
	e.u32(uint32(len(streams)))
	for i := range streams {
		if len(e.buf) > bufHighWater {
			if err := c.write(e.finish()); err != nil {
				return err
			}
			e.begin(frameStream, req)
		} else {
			e.next(frameStream, req)
		}
		e.u32(uint32(i))
		e.u16(uint16(len(streams[i].Inputs)))
		for name, vals := range streams[i].Inputs {
			e.str8(name)
			e.vals(vals)
		}
	}
	return c.write(e.finish())
}

// abort poisons a pipelined Conn: the error latches, every in-flight
// request fails with it, and the connection closes. Responses can no
// longer be trusted to demux correctly, so nothing survives.
func (c *Conn) abort(err error) {
	c.pmu.Lock()
	if c.rerr == nil {
		c.rerr = err
	}
	err = c.rerr
	for req, p := range c.pending {
		delete(c.pending, req)
		p.done <- err
	}
	c.pmu.Unlock()
	c.c.Close()
}

// complete retires one pipelined request with its final status, unless
// an abort retired it first (one status per request: done holds one).
func (c *Conn) complete(req uint32, p *pending, err error) {
	c.pmu.Lock()
	live := c.pending[req] == p
	if live {
		delete(c.pending, req)
	}
	c.pmu.Unlock()
	if live {
		p.done <- err
	}
}

// completeRequestError retires one request with a server-reported
// request-level failure (unknown kernel, compile error, drain); the
// connection itself stays healthy.
func (c *Conn) completeRequestError(req uint32, p *pending, msg string) {
	c.complete(req, p, fmt.Errorf("serve: request failed: %s", msg))
}

// Run sends one request (kernel + all streams) and collects the
// responses, filling each stream's Job in place. Output and feedback
// buffers are reused when already sized; input slices are only read.
// A transport or framing failure leaves the connection's protocol state
// unknown, so Run closes it (after joining its writer): later Runs on
// the Conn fail fast instead of desynchronizing.
func (c *Conn) Run(kernel string, streams []netlist.Job) (err error) {
	if c.pipelined {
		return c.runPipelined(context.Background(), kernel, streams)
	}
	c.next++
	req := c.next
	for i := range streams {
		streams[i].Err = nil
	}

	// Writer: Open + one frame per stream. Sending concurrently with the
	// read loop below keeps large batches from deadlocking on TCP
	// windows: the server responds while later streams are still being
	// written.
	werr := make(chan error, 1)
	go func() {
		e := &c.enc
		e.begin(frameOpen, req)
		e.str8(kernel)
		e.u32(uint32(len(streams)))
		if _, err := c.c.Write(e.finish()); err != nil {
			werr <- err
			return
		}
		for i := range streams {
			e.begin(frameStream, req)
			e.u32(uint32(i))
			e.u16(uint16(len(streams[i].Inputs)))
			for name, vals := range streams[i].Inputs {
				e.str8(name)
				e.vals(vals)
			}
			if _, err := c.c.Write(e.finish()); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()

	// Reader: one response per stream, then Done (or a request-level
	// error, which aborts the batch). writerJoined marks the paths that
	// saw the writer finish; every other (error) return closes the
	// connection first, so the writer's blocked Write fails and the
	// goroutine cannot race a later Run on the shared encoder.
	writerJoined := false
	defer func() {
		if !writerJoined {
			c.c.Close()
			<-werr
		}
	}()
	answered := 0
	for {
		payload, rerr := readFrame(c.c, c.rbuf)
		if rerr != nil {
			return fmt.Errorf("serve: reading response: %w", rerr)
		}
		c.rbuf = scratch(payload)
		d := decoder{b: payload}
		typ := d.u8()
		gotReq := d.u32()
		// The only frame allowed to carry a different request id is an
		// unattributable protocol error (id reqNone); anything else out
		// of sequence means the stream state is unknown.
		if gotReq != req && !(typ == frameError && gotReq == reqNone) {
			return fmt.Errorf("serve: response for request %d while %d in flight", gotReq, req)
		}
		switch typ {
		case frameResult:
			idx := int(d.u32())
			if idx < 0 || idx >= len(streams) {
				return fmt.Errorf("serve: result for unknown stream %d", idx)
			}
			if err := decodeResultInto(&d, &streams[idx]); err != nil {
				return err
			}
			answered++
		case frameFault:
			idx := int(d.u32())
			if idx < 0 || idx >= len(streams) {
				return fmt.Errorf("serve: fault for unknown stream %d", idx)
			}
			if err := decodeFaultInto(&d, &streams[idx]); err != nil {
				return err
			}
			answered++
		case frameError:
			idx := d.u32()
			msg := d.str16()
			if d.err != nil {
				return fmt.Errorf("serve: malformed error frame: %w", d.err)
			}
			if idx == streamNone {
				<-werr // writer may have failed too; the request error wins
				writerJoined = true
				return fmt.Errorf("serve: request failed: %s", msg)
			}
			if int(idx) >= len(streams) {
				return fmt.Errorf("serve: error for unknown stream %d", idx)
			}
			streams[idx].Err = streamErrFromMsg(msg)
			answered++
		case frameDone:
			werrv := <-werr
			writerJoined = true
			if werrv != nil {
				// Done despite a failed send: the connection state is
				// inconsistent — kill it.
				c.c.Close()
				return fmt.Errorf("serve: sending request: %w", werrv)
			}
			if answered != len(streams) {
				c.c.Close()
				return fmt.Errorf("serve: done after %d of %d responses", answered, len(streams))
			}
			return firstStreamErr(kernel, streams)
		default:
			return fmt.Errorf("serve: unexpected response frame %q", typ)
		}
	}
}

// RunContext is Run with a per-request deadline/cancel. On a pipelined
// Conn a cancelled request releases its client-side slot immediately
// and leaves the connection healthy: the reader keeps draining the
// request's late frames but stops writing into the caller's Job
// buffers, so they are safe to reuse the moment RunContext returns.
// (The server still finishes the work — v2 has no cancel frame — so the
// server-side executor slot frees when it completes.) On a serial (v1)
// Conn the protocol cannot abandon a request mid-flight, so
// cancellation closes the connection under the blocked I/O and the Conn
// is dead afterwards.
func (c *Conn) RunContext(ctx context.Context, kernel string, streams []netlist.Job) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.pipelined {
		return c.runPipelined(ctx, kernel, streams)
	}
	if ctx.Done() == nil {
		return c.Run(kernel, streams)
	}
	stop := context.AfterFunc(ctx, func() { c.c.Close() })
	err := c.Run(kernel, streams)
	if !stop() && err != nil && ctx.Err() != nil {
		return fmt.Errorf("serve: %s: %w", kernel, ctx.Err())
	}
	return err
}

// runPipelined registers the request in the demux table, streams its
// frames (interleaving with other goroutines' requests frame-by-frame)
// and parks until the reader goroutine delivers the final status or ctx
// cancels the wait.
func (c *Conn) runPipelined(ctx context.Context, kernel string, streams []netlist.Job) error {
	if c.slots != nil {
		select {
		case c.slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		defer func() { <-c.slots }()
	}
	for i := range streams {
		streams[i].Err = nil
	}
	p := getPending(kernel, streams, false)
	req, err := c.register(p)
	if err != nil {
		return err
	}
	if err := c.send(req, kernel, streams); err != nil {
		c.abort(fmt.Errorf("serve: sending request: %w", err))
		return c.wait(p)
	}
	// Every frame is sent, so the server owes exactly one terminal
	// frame; cancellation waits only here — aborting mid-send would
	// leave the server's owed-stream accounting dangling.
	var derr error
	if ctx.Done() == nil {
		derr = c.wait(p)
	} else {
		select {
		case derr = <-p.done:
			c.release(p)
		case <-ctx.Done():
			if c.cancel(req, p) {
				return ctx.Err() // p stays in the demux table: not recycled
			}
			// The request reached a terminal state concurrently with
			// the cancel: take its real result.
			derr = c.wait(p)
		}
	}
	if derr != nil {
		return derr
	}
	return firstStreamErr(kernel, streams)
}

// cancel detaches a cancelled request from its Job buffers. It reports
// whether the request was still in flight: the pending entry stays in
// the demux table (so late frames attribute cleanly instead of
// poisoning the connection), but the reader stops decoding into the
// jobs. A false return means a terminal status raced the cancel and is
// already on p.done.
func (c *Conn) cancel(req uint32, p *pending) bool {
	c.pmu.Lock()
	inflight := c.pending[req] == p
	c.pmu.Unlock()
	if !inflight {
		return false
	}
	// Taking p.mu blocks until any in-progress decode for this request
	// finishes; afterwards the reader drops the request's frames.
	p.mu.Lock()
	p.cancelled = true
	p.mu.Unlock()
	return true
}

// readLoop is a pipelined Conn's single reader: every response frame is
// demuxed to its pending request, and the first frame that cannot be —
// transport loss, malformed body, unattributable id — poisons the
// connection (abort) rather than risking a cross-wired response.
func (c *Conn) readLoop() {
	defer close(c.readerDone)
	var buf []byte
	for {
		payload, err := readFrame(c.c, buf)
		if err != nil {
			c.abort(fmt.Errorf("serve: reading response: %w", err))
			return
		}
		buf = scratch(payload)
		if err := c.demux(payload); err != nil {
			c.abort(err)
			return
		}
	}
}

// demux attributes one response frame to its in-flight request and
// applies it; a non-nil return is fatal for the connection. This is the
// pipelined client's per-frame hot path — steady-state result frames
// touch only the demux table and the request's own Job buffers.
//
//roccc:hotpath
func (c *Conn) demux(payload []byte) error {
	d := decoder{b: payload}
	typ := d.u8()
	req := d.u32()
	c.pmu.Lock()
	p := c.pending[req]
	c.pmu.Unlock()
	if p == nil {
		if typ == frameError {
			// Unattributable (or already-aborted request's) error:
			// request-level protocol errors poison the connection,
			// stragglers for retired ids cannot be trusted either.
			d.u32()
			return fmt.Errorf("%w: error for no in-flight request: %s", ErrMalformedFrame, d.str16())
		}
		return fmt.Errorf("%w: response for unknown request %d", ErrMalformedFrame, req)
	}
	switch typ {
	case frameKeepAlive:
		if !p.ping {
			return fmt.Errorf("%w: keepalive echo for request %d", ErrMalformedFrame, req)
		}
		c.complete(req, p, nil)
	case frameResult:
		idx := int(d.u32())
		if idx < 0 || idx >= len(p.jobs) {
			return fmt.Errorf("%w: result for unknown stream %d of request %d", ErrMalformedFrame, idx, req)
		}
		p.mu.Lock()
		if !p.cancelled {
			if err := decodeResultInto(&d, &p.jobs[idx]); err != nil {
				p.mu.Unlock()
				return err
			}
		}
		p.mu.Unlock()
		p.answered++
	case frameFault:
		idx := int(d.u32())
		if idx < 0 || idx >= len(p.jobs) {
			return fmt.Errorf("%w: fault for unknown stream %d of request %d", ErrMalformedFrame, idx, req)
		}
		p.mu.Lock()
		if !p.cancelled {
			if err := decodeFaultInto(&d, &p.jobs[idx]); err != nil {
				p.mu.Unlock()
				return err
			}
		}
		p.mu.Unlock()
		p.answered++
	case frameError:
		idx := d.u32()
		msg := d.str16()
		if d.err != nil {
			return fmt.Errorf("serve: malformed error frame: %w", d.err)
		}
		if idx == streamNone {
			c.completeRequestError(req, p, msg)
			return nil
		}
		if int(idx) >= len(p.jobs) {
			return fmt.Errorf("%w: error for unknown stream %d of request %d", ErrMalformedFrame, idx, req)
		}
		p.mu.Lock()
		if !p.cancelled {
			p.jobs[idx].Err = streamErrFromMsg(msg)
		}
		p.mu.Unlock()
		p.answered++
	case frameDone:
		if p.answered != len(p.jobs) {
			return fmt.Errorf("%w: done after %d of %d responses", ErrMalformedFrame, p.answered, len(p.jobs))
		}
		c.complete(req, p, nil)
	default:
		return fmt.Errorf("%w: unexpected response frame %q", ErrMalformedFrame, typ)
	}
	return nil
}

// decodeResultInto fills one stream's Job from a result frame body
// (after type/req/idx), reusing the Job's buffers when already sized: in
// the steady state (a Job reused on one kernel) it allocates nothing.
//
//roccc:hotpath
func decodeResultInto(d *decoder, job *netlist.Job) error {
	job.Cycles = int(d.u64())
	nouts := int(d.u16())
	if job.Outputs == nil && nouts > 0 {
		job.Outputs = make(map[string][]int64, nouts)
	}
	outs := d.off
	for i := 0; i < nouts; i++ {
		name := d.bytes8()
		old, ok := job.Outputs[string(name)]
		vals := d.valsInto(old)
		if d.err != nil {
			break
		}
		if !ok || len(vals) != len(old) {
			job.Outputs[string(name)] = vals // a new key or a resize: allocates the key
		}
	}
	nfb := int(d.u16())
	if job.Feedbacks == nil && nfb > 0 {
		job.Feedbacks = make(map[string]int64, nfb)
	}
	fbs := d.off
	for i := 0; i < nfb; i++ {
		name := d.bytes8()
		v := d.i64()
		if d.err != nil {
			break
		}
		setFeedback(job.Feedbacks, name, v)
	}
	if d.err != nil {
		return fmt.Errorf("serve: malformed result frame: %w", d.err)
	}
	// A Job reused across kernels may hold keys this response never
	// sends; purge them against the names the frame carried.
	if len(job.Outputs) > nouts {
		purgeStale(job.Outputs, d.b, outs, nouts, true)
	}
	if len(job.Feedbacks) > nfb {
		purgeStale(job.Feedbacks, d.b, fbs, nfb, false)
	}
	return nil
}

// purgeStale deletes the keys of m that the frame section at off does
// not carry (see carries).
func purgeStale[V any](m map[string]V, b []byte, off, count int, vector bool) {
	for k := range m {
		if !carries(b, off, count, k, vector) {
			delete(m, k)
		}
	}
}

// setFeedback stores v under name, reusing the map's own key string
// when the name is already present (assigning m[string(name)] would
// allocate the key on every frame).
func setFeedback(m map[string]int64, name []byte, v int64) {
	for k := range m {
		if k == string(name) {
			m[k] = v
			return
		}
	}
	m[string(name)] = v
}

// carries reports whether name is among the count entries of an
// already-decoded frame section at off: each entry is a u8-counted name
// followed by a u32-counted i64 vector (vector) or a single i64.
func carries(b []byte, off, count int, name string, vector bool) bool {
	d := decoder{b: b, off: off}
	for i := 0; i < count; i++ {
		if string(d.bytes8()) == name {
			return true
		}
		n := 1
		if vector {
			n = int(d.u32())
		}
		d.off += 8 * n
	}
	return false
}

// decodeFaultInto reconstructs the exact typed error a serial
// System.Run raises: same operator class, abort cycle and message.
func decodeFaultInto(d *decoder, job *netlist.Job) error {
	cycle := int(d.u32())
	op := d.str8()
	msg := d.str16()
	if d.err != nil {
		return fmt.Errorf("serve: malformed fault frame: %w", d.err)
	}
	job.Err = &dp.FaultError{Op: op, Cycle: cycle, Msg: msg}
	return nil
}

// streamErrFromMsg rebuilds a stream-level error from its wire message,
// recovering the typed BusyError for load-sheds so clients can match it
// with errors.As.
func streamErrFromMsg(msg string) error {
	if be := parseBusy(msg); be != nil {
		return be
	}
	return fmt.Errorf("serve: %s", msg)
}
