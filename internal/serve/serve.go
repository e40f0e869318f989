// Package serve is the long-lived simulation service over
// netlist.SystemPool: many kernels resident, request = input streams,
// response = output streams. A server compiles and caches each kernel on
// first use (the compiled system plan lives on hir.Kernel.PlanCache, so
// every pooled System shares it), keeps a warm SystemPool per kernel,
// and speaks a length-prefixed binary framing over TCP (proto.go).
// Mid-stream faults — e.g. a divide-by-zero on a valid iteration —
// travel as typed dp.FaultError values carrying the abort cycle, so a
// served fault is indistinguishable from the same fault raised by a
// serial netlist.System.Run.
//
// The serving stack is three explicit layers (PR 8):
//
//   - wire: the framed protocol and the per-connection loop below, which
//     demuxes many concurrent requests per connection by request id
//     (proto.go documents v1 vs v2);
//   - placement: the Dispatcher seam — by default a server executes on
//     its own kernel registry, but a front-end can plug a fleet router
//     that consistent-hashes kernels across worker shards
//     (internal/fleet) without touching the wire layer;
//   - observability: Metrics/KernelInfos/ConnInfos snapshot every
//     counter this file maintains (metrics.go serves them over HTTP).
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
)

// KernelSpec names one servable kernel: the C source, the function to
// extract, its compile options and the system configuration its pooled
// Systems are built with. Compilation is deferred to the first request.
type KernelSpec struct {
	Name    string
	Source  string
	Func    string
	Options core.Options
	Config  netlist.Config
}

// SpecFor adapts a Table 1 bench kernel to a servable spec.
func SpecFor(k bench.Kernel) KernelSpec {
	return KernelSpec{
		Name:    k.Name,
		Source:  k.Source,
		Func:    k.Func,
		Options: k.Options,
		Config:  netlist.Config{BusElems: k.BusElems, Scalars: k.Scalars},
	}
}

// Table1Specs returns every Table 1 kernel as a servable spec. The
// combinational rows (fully unrolled bit-level kernels, LUTs) carry no
// loop nest, so a request for them reports a typed request error at
// first use rather than at registration.
func Table1Specs() []KernelSpec {
	ks := bench.All()
	specs := make([]KernelSpec, len(ks))
	for i, k := range ks {
		specs[i] = SpecFor(k)
	}
	return specs
}

// Runner executes admitted streams for one kernel, resolved once at
// request open. The returned error is the job's (per-stream failures,
// including typed *dp.FaultError faults and *BusyError load-sheds).
// Connections recycle Jobs across streams, so RunStream must finish with
// the job before it returns and, on success, leave exactly this stream's
// outputs and feedbacks in it (netlist's pool paths and the TCP client
// purge the keys they do not write).
type Runner interface {
	RunStream(job *netlist.Job) error
}

// Dispatcher resolves a kernel name at request-open time to the Runner
// its streams execute on. A plain Server dispatches into its own kernel
// registry; a front-end server fronting worker shards plugs a
// fleet.Router here instead — the wire layer is identical either way.
type Dispatcher interface {
	Dispatch(kernel string) (Runner, error)
}

// BusyError is the typed load-shed fault: admission control refused the
// stream because the target shard's executors were saturated. It
// travels the wire as a stream-level error frame whose message the
// client reconstructs into the same typed value.
type BusyError struct {
	Kernel string
	Shard  int
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("serve: busy: kernel %q shard %d: executors saturated", e.Kernel, e.Shard)
}

// parseBusy reconstructs a typed BusyError from its wire message, nil
// when the message is not a busy shed.
func parseBusy(msg string) *BusyError {
	var kernel string
	var shard int
	if n, _ := fmt.Sscanf(msg, "serve: busy: kernel %q shard %d:", &kernel, &shard); n == 2 {
		return &BusyError{Kernel: kernel, Shard: shard}
	}
	return nil
}

// ErrEvictBusy marks an eviction refused because the kernel had
// in-flight streams; match with errors.Is.
var ErrEvictBusy = errors.New("kernel has in-flight streams")

// kernelEntry is one registered kernel: compiled on first use, then a
// warm pool of Systems until eviction. The compiled artifacts survive
// eviction — hir.Kernel carries the plan cache — so a post-eviction
// request rebuilds only the pool, not the plans. pool is an atomic
// pointer because streams, metrics and eviction all peek at it
// concurrently; mu orders the slow paths (compile, pool build, evict).
type kernelEntry struct {
	srv  *Server
	spec KernelSpec

	mu       sync.Mutex
	compiled *core.Result
	cerr     error // latched compile/build error: deterministic, never retried
	pool     atomic.Pointer[netlist.SystemPool]

	// Probed off the eagerly built System at pool-build time (metrics):
	// the actual execution backend and whether the plan's feedback cone
	// vectorizes in closed form. Guarded by mu during writes; read after
	// pool is visible.
	backend dp.Backend
	cone    bool

	// idleOverride is the per-kernel idle cap (SetMaxIdleFor); negative
	// means inherit the server-wide cap.
	idleOverride atomic.Int64

	// Counters for the metrics plane. inflight gates eviction; hwm is
	// the concurrency high-water mark since the last Autotune drain.
	inflight  atomic.Int64
	hwm       atomic.Int64
	opens     atomic.Int64
	streams   atomic.Int64
	faults    atomic.Int64
	evictions atomic.Int64
	lastUse   atomic.Int64 // server logical tick of the most recent open
}

func (e *kernelEntry) idleCap() int {
	if n := e.idleOverride.Load(); n >= 0 {
		return int(n)
	}
	return int(e.srv.maxIdle.Load())
}

// ensure compiles the kernel (first use only) and builds its pool
// (first use and after eviction). The compiled plans live on the
// hir.Kernel, so a post-eviction rebuild reuses them.
func (e *kernelEntry) ensure() error {
	if e.pool.Load() != nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cerr != nil {
		return e.cerr
	}
	if e.pool.Load() != nil {
		return nil
	}
	if e.compiled == nil {
		res, err := core.CompileSource(e.spec.Source, e.spec.Func, e.spec.Options)
		if err != nil {
			e.cerr = fmt.Errorf("serve: kernel %q: %w", e.spec.Name, err)
			return e.cerr
		}
		e.compiled = res
	}
	pool, err := netlist.NewSystemPool(e.compiled.Kernel, e.compiled.Datapath, e.spec.Config, e.srv.workers)
	if err != nil {
		// Deterministic (geometry/config), so latch it like a compile
		// failure: combinational kernels refuse every request the same way.
		e.cerr = fmt.Errorf("serve: kernel %q: %w", e.spec.Name, err)
		return e.cerr
	}
	pool.SetMaxIdle(e.idleCap())
	// Probe the eagerly built System for the metrics plane: the actual
	// backend it executes on and whether its feedback cone is closed-form.
	if sys, err := pool.Get(); err == nil {
		e.backend = sys.Backend()
		e.cone = sys.HasClosedFormCone()
		pool.Put(sys)
	}
	e.pool.Store(pool)
	return nil
}

// getPool returns a live pool for the kernel, compiling on first use
// and rebuilding after an eviction. Callers keep the returned pointer:
// an eviction racing them swaps the entry's pool to nil, so a re-Load
// could observe nil mid-stream — while a captured pool at worst fails
// jobs with ErrPoolClosed, which the callers retry.
func (e *kernelEntry) getPool() (*netlist.SystemPool, error) {
	for {
		if p := e.pool.Load(); p != nil {
			return p, nil
		}
		if err := e.ensure(); err != nil {
			return nil, err
		}
	}
}

// RunStream executes one stream on the kernel's pool, counting it for
// the metrics plane. A stream that loses the race with an eviction
// (ErrPoolClosed) retries once on the rebuilt pool, so eviction is
// invisible to clients.
func (e *kernelEntry) RunStream(job *netlist.Job) error {
	n := e.inflight.Add(1)
	for hw := e.hwm.Load(); n > hw && !e.hwm.CompareAndSwap(hw, n); hw = e.hwm.Load() {
	}
	defer e.inflight.Add(-1)
	e.streams.Add(1)
	pool, err := e.getPool()
	if err != nil {
		job.Err = err
		return err
	}
	pool.RunJob(job)
	if errors.Is(job.Err, netlist.ErrPoolClosed) {
		if pool, err = e.getPool(); err != nil {
			job.Err = err
		} else {
			pool.RunJob(job)
		}
	}
	if job.Err != nil {
		var fe *dp.FaultError
		if errors.As(job.Err, &fe) {
			e.faults.Add(1)
		}
	}
	return job.Err
}

// runBatch is RunStream for a whole batch (the in-process client),
// sharded over the pool's worker crew, with the same eviction-retry and
// accounting contract.
func (e *kernelEntry) runBatch(jobs []netlist.Job) error {
	n := e.inflight.Add(1)
	for hw := e.hwm.Load(); n > hw && !e.hwm.CompareAndSwap(hw, n); hw = e.hwm.Load() {
	}
	defer e.inflight.Add(-1)
	e.streams.Add(int64(len(jobs)))
	pool, err := e.getPool()
	if err != nil {
		return err
	}
	err = pool.RunBatch(jobs)
	if errors.Is(err, netlist.ErrPoolClosed) {
		if pool, err = e.getPool(); err == nil {
			err = pool.RunBatch(jobs)
		}
	}
	for i := range jobs {
		if jobs[i].Err == nil {
			continue // &fe escapes: declare it only on the fault path
		}
		var fe *dp.FaultError
		if errors.As(jobs[i].Err, &fe) {
			e.faults.Add(1)
		}
	}
	return err
}

// Server is the streaming simulation service. Zero value is not usable;
// build with NewServer, Register kernels, then Serve a listener (or use
// the in-process client via Local).
type Server struct {
	workers int
	maxIdle atomic.Int64 // per-pool idle cap, applied as kernels compile
	tick    atomic.Int64 // logical clock for per-kernel LRU recency

	// dispatcher overrides kernel resolution (SetDispatcher); nil means
	// this server's own registry.
	dispatcher Dispatcher

	mu      sync.Mutex
	kernels map[string]*kernelEntry
	conns   map[net.Conn]*srvConn
	ln      net.Listener

	// streams tracks in-flight stream executions across all connections
	// and in-process clients, for graceful drain. drainMu orders stream
	// admission against the closing transition: admissions hold the read
	// side while they check closing and Add, Shutdown takes the write
	// side to flip closing — so no Add can race a Wait parked on a zero
	// counter (documented sync.WaitGroup misuse).
	drainMu  sync.RWMutex
	streams  sync.WaitGroup
	inflight atomic.Int64
	closing  atomic.Bool

	// Served counters (for logs/metrics).
	served atomic.Int64
	faults atomic.Int64
	sheds  atomic.Int64
}

// NewServer builds a server whose per-kernel pools shard across workers
// goroutines (<= 0 means GOMAXPROCS); workers also bounds each
// connection's concurrent stream executions — with pipelined (v2)
// clients it acts as the per-request-slot semaphore all of one
// connection's requests share. The value is normalized here so the
// connection executors see the same width the pools do.
func NewServer(workers int) *Server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Server{
		workers: workers,
		kernels: map[string]*kernelEntry{},
		conns:   map[net.Conn]*srvConn{},
	}
}

// Workers returns the per-connection executor width (also each kernel
// pool's shard width) — the capacity figure admission control budgets
// against.
func (s *Server) Workers() int { return s.workers }

// SetDispatcher replaces kernel resolution for every subsequent request
// open: streams execute on whatever Runner d resolves instead of this
// server's registry. Set it before Serve; a front-end server fronting a
// fleet needs no registered kernels at all.
func (s *Server) SetDispatcher(d Dispatcher) { s.dispatcher = d }

// Register adds a kernel spec. Re-registering a name is an error (the
// pool identity would silently change under live clients).
func (s *Server) Register(spec KernelSpec) error {
	if spec.Name == "" || len(spec.Name) > maxName {
		return fmt.Errorf("serve: invalid kernel name %q", spec.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.kernels[spec.Name]; dup {
		return fmt.Errorf("serve: kernel %q already registered", spec.Name)
	}
	e := &kernelEntry{srv: s, spec: spec}
	e.idleOverride.Store(-1)
	s.kernels[spec.Name] = e
	return nil
}

// Registered reports whether a kernel name is in this server's registry
// (fleet routers use it to refuse unknown kernels at request open).
func (s *Server) Registered(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.kernels[name]
	return ok
}

// Kernels lists registered kernel names (sorted by registration map
// iteration — callers sort if they need stable order).
func (s *Server) Kernels() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.kernels))
	for n := range s.kernels {
		names = append(names, n)
	}
	return names
}

// entry resolves and compiles a kernel by name.
func (s *Server) entry(name string) (*kernelEntry, error) {
	s.mu.Lock()
	e, ok := s.kernels[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown kernel %q", name)
	}
	if err := e.ensure(); err != nil {
		return nil, err
	}
	return e, nil
}

// dispatch resolves a kernel at request open: the plugged Dispatcher if
// any, this server's registry otherwise. Registry opens count toward
// the kernel's recency and open counters.
func (s *Server) dispatch(kernel string) (Runner, error) {
	if d := s.dispatcher; d != nil {
		return d.Dispatch(kernel)
	}
	e, err := s.entry(kernel)
	if err != nil {
		return nil, err
	}
	e.opens.Add(1)
	e.lastUse.Store(s.tick.Add(1))
	return e, nil
}

// RunStream executes one stream of one kernel through the dispatch seam
// — the same path a TCP stream frame takes, minus the wire. Fleet
// workers call it; per-stream failures land in job.Err.
func (s *Server) RunStream(kernel string, job *netlist.Job) error {
	if !s.beginStream() {
		job.Err = fmt.Errorf("serve: server is draining")
		return job.Err
	}
	defer s.endStream()
	r, err := s.dispatch(kernel)
	if err != nil {
		job.Err = err
		return err
	}
	r.RunStream(job)
	s.countStream(job.Err)
	return job.Err
}

// countStream maintains the served/fault/shed totals for one answered
// stream.
func (s *Server) countStream(err error) {
	s.served.Add(1)
	if err == nil {
		return
	}
	var fe *dp.FaultError
	var be *BusyError
	switch {
	case errors.As(err, &fe):
		s.faults.Add(1)
	case errors.As(err, &be):
		s.sheds.Add(1)
	}
}

// Evict drops a kernel's warm pool, refusing (ErrEvictBusy) while any
// of its streams is in flight. The compiled artifacts stay cached on
// the entry — the next request rebuilds the pool from the plans on
// hir.Kernel.PlanCache without recompiling anything — so eviction is a
// memory-pressure valve, not an unregistration.
func (s *Server) Evict(name string) error {
	s.mu.Lock()
	e, ok := s.kernels[name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: unknown kernel %q", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := e.inflight.Load(); n != 0 {
		return fmt.Errorf("serve: evict %q: %w (%d)", name, ErrEvictBusy, n)
	}
	pool := e.pool.Swap(nil)
	if pool == nil {
		return nil // already cold
	}
	pool.Close()
	e.evictions.Add(1)
	return nil
}

// SetMaxIdle caps each kernel pool's idle free list (<= 0 removes the
// cap). It applies to pools compiled after the call and to already-warm
// pools immediately; per-kernel overrides (SetMaxIdleFor) win over it.
func (s *Server) SetMaxIdle(n int) {
	s.maxIdle.Store(int64(n))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.kernels {
		if e.idleOverride.Load() >= 0 {
			continue
		}
		if pool := e.pool.Load(); pool != nil {
			pool.SetMaxIdle(n)
		}
	}
}

// SetMaxIdleFor pins one kernel's idle cap (n < 0 clears the override
// back to the server-wide cap). Fleet autotuning drives it from
// observed per-kernel load.
func (s *Server) SetMaxIdleFor(name string, n int) error {
	s.mu.Lock()
	e, ok := s.kernels[name]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: unknown kernel %q", name)
	}
	if n < 0 {
		n = -1
	}
	e.idleOverride.Store(int64(n))
	if pool := e.pool.Load(); pool != nil {
		pool.SetMaxIdle(e.idleCap())
	}
	return nil
}

// Stats snapshots each compiled kernel's pool counters.
func (s *Server) Stats() map[string]netlist.PoolStats {
	s.mu.Lock()
	entries := make([]*kernelEntry, 0, len(s.kernels))
	for _, e := range s.kernels {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	out := map[string]netlist.PoolStats{}
	for _, e := range entries {
		if pool := e.pool.Load(); pool != nil {
			out[e.spec.Name] = pool.Stats()
		}
	}
	return out
}

// Served returns the total streams answered and the faulted subset.
func (s *Server) Served() (streams, faults int64) {
	return s.served.Load(), s.faults.Load()
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until the listener closes (Shutdown).
// It returns nil after a graceful Shutdown, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			return err
		}
		sc := newSrvConn(s, c)
		// Register under mu with a closing re-check in the same critical
		// section: Shutdown flips closing before its close-all pass takes
		// mu, so a conn either lands in s.conns in time to be closed
		// there, or sees closing here and is refused — never neither.
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = sc
		s.mu.Unlock()
		go sc.serve()
	}
}

// Addr returns the listening address (for tests using ":0").
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// beginStream admits one stream execution unless the server is
// draining; endStream retires it. See drainMu for the ordering contract.
func (s *Server) beginStream() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.closing.Load() {
		return false
	}
	s.streams.Add(1)
	s.inflight.Add(1)
	return true
}

func (s *Server) endStream() {
	s.inflight.Add(-1)
	s.streams.Done()
}

// Shutdown drains the server: new requests are refused, in-flight
// streams finish, then connections close and the per-kernel worker
// crews stop. ctx bounds the drain; on expiry remaining connections are
// closed anyway and ctx.Err is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.closing.Store(true)
	s.drainMu.Unlock()
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.streams.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	clear(s.conns)
	entries := make([]*kernelEntry, 0, len(s.kernels))
	for _, e := range s.kernels {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	for _, e := range entries {
		if pool := e.pool.Load(); pool != nil {
			pool.Close()
		}
	}
	return err
}

// reqState is one open request on a connection: the kernel's resolved
// Runner and the count of stream responses still owed before 'D'. With
// a pipelined client many reqStates are live on one connection at once;
// they live by value in srvConn.reqs, so an open allocates nothing.
type reqState struct {
	kernel    string
	runner    Runner
	remaining uint32 // responses owed; guarded by srvConn.mu
}

// streamTask is one admitted stream on its way through a connection's
// executors. Tasks are recycled per connection (srvConn.free): the Job's
// input and output slices and maps carry over from stream to stream, so
// a steady stream of one kernel's requests allocates nothing.
type streamTask struct {
	req, idx uint32
	kernel   string
	runner   Runner
	job      netlist.Job

	// spare is decodeInputs' stash of the previous stream's inputs.
	spare []spareVals
}

type spareVals struct {
	name string
	vals []int64
	used bool
}

// decodeInputs fills the task's Job.Inputs from a stream frame's narr
// arrays. The map is rebuilt from scratch on every stream, so an input
// name the previous stream carried and this one does not never reaches
// LoadInput (runJob rejects unknown input names); the previous stream's
// key strings and slices are reused by name, and otherwise for their
// capacity.
func (t *streamTask) decodeInputs(d *decoder, narr int) {
	in := t.job.Inputs
	if in == nil {
		in = make(map[string][]int64, narr)
		t.job.Inputs = in
	}
	t.spare = t.spare[:0]
	for name, vals := range in {
		t.spare = append(t.spare, spareVals{name: name, vals: vals})
	}
	clear(in)
	for i := 0; i < narr; i++ {
		name, dst := t.reuse(d.bytes8())
		vals := d.valsInto(dst)
		if d.err != nil {
			break
		}
		in[name] = vals
	}
	clear(t.spare) // drop the unused buffers
}

// reuse picks the stash entry for an input name: the previous buffer of
// the same name, else any unused one (valsInto reallocates if it is too
// small). A name seen for the first time costs its key string.
func (t *streamTask) reuse(name []byte) (string, []int64) {
	free := -1
	for i := range t.spare {
		sp := &t.spare[i]
		if sp.used {
			continue
		}
		if sp.name == string(name) {
			sp.used = true
			return sp.name, sp.vals
		}
		if free < 0 {
			free = i
		}
	}
	if free < 0 {
		return string(name), nil
	}
	t.spare[free].used = true
	return string(name), t.spare[free].vals
}

// scratchBytes estimates the task's retained footprint: its arrays plus
// a map-entry overhead, so a frame of many empty arrays counts too.
func (t *streamTask) scratchBytes() int {
	const entry = 64
	n := entry * (len(t.job.Inputs) + len(t.job.Outputs))
	for _, v := range t.job.Inputs {
		n += 8 * cap(v)
	}
	for _, v := range t.job.Outputs {
		n += 8 * cap(v)
	}
	return n
}

// srvConn is the server side of one client connection.
type srvConn struct {
	srv *Server
	c   net.Conn

	// wmu keeps each response Write whole (executors finish out of
	// order); enc encodes the rare frames written under it — stream
	// responses are encoded outside it into pooled encoders.
	wmu sync.Mutex
	enc encoder

	// mu guards the open requests and the recycled stream tasks.
	mu   sync.Mutex
	reqs map[uint32]reqState
	free []*streamTask

	// sem is the per-request-slot semaphore: it bounds this connection's
	// concurrent stream executions across all its in-flight requests; the
	// reader blocks acquiring it, which stops reading the socket and
	// backpressures the client through TCP itself. Admitted streams queue
	// on tasks for the connection's executors; execs (reader-owned)
	// counts the executors started so far.
	sem   chan struct{}
	tasks chan *streamTask
	execs int

	// names interns the kernel names this connection's requests open
	// (reader-owned).
	names []string

	// Per-connection counters (metrics plane).
	opens   atomic.Int64
	streams atomic.Int64
	faults  atomic.Int64
}

func newSrvConn(s *Server, c net.Conn) *srvConn {
	return &srvConn{
		srv:   s,
		c:     c,
		reqs:  map[uint32]reqState{},
		sem:   make(chan struct{}, s.workers),
		tasks: make(chan *streamTask, s.workers),
	}
}

func (sc *srvConn) serve() {
	c, s := sc.c, sc.srv
	defer func() {
		sc.quiesce()
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	var buf []byte
	for {
		payload, err := readFrame(c, buf)
		if err != nil {
			// Client went away (EOF / closed conn) or sent garbage. A
			// protocol error (oversized/zero/truncated frame) gets a
			// best-effort error frame before the close.
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				sc.writeError(reqNone, streamNone, err.Error())
			}
			return
		}
		buf = scratch(payload)
		if !sc.frame(payload) {
			return
		}
	}
}

// quiesce waits for this connection's in-flight streams (they hold sem
// slots) so their pooled Systems are back before the conn is forgotten,
// then stops its executors; response writes after close fail harmlessly.
func (sc *srvConn) quiesce() {
	for i := 0; i < cap(sc.sem); i++ {
		sc.sem <- struct{}{}
	}
	close(sc.tasks)
}

// frame dispatches one client frame; false closes the connection.
func (sc *srvConn) frame(payload []byte) bool {
	d := decoder{b: payload}
	typ := d.u8()
	req := d.u32()
	switch typ {
	case frameHello:
		ver := d.u16()
		if d.err != nil || d.remaining() || ver == 0 {
			sc.writeError(req, streamNone, "serve: malformed hello frame")
			return false
		}
		sc.writeHello(req, min(int(ver), ProtoV2))
		return true
	case frameKeepAlive:
		if d.err != nil || d.remaining() {
			sc.writeError(req, streamNone, "serve: malformed keepalive frame")
			return false
		}
		sc.writeKeepAlive(req)
		return true
	case frameOpen:
		kernel := sc.kernelName(d.bytes8())
		count := d.u32()
		if d.err != nil || d.remaining() {
			sc.writeError(req, streamNone, "serve: malformed open frame")
			return false
		}
		return sc.open(req, kernel, count)
	case frameStream:
		return sc.stream(req, &d)
	default:
		sc.writeError(req, streamNone, fmt.Sprintf("serve: unexpected frame type %q", typ))
		return false
	}
}

// kernelName interns an open frame's kernel name: a connection opens a
// handful of kernels, so steady-state opens allocate no name strings.
func (sc *srvConn) kernelName(b []byte) string {
	for _, n := range sc.names {
		if n == string(b) {
			return n
		}
	}
	n := string(b)
	if len(sc.names) < maxInterned {
		sc.names = append(sc.names, n)
	}
	return n
}

// maxInterned bounds a connection's interned kernel names.
const maxInterned = 16

func (sc *srvConn) open(req uint32, kernel string, count uint32) bool {
	if sc.srv.closing.Load() {
		sc.writeError(req, streamNone, "serve: server is draining")
		return true
	}
	sc.mu.Lock()
	_, dup := sc.reqs[req]
	sc.mu.Unlock()
	if dup {
		sc.writeError(req, streamNone, fmt.Sprintf("serve: request %d already open", req))
		return false
	}
	runner, err := sc.srv.dispatch(kernel)
	if err != nil {
		sc.writeError(req, streamNone, err.Error())
		return true // request refused; connection stays usable
	}
	sc.opens.Add(1)
	if count == 0 {
		sc.writeDone(req)
		return true
	}
	sc.mu.Lock()
	sc.reqs[req] = reqState{kernel: kernel, runner: runner, remaining: count}
	sc.mu.Unlock()
	return true
}

func (sc *srvConn) stream(req uint32, d *decoder) bool {
	idx := d.u32()
	narr := int(d.u16())
	sc.mu.Lock()
	st, ok := sc.reqs[req]
	sc.mu.Unlock()
	if !ok {
		// Unknown request id: either never opened (protocol misuse) or
		// already aborted by a request-level error — drop the frame.
		return true
	}
	t := sc.getTask(st.kernel)
	t.decodeInputs(d, narr)
	if d.err != nil || d.remaining() {
		sc.putTask(t)
		sc.writeError(req, streamNone, "serve: malformed stream frame")
		return false
	}
	t.req, t.idx, t.runner = req, idx, st.runner
	t.job.Cycles, t.job.Err = 0, nil

	if !sc.srv.beginStream() {
		// Draining: answer the stream with an error (keeping the 'D'
		// accounting intact) instead of racing the shutdown Wait.
		t.job.Err = fmt.Errorf("serve: server is draining")
		sc.respond(t)
		sc.putTask(t)
		return true
	}
	sc.sem <- struct{}{} // backpressure: bounded in-flight per connection
	// Every admitted stream holds a sem slot until it is answered, so
	// keeping an executor per held slot means a queued task never waits
	// for an executor; they start lazily and live as long as the conn.
	if sc.execs < len(sc.sem) {
		sc.execs++
		go sc.execute()
	}
	sc.tasks <- t
	return true
}

// execute is one of the connection's stream executors: it runs admitted
// streams until quiesce closes the task queue.
func (sc *srvConn) execute() {
	for t := range sc.tasks {
		t.runner.RunStream(&t.job) // error is job.Err; pooled Systems return either way
		sc.respond(t)
		sc.putTask(t)
		<-sc.sem
		sc.srv.endStream()
	}
}

// getTask takes a recycled stream task, preferring one whose last stream
// ran the same kernel (its buffers then fit as they are).
func (sc *srvConn) getTask(kernel string) *streamTask {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := len(sc.free)
	pick := -1
	for i := n - 1; i >= 0; i-- {
		if sc.free[i].kernel == kernel {
			pick = i
			break
		}
	}
	if pick < 0 {
		if n < sc.maxFree() {
			return &streamTask{kernel: kernel}
		}
		pick = n - 1 // a full free list: recycle another kernel's task
	}
	t := sc.free[pick]
	sc.free[pick] = sc.free[n-1]
	sc.free[n-1] = nil
	sc.free = sc.free[:n-1]
	t.kernel = kernel
	return t
}

// putTask recycles a task whose response is written. Tasks whose scratch
// grew past bufHighWater are dropped rather than pinned, as are tasks
// beyond the free list's bound.
func (sc *srvConn) putTask(t *streamTask) {
	t.runner = nil
	t.job.Err = nil
	if t.scratchBytes() > bufHighWater {
		return
	}
	sc.mu.Lock()
	if len(sc.free) < sc.maxFree() {
		sc.free = append(sc.free, t)
	}
	sc.mu.Unlock()
}

// maxFree bounds the recycled tasks kept idle to the executor width.
func (sc *srvConn) maxFree() int { return cap(sc.sem) }

// respond writes the stream's result/fault/error frame. The frame is
// encoded outside the write lock into a pooled encoder; under the lock
// the stream is retired and, when it was the last response its request
// owed, the 'D' frame joins it in the same Write. Retiring under wmu
// keeps every request's 'D' behind all of its responses.
func (sc *srvConn) respond(t *streamTask) {
	job := &t.job
	sc.srv.countStream(job.Err)
	sc.streams.Add(1)
	e := getEncoder()
	switch {
	case job.Err == nil:
		e.begin(frameResult, t.req)
		e.u32(t.idx)
		e.u64(uint64(job.Cycles))
		e.u16(uint16(len(job.Outputs)))
		for name, vals := range job.Outputs {
			e.str8(name)
			e.vals(vals)
		}
		e.u16(uint16(len(job.Feedbacks)))
		for name, v := range job.Feedbacks {
			e.str8(name)
			e.i64(v)
		}
	default:
		var fe *dp.FaultError
		if errors.As(job.Err, &fe) {
			sc.faults.Add(1)
			e.begin(frameFault, t.req)
			e.u32(t.idx)
			e.u32(uint32(fe.Cycle))
			e.str8(fe.Op)
			e.str16(fe.Msg)
		} else {
			e.begin(frameError, t.req)
			e.u32(t.idx)
			e.str16(job.Err.Error())
		}
	}
	sc.wmu.Lock()
	if sc.retire(t.req) {
		e.next(frameDone, t.req)
	}
	sc.c.Write(e.finish())
	sc.wmu.Unlock()
	putEncoder(e)
}

// retire counts one answered stream of req and reports whether it was
// the last response the request owed (the request is then closed).
func (sc *srvConn) retire(req uint32) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	st, ok := sc.reqs[req]
	if !ok {
		return false // aborted by a request-level error: no 'D'
	}
	if st.remaining--; st.remaining > 0 {
		sc.reqs[req] = st
		return false
	}
	delete(sc.reqs, req)
	return true
}

func (sc *srvConn) writeDone(req uint32) {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.enc.begin(frameDone, req)
	sc.c.Write(sc.enc.finish())
}

func (sc *srvConn) writeHello(req uint32, version int) {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.enc.begin(frameHello, req)
	sc.enc.u16(uint16(version))
	sc.c.Write(sc.enc.finish())
}

func (sc *srvConn) writeKeepAlive(req uint32) {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.enc.begin(frameKeepAlive, req)
	sc.c.Write(sc.enc.finish())
}

func (sc *srvConn) writeError(req, stream uint32, msg string) {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	sc.enc.begin(frameError, req)
	sc.enc.u32(stream)
	sc.enc.str16(msg)
	sc.c.Write(sc.enc.finish())
	// A request-level error aborts the request: owed streams are dropped.
	if stream == streamNone {
		sc.mu.Lock()
		delete(sc.reqs, req)
		sc.mu.Unlock()
	}
}

// WaitIdle blocks until no stream is in flight or the timeout elapses;
// tests use it to assert pool balance after a client disconnect.
func (s *Server) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// sortedEntries snapshots the registry in name order (metrics plane).
func (s *Server) sortedEntries() []*kernelEntry {
	s.mu.Lock()
	entries := make([]*kernelEntry, 0, len(s.kernels))
	for _, e := range s.kernels {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].spec.Name < entries[j].spec.Name })
	return entries
}
