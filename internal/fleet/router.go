// Package fleet is the placement layer above internal/serve: a
// front-end Router consistent-hashes kernel names across N worker
// shards, so one serving fleet scales kernels horizontally while every
// stream still lands on a warm SystemPool. A shard is either an
// in-process serve.Server or an addressable TCP worker (reached over
// pipelined v2 connections); the Router implements serve.Dispatcher, so
// a front-end serve.Server plugs it in with SetDispatcher and the wire
// layer never knows the difference.
//
// The Router also owns the fleet's resource hygiene:
//
//   - admission control: each shard has a slot budget (its executor
//     width by default); a stream arriving at a saturated shard is shed
//     immediately with a typed serve.BusyError instead of queueing
//     without bound;
//   - registry hygiene: EvictIdle drops the coldest kernels' warm pools
//     (LRU by last-open tick, never while streams are in flight) and
//     Autotune drives each kernel's pool idle cap from its observed
//     concurrency high-water mark.
package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// Shard describes one worker for NewRouter: exactly one of Local (an
// in-process serve.Server) or Addr (a TCP worker speaking protocol v2)
// must be set. Slots bounds the shard's concurrent streams — admission
// control sheds beyond it; <= 0 derives it from the worker's executor
// width (Local.Workers for in-process shards, the dialed server's
// default otherwise).
type Shard struct {
	Local *serve.Server
	Addr  string
	Slots int
}

// defaultRemoteSlots is the admission budget for a TCP shard when the
// spec does not set one (the remote's executor width is not knowable
// before dialing).
const defaultRemoteSlots = 16

// vnodesPerShard is the consistent-hash ring's virtual-node fan-out:
// enough that kernel load spreads within a few percent of even, small
// enough that the ring stays a cache-resident binary-search array.
const vnodesPerShard = 64

// shard is the Router's per-worker state.
type shard struct {
	index int
	local *serve.Server
	addr  string
	slots int64

	inflight atomic.Int64
	hwm      atomic.Int64
	streams  atomic.Int64
	sheds    atomic.Int64

	// Free list of pipelined connections to a TCP shard (Router.Get/Put).
	cmu   sync.Mutex
	conns []*serve.Conn
}

// vnode is one ring point: a hash owned by a shard.
type vnode struct {
	hash  uint64
	shard int32
}

// kernelLoad is the Router's per-kernel record: the cached route (the
// ring is immutable, so a kernel's shard never changes) plus the load
// counters Autotune and the metrics plane read.
type kernelLoad struct {
	route    route
	inflight atomic.Int64
	hwm      atomic.Int64
	uses     atomic.Int64
	lastUse  atomic.Int64
}

// route is the serve.Runner a Dispatch resolves to: one kernel pinned
// to one shard.
type route struct {
	r      *Router
	sh     *shard
	load   *kernelLoad
	kernel string
}

// Router consistent-hashes kernel names across shards and admits
// streams against per-shard slot budgets. It implements
// serve.Dispatcher; it is safe for concurrent use.
type Router struct {
	shards []*shard
	ring   []vnode // sorted by hash
	tick   atomic.Int64

	lmu  sync.RWMutex
	load map[string]*kernelLoad
}

// NewRouter builds a router over the given shards. The ring is fixed at
// construction: vnodesPerShard points per shard, hashed by shard
// identity, so the kernel→shard mapping is deterministic across
// restarts with the same topology.
func NewRouter(shards []Shard) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards")
	}
	r := &Router{
		shards: make([]*shard, len(shards)),
		ring:   make([]vnode, 0, len(shards)*vnodesPerShard),
		load:   map[string]*kernelLoad{},
	}
	for i, s := range shards {
		if (s.Local == nil) == (s.Addr == "") {
			return nil, fmt.Errorf("fleet: shard %d: exactly one of Local or Addr must be set", i)
		}
		slots := s.Slots
		if slots <= 0 {
			if s.Local != nil {
				slots = s.Local.Workers()
			} else {
				slots = defaultRemoteSlots
			}
		}
		sh := &shard{index: i, local: s.Local, addr: s.Addr, slots: int64(slots)}
		r.shards[i] = sh
		key := s.Addr
		if key == "" {
			key = fmt.Sprintf("inproc-%d", i)
		}
		for v := 0; v < vnodesPerShard; v++ {
			r.ring = append(r.ring, vnode{hash: fnv64(fmt.Sprintf("%s#%d", key, v)), shard: int32(i)})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool { return r.ring[i].hash < r.ring[j].hash })
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// fnv64 is the ring's hash: FNV-1a over the name, then a 64-bit
// avalanche finalizer (splitmix64's mixer). Raw FNV of short, similar
// strings — vnode labels, kernel names — clusters in the high bits the
// sorted ring is ordered by, skewing shard arcs as far as 60/40 on two
// shards; the finalizer spreads them to within a few percent of even.
//
//roccc:hotpath
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ShardFor maps a kernel name to its shard: first ring point at or
// after the name's hash, wrapping at the top.
//
//roccc:hotpath
func (r *Router) ShardFor(kernel string) int {
	h := fnv64(kernel)
	ring := r.ring
	lo, hi := 0, len(ring)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ring[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ring) {
		lo = 0
	}
	return int(ring[lo].shard)
}

// Dispatch resolves a kernel to its shard's Runner (serve.Dispatcher).
// The route is cached per kernel — the ring is immutable — so the
// steady state is one read-locked map hit.
//
//roccc:hotpath
func (r *Router) Dispatch(kernel string) (serve.Runner, error) {
	r.lmu.RLock()
	kl := r.load[kernel]
	r.lmu.RUnlock()
	if kl == nil {
		var err error
		if kl, err = r.admitKernel(kernel); err != nil {
			return nil, err
		}
	}
	kl.uses.Add(1)
	kl.lastUse.Store(r.tick.Add(1))
	return &kl.route, nil
}

// admitKernel is Dispatch's first-use slow path: resolve the shard,
// refuse kernels an in-process shard does not know (so the request
// error surfaces at open, as the registry path would), and cache the
// route. Unknown kernels are not cached — a later registration on the
// shard makes them servable.
func (r *Router) admitKernel(kernel string) (*kernelLoad, error) {
	sh := r.shards[r.ShardFor(kernel)]
	if sh.local != nil && !sh.local.Registered(kernel) {
		return nil, fmt.Errorf("fleet: unknown kernel %q (shard %d)", kernel, sh.index)
	}
	r.lmu.Lock()
	defer r.lmu.Unlock()
	if kl := r.load[kernel]; kl != nil {
		return kl, nil
	}
	kl := &kernelLoad{}
	kl.route = route{r: r, sh: sh, load: kl, kernel: kernel}
	r.load[kernel] = kl
	return kl, nil
}

// RunStream admits the stream against the shard's slot budget — shedding
// with a typed serve.BusyError when saturated — and executes it on the
// shard (directly for in-process workers, over a pooled pipelined
// connection for TCP workers).
//
//roccc:hotpath
func (rt *route) RunStream(job *netlist.Job) error {
	sh := rt.sh
	if n := sh.inflight.Add(1); n > sh.slots {
		sh.inflight.Add(-1)
		sh.sheds.Add(1)
		job.Err = &serve.BusyError{Kernel: rt.kernel, Shard: sh.index}
		return job.Err
	}
	n := sh.inflight.Load()
	for hw := sh.hwm.Load(); n > hw && !sh.hwm.CompareAndSwap(hw, n); hw = sh.hwm.Load() {
	}
	kl := rt.load
	kn := kl.inflight.Add(1)
	for hw := kl.hwm.Load(); kn > hw && !kl.hwm.CompareAndSwap(hw, kn); hw = kl.hwm.Load() {
	}
	sh.streams.Add(1)
	var err error
	if sh.local != nil {
		err = sh.local.RunStream(rt.kernel, job)
	} else {
		err = rt.runRemote(job)
	}
	kl.inflight.Add(-1)
	sh.inflight.Add(-1)
	return err
}

// runRemote carries one stream to a TCP shard over a pooled pipelined
// connection.
func (rt *route) runRemote(job *netlist.Job) error {
	c, err := rt.r.Get(rt.sh.index)
	if err != nil {
		job.Err = fmt.Errorf("fleet: shard %d: %w", rt.sh.index, err)
		return job.Err
	}
	one := [1]netlist.Job{*job}
	err = c.Run(rt.kernel, one[:])
	*job = one[0]
	rt.r.Put(rt.sh.index, c)
	if err != nil && job.Err == nil {
		// Request-level failure (transport, unknown kernel on the
		// remote): no stream carries it, so the job does.
		job.Err = err
	}
	return job.Err
}

// Run streams a whole batch through one kernel's shard, filling each
// Job in place; the returned error is the first per-stream failure.
// Concurrency comes from the caller (or the front-end server's
// executors) — Run itself is a serial convenience for tools and
// benches.
func (r *Router) Run(kernel string, jobs []netlist.Job) error {
	runner, err := r.Dispatch(kernel)
	if err != nil {
		return err
	}
	for i := range jobs {
		runner.RunStream(&jobs[i])
	}
	for i := range jobs {
		if jobs[i].Err != nil {
			return fmt.Errorf("fleet: %s stream %d: %w", kernel, i, jobs[i].Err)
		}
	}
	return nil
}

// Get checks a pipelined connection to a TCP shard out of its free
// list, dialing a fresh one on a miss. Callers hand it back with Put —
// a dropped connection pins a socket and shrinks the shard's reuse
// pool.
func (r *Router) Get(i int) (*serve.Conn, error) {
	sh := r.shards[i]
	if sh.addr == "" {
		return nil, fmt.Errorf("fleet: shard %d is in-process: nothing to dial", i)
	}
	sh.cmu.Lock()
	if n := len(sh.conns); n > 0 {
		c := sh.conns[n-1]
		sh.conns = sh.conns[:n-1]
		sh.cmu.Unlock()
		return c, nil
	}
	sh.cmu.Unlock()
	return serve.DialContext(context.Background(), sh.addr, serve.WithPipelined(0))
}

// Put returns a connection to its shard's free list; poisoned
// connections are closed and dropped instead of being reused.
func (r *Router) Put(i int, c *serve.Conn) {
	if c == nil {
		return
	}
	if !c.Healthy() {
		c.Close()
		return
	}
	sh := r.shards[i]
	sh.cmu.Lock()
	sh.conns = append(sh.conns, c)
	sh.cmu.Unlock()
}

// EvictIdle enforces a per-shard residency cap on in-process shards:
// while more than maxResident kernels hold warm pools, the
// least-recently-opened ones are evicted (their compiled plans stay
// cached, so a return of traffic rebuilds the pool without
// recompiling). Kernels with in-flight streams are skipped — serve's
// Evict refuses them — and retried on the next sweep. Returns the
// number of pools dropped.
func (r *Router) EvictIdle(maxResident int) int {
	if maxResident < 0 {
		maxResident = 0
	}
	evicted := 0
	for _, sh := range r.shards {
		if sh.local == nil {
			continue
		}
		infos := sh.local.KernelInfos()
		resident := infos[:0]
		for _, info := range infos {
			if info.Resident {
				resident = append(resident, info)
			}
		}
		excess := len(resident) - maxResident
		if excess <= 0 {
			continue
		}
		sort.Slice(resident, func(i, j int) bool { return resident[i].LastUse < resident[j].LastUse })
		for _, info := range resident[:excess] {
			if err := sh.local.Evict(info.Kernel); err == nil {
				evicted++
			}
		}
	}
	return evicted
}

// Autotune drives each kernel's pool idle cap from observed load: the
// cap becomes the kernel's concurrency high-water mark since the last
// call (never below 1), so hot kernels keep enough warm Systems to
// serve their peak without rebuilds while cold ones shrink to a single
// resident System. The high-water mark resets to the current in-flight
// count, making each call a fresh observation window.
func (r *Router) Autotune() {
	r.lmu.RLock()
	kls := make([]*kernelLoad, 0, len(r.load))
	for _, kl := range r.load {
		kls = append(kls, kl)
	}
	r.lmu.RUnlock()
	for _, kl := range kls {
		sh := kl.route.sh
		if sh.local == nil {
			continue
		}
		hwm := kl.hwm.Swap(kl.inflight.Load())
		if hwm < 1 {
			hwm = 1
		}
		sh.local.SetMaxIdleFor(kl.route.kernel, int(hwm))
	}
}

// Close drops every pooled shard connection. Shard servers belong to
// their owners and are not shut down.
func (r *Router) Close() error {
	for _, sh := range r.shards {
		sh.cmu.Lock()
		conns := sh.conns
		sh.conns = nil
		sh.cmu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
	return nil
}
