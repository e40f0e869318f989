package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
)

// TestProtoV1Compat pins the v1 byte stream: the request is assembled
// by hand with encoding/binary — NOT the package encoder — and the
// response parsed the same way, so any change to the wire layout breaks
// this test even if encoder and decoder change in lockstep. A v1 client
// never sends a hello, so this also proves the v2 server serves
// hello-less connections unchanged.
func TestProtoV1Compat(t *testing.T) {
	_, addr := startServer(t, 2)

	in := make([]int64, 32)
	var wantSum int64
	for i := range in {
		in[i] = int64(i*7 - 100)
		wantSum += in[i]
	}
	// Serial reference for the cycle count.
	res, err := core.CompileSource(accumSource, "accum", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := netlist.NewSystem(res.Kernel, res.Datapath, netlist.Config{BusElems: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadInput("A", in); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	wantCycles := uint64(sys.Cycles())

	// The pinned v1 request: Open("accum", 1 stream) + Stream(0, A=in).
	const req = 7
	open := []byte{frameOpen}
	open = binary.BigEndian.AppendUint32(open, req)
	open = append(open, byte(len("accum")))
	open = append(open, "accum"...)
	open = binary.BigEndian.AppendUint32(open, 1)

	stream := []byte{frameStream}
	stream = binary.BigEndian.AppendUint32(stream, req)
	stream = binary.BigEndian.AppendUint32(stream, 0) // stream idx
	stream = binary.BigEndian.AppendUint16(stream, 1) // one input array
	stream = append(stream, 1, 'A')
	stream = binary.BigEndian.AppendUint32(stream, uint32(len(in)))
	for _, v := range in {
		stream = binary.BigEndian.AppendUint64(stream, uint64(v))
	}

	var raw []byte
	for _, body := range [][]byte{open, stream} {
		raw = binary.BigEndian.AppendUint32(raw, uint32(len(body)))
		raw = append(raw, body...)
	}

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Write(raw); err != nil {
		t.Fatal(err)
	}

	readRaw := func() []byte {
		t.Helper()
		var hdr [4]byte
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			t.Fatal(err)
		}
		p := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(c, p); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Result frame: 'R', req, idx=0, u64 cycles, u16 0 outputs,
	// u16 1 feedback, str8 "sum", i64 value — exactly 33 bytes.
	rp := readRaw()
	if len(rp) != 33 || rp[0] != frameResult {
		t.Fatalf("result frame = % x (len %d)", rp, len(rp))
	}
	if got := binary.BigEndian.Uint32(rp[1:5]); got != req {
		t.Fatalf("result request id = %d, want %d", got, req)
	}
	if got := binary.BigEndian.Uint32(rp[5:9]); got != 0 {
		t.Fatalf("result stream idx = %d, want 0", got)
	}
	if got := binary.BigEndian.Uint64(rp[9:17]); got != wantCycles {
		t.Fatalf("served %d cycles, serial %d", got, wantCycles)
	}
	if nouts := binary.BigEndian.Uint16(rp[17:19]); nouts != 0 {
		t.Fatalf("%d output arrays, want 0", nouts)
	}
	if nfb := binary.BigEndian.Uint16(rp[19:21]); nfb != 1 {
		t.Fatalf("%d feedbacks, want 1", nfb)
	}
	if rp[21] != 3 || string(rp[22:25]) != "sum" {
		t.Fatalf("feedback name bytes = % x", rp[21:25])
	}
	if got := int64(binary.BigEndian.Uint64(rp[25:33])); got != wantSum {
		t.Fatalf("served sum = %d, serial %d", got, wantSum)
	}

	// Done frame: 'D', req — exactly 5 bytes.
	dpf := readRaw()
	if len(dpf) != 5 || dpf[0] != frameDone || binary.BigEndian.Uint32(dpf[1:5]) != req {
		t.Fatalf("done frame = % x", dpf)
	}
}

// TestDialPipelinedV1Server: against a server that does not speak v2 the
// pipelined dial must fail with an error telling the caller what
// happened and what to use instead — never hang, never fall back
// silently to serial framing.
func TestDialPipelinedV1Server(t *testing.T) {
	// A v1 server answers the unknown 'V' frame with a request-level
	// error and closes; a misconfigured v2 server could also answer the
	// hello with a downgraded version. Both must refuse cleanly.
	fake := func(t *testing.T, respond func(c net.Conn, req uint32)) string {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			payload, err := readFrame(c, nil)
			if err != nil {
				return
			}
			d := decoder{b: payload}
			if typ := d.u8(); typ != frameHello {
				return
			}
			respond(c, d.u32())
		}()
		return ln.Addr().String()
	}

	t.Run("v1-error-close", func(t *testing.T) {
		addr := fake(t, func(c net.Conn, req uint32) {
			var e encoder
			e.begin(frameError, req)
			e.u32(streamNone)
			e.str16(`serve: unexpected frame type 'V'`)
			c.Write(e.finish())
		})
		_, err := DialContext(context.Background(), addr, WithPipelined(0))
		if err == nil || !strings.Contains(err.Error(), "protocol v1") || !strings.Contains(err.Error(), "use DialContext without WithPipelined") {
			t.Fatalf("err = %v, want a protocol-v1 refusal pointing at serial DialContext", err)
		}
	})
	t.Run("downgraded-hello", func(t *testing.T) {
		addr := fake(t, func(c net.Conn, req uint32) {
			var e encoder
			e.begin(frameHello, req)
			e.u16(ProtoV1)
			c.Write(e.finish())
		})
		_, err := DialContext(context.Background(), addr, WithPipelined(0))
		if err == nil || !strings.Contains(err.Error(), "negotiated protocol v1") {
			t.Fatalf("err = %v, want a negotiated-v1 refusal", err)
		}
	})
}

// TestServePipelinedConcurrent: many goroutines share ONE pipelined
// connection — mixed kernels, a guaranteed fault, keepalives — and every
// response must land on the request that asked for it, bit-identical to
// the serial ground truth. A request-level failure (unknown kernel) must
// fail only its own Run, leaving the connection healthy.
func TestServePipelinedConcurrent(t *testing.T) {
	_, addr := startServer(t, 4)
	conn, err := DialContext(context.Background(), addr, WithPipelined(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Serial ground truth, computed once.
	type ref struct {
		out    []int64
		cycles int
	}
	refs := map[int64]ref{}
	for seed := int64(1); seed <= 6; seed++ {
		out, cycles := serialFIR(t, firStream(seed))
		refs[seed] = ref{out, cycles}
	}
	accumIn := make([]int64, 32)
	var accumSum int64
	for i := range accumIn {
		accumIn[i] = int64(i*13 - 170)
		accumSum += accumIn[i]
	}
	divA := make([]int64, 24)
	divB := make([]int64, 24)
	for i := range divA {
		divA[i] = int64(i + 2)
		divB[i] = 4
	}
	divB[9] = 0
	res, err := core.CompileSource(dividerSource, "divide", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dsys, err := netlist.NewSystem(res.Kernel, res.Datapath, netlist.Config{BusElems: 1})
	if err != nil {
		t.Fatal(err)
	}
	dsys.LoadInput("A", divA)
	dsys.LoadInput("B", divB)
	_, serialErr := dsys.Run()
	var wantFault *dp.FaultError
	if !errors.As(serialErr, &wantFault) {
		t.Fatalf("serial divide did not fault: %v", serialErr)
	}

	const goroutines = 8
	const iters = 6
	errCh := make(chan error, goroutines)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			jobs := make([]netlist.Job, 3)
			seeds := make([]int64, 3)
			for it := 0; it < iters; it++ {
				for i := range jobs {
					seeds[i] = int64((g+it+i)%6) + 1
					jobs[i] = netlist.Job{Inputs: firStream(seeds[i]),
						Outputs: jobs[i].Outputs, Feedbacks: jobs[i].Feedbacks}
				}
				if err := conn.Run("fir", jobs); err != nil {
					fail(err)
					return
				}
				for i := range jobs {
					want := refs[seeds[i]]
					if jobs[i].Cycles != want.cycles {
						fail(errors.New("fir cycle mismatch under pipelining"))
						return
					}
					for j := range want.out {
						if jobs[i].Outputs["C"][j] != want.out[j] {
							fail(errors.New("fir output cross-wired under pipelining"))
							return
						}
					}
				}
				switch g % 3 {
				case 0:
					a := []netlist.Job{{Inputs: map[string][]int64{"A": accumIn}}}
					if err := conn.Run("accum", a); err != nil {
						fail(err)
						return
					}
					if a[0].Feedbacks["sum"] != accumSum {
						fail(errors.New("accum sum cross-wired under pipelining"))
						return
					}
				case 1:
					d := []netlist.Job{{Inputs: map[string][]int64{"A": divA, "B": divB}}}
					if err := conn.Run("divide", d); err == nil {
						fail(errors.New("guaranteed fault returned nil"))
						return
					}
					var fe *dp.FaultError
					if !errors.As(d[0].Err, &fe) || fe.Cycle != wantFault.Cycle || fe.Msg != wantFault.Msg {
						fail(errors.New("served fault does not match serial fault"))
						return
					}
				case 2:
					if it%2 == 0 {
						if err := conn.Ping(); err != nil {
							fail(err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Request-level failure only fails its own Run.
	if err := conn.Run("nope", []netlist.Job{{Inputs: firStream(1)}}); err == nil ||
		!strings.Contains(err.Error(), `unknown kernel "nope"`) {
		t.Fatalf("unknown-kernel err = %v", err)
	}
	if !conn.Healthy() {
		t.Fatal("connection poisoned by a request-level error")
	}
	final := []netlist.Job{{Inputs: firStream(2)}}
	if err := conn.Run("fir", final); err != nil {
		t.Fatalf("connection unusable after request error: %v", err)
	}
	if final[0].Cycles != refs[2].cycles {
		t.Fatal("post-error request mismatched serial reference")
	}
}

// TestServePing: the keepalive round-trips on a pipelined conn and is
// refused with a clear error on a serial one.
func TestServePing(t *testing.T) {
	_, addr := startServer(t, 1)
	pc, err := DialContext(context.Background(), addr, WithPipelined(0))
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	for i := 0; i < 3; i++ {
		if err := pc.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	sc, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Ping(); err == nil || !strings.Contains(err.Error(), "pipelined") {
		t.Fatalf("serial Ping err = %v, want a pipelined-only refusal", err)
	}
}

// TestServeEvictionRebuild: evicting a kernel drops only its warm pool.
// The compiled artifacts and every plan on hir.Kernel.PlanCache survive
// — the next request rebuilds the pool from the cached plans, with
// results identical to before, and no plan is ever rebuilt (pointer
// identity across the eviction proves it).
func TestServeEvictionRebuild(t *testing.T) {
	srv := NewServer(2)
	if err := srv.Register(testSpecs()[0]); err != nil { // fir
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	local := srv.Local()

	jobs := []netlist.Job{{Inputs: firStream(11)}}
	if err := local.Run("fir", jobs); err != nil {
		t.Fatal(err)
	}
	baseline := append([]int64(nil), jobs[0].Outputs["C"]...)
	baseCycles := jobs[0].Cycles

	srv.mu.Lock()
	e := srv.kernels["fir"]
	srv.mu.Unlock()
	e.mu.Lock()
	compiled := e.compiled
	e.mu.Unlock()
	if compiled == nil {
		t.Fatal("kernel not compiled after first use")
	}
	plans := map[any]any{}
	compiled.Kernel.PlanCache.Range(func(k, v any) bool { plans[k] = v; return true })
	if len(plans) == 0 {
		t.Fatal("no system plans cached after first use")
	}

	if err := srv.Evict("fir"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if e.pool.Load() != nil {
		t.Fatal("pool survived eviction")
	}
	var cold KernelInfo
	for _, info := range srv.KernelInfos() {
		if info.Kernel == "fir" {
			cold = info
		}
	}
	if !cold.Compiled || cold.Resident || cold.Evictions != 1 {
		t.Fatalf("post-evict metrics = %+v, want compiled, not resident, 1 eviction", cold)
	}
	// Evicting a cold kernel is a no-op, not an error.
	if err := srv.Evict("fir"); err != nil {
		t.Fatalf("second Evict: %v", err)
	}

	jobs2 := []netlist.Job{{Inputs: firStream(11)}}
	if err := local.Run("fir", jobs2); err != nil {
		t.Fatalf("post-eviction run: %v", err)
	}
	if jobs2[0].Cycles != baseCycles {
		t.Fatalf("post-eviction cycles %d, want %d", jobs2[0].Cycles, baseCycles)
	}
	for i := range baseline {
		if jobs2[0].Outputs["C"][i] != baseline[i] {
			t.Fatalf("post-eviction C[%d] = %d, want %d", i, jobs2[0].Outputs["C"][i], baseline[i])
		}
	}

	e.mu.Lock()
	again := e.compiled
	e.mu.Unlock()
	if again != compiled {
		t.Fatal("eviction triggered a recompile: compiled result replaced")
	}
	compiled.Kernel.PlanCache.Range(func(k, v any) bool {
		if prev, ok := plans[k]; ok && prev != v {
			t.Errorf("system plan rebuilt after eviction for key %v", k)
		}
		return true
	})
	if e.pool.Load() == nil {
		t.Fatal("pool not rebuilt by post-eviction request")
	}
}

// TestServeEvictBusy: eviction must refuse — typed, matchable with
// errors.Is — while the kernel has in-flight streams, and succeed once
// they drain.
func TestServeEvictBusy(t *testing.T) {
	srv := NewServer(1)
	if err := srv.Register(testSpecs()[0]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	jobs := []netlist.Job{{Inputs: firStream(1)}}
	if err := srv.Local().Run("fir", jobs); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	e := srv.kernels["fir"]
	srv.mu.Unlock()

	e.inflight.Add(1) // a stream is mid-execution
	err := srv.Evict("fir")
	if !errors.Is(err, ErrEvictBusy) {
		t.Fatalf("Evict with in-flight stream: %v, want ErrEvictBusy", err)
	}
	if e.pool.Load() == nil {
		t.Fatal("refused eviction still dropped the pool")
	}
	e.inflight.Add(-1)
	if err := srv.Evict("fir"); err != nil {
		t.Fatalf("Evict after drain: %v", err)
	}
}

// TestServeEvictionInvisible races a client against an eviction loop:
// clients must never observe an error or a wrong bit — a stream that
// loses the race sees ErrPoolClosed internally and retries on the
// rebuilt pool.
func TestServeEvictionInvisible(t *testing.T) {
	srv := NewServer(2)
	if err := srv.Register(testSpecs()[0]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	local := srv.Local()
	want, wantCycles := serialFIR(t, firStream(9))

	// A free-running evictor probes the eviction/stream races (it mostly
	// sees ErrEvictBusy); the deterministic evictions happen in the client
	// loop below, where inflight is guaranteed zero.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.Evict("fir") // ErrEvictBusy while streams run: fine
				runtime.Gosched()
			}
		}
	}()

	jobs := make([]netlist.Job, 1)
	for i := 0; i < 150; i++ {
		if i%10 == 5 {
			if err := srv.Evict("fir"); err != nil && !errors.Is(err, ErrEvictBusy) {
				t.Fatalf("iteration %d: Evict: %v", i, err)
			}
		}
		jobs[0] = netlist.Job{Inputs: firStream(9), Outputs: jobs[0].Outputs}
		if err := local.Run("fir", jobs); err != nil {
			t.Fatalf("iteration %d: eviction leaked to the client: %v", i, err)
		}
		if jobs[0].Cycles != wantCycles {
			t.Fatalf("iteration %d: %d cycles, want %d", i, jobs[0].Cycles, wantCycles)
		}
		for j := range want {
			if jobs[0].Outputs["C"][j] != want[j] {
				t.Fatalf("iteration %d: C[%d] = %d, want %d", i, j, jobs[0].Outputs["C"][j], want[j])
			}
		}
	}
	close(stop)
	wg.Wait()

	srv.mu.Lock()
	e := srv.kernels["fir"]
	srv.mu.Unlock()
	if e.evictions.Load() == 0 {
		t.Fatal("eviction loop never actually evicted")
	}
}

// TestServeSetMaxIdleFor: the per-kernel idle cap overrides the
// server-wide one, trims the warm pool immediately, and clears back to
// inherited on a negative value.
func TestServeSetMaxIdleFor(t *testing.T) {
	srv := NewServer(4)
	if err := srv.Register(testSpecs()[0]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	local := srv.Local()
	jobs := make([]netlist.Job, 8)
	for i := range jobs {
		jobs[i] = netlist.Job{Inputs: firStream(int64(i))}
	}
	if err := local.Run("fir", jobs); err != nil {
		t.Fatal(err)
	}
	// How many Systems the batch leaves idle depends on worker
	// scheduling, so hold three out of the pool at once and hand them
	// back: the warm pool then has at least three idle Systems to trim.
	srv.mu.Lock()
	e := srv.kernels["fir"]
	srv.mu.Unlock()
	pool, err := e.getPool()
	if err != nil {
		t.Fatal(err)
	}
	held := make([]*netlist.System, 3)
	for i := range held {
		if held[i], err = pool.Get(); err != nil {
			t.Fatal(err)
		}
	}
	for _, sys := range held {
		pool.Put(sys)
	}
	if idle := srv.Stats()["fir"].Idle; idle < 3 {
		t.Fatalf("pool kept only %d idle Systems after returning 3", idle)
	}

	if err := srv.SetMaxIdleFor("fir", 1); err != nil {
		t.Fatal(err)
	}
	if idle := srv.Stats()["fir"].Idle; idle > 1 {
		t.Fatalf("idle = %d after SetMaxIdleFor(1)", idle)
	}
	var info KernelInfo
	for _, ki := range srv.KernelInfos() {
		if ki.Kernel == "fir" {
			info = ki
		}
	}
	if info.MaxIdle != 1 {
		t.Fatalf("KernelInfo.MaxIdle = %d, want 1", info.MaxIdle)
	}

	// The server-wide cap must not override the pinned kernel...
	srv.SetMaxIdle(6)
	if got := e.idleCap(); got != 1 {
		t.Fatalf("idleCap = %d after server-wide SetMaxIdle, want pinned 1", got)
	}
	// ...until the override is cleared.
	if err := srv.SetMaxIdleFor("fir", -1); err != nil {
		t.Fatal(err)
	}
	if got := e.idleCap(); got != 6 {
		t.Fatalf("idleCap = %d after clearing override, want inherited 6", got)
	}
	if err := srv.SetMaxIdleFor("nope", 1); err == nil {
		t.Fatal("SetMaxIdleFor on an unknown kernel succeeded")
	}
}

// TestServeMetricsEndpoint is the observability acceptance test: the
// HTTP endpoint's JSON must decode back into the Metrics shape and
// report, for every kernel, the backend the pooled Systems actually
// execute on and whether the feedback cone is closed-form — verified
// against an independently built System with the same config.
func TestServeMetricsEndpoint(t *testing.T) {
	srv := NewServer(2)
	type probe struct {
		source, fn string
		cfg        netlist.Config
	}
	probes := map[string]probe{}
	for _, b := range dp.Backends() {
		cfg := netlist.Config{BusElems: 1, Backend: b}
		for _, k := range []struct{ name, source, fn string }{
			{"fir-" + b.String(), firSource, "fir"},
			{"accum-" + b.String(), accumSource, "accum"},
		} {
			if err := srv.Register(KernelSpec{Name: k.name, Source: k.source, Func: k.fn,
				Options: core.DefaultOptions(), Config: cfg}); err != nil {
				t.Fatal(err)
			}
			probes[k.name] = probe{k.source, k.fn, cfg}
		}
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	local := srv.Local()
	ain := make([]int64, 32)
	for name := range probes {
		in := firStream(3)
		if strings.HasPrefix(name, "accum") {
			in = map[string][]int64{"A": ain}
		}
		if err := local.Run(name, []netlist.Job{{Inputs: in}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	hs := httptest.NewServer(srv.MetricsHandler())
	defer hs.Close()
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}

	if m.Proto != ProtoV2 || m.Workers != 2 || m.Draining {
		t.Fatalf("metrics header = %+v", m)
	}
	if m.Served != int64(len(probes)) {
		t.Fatalf("served = %d, want %d", m.Served, len(probes))
	}
	if len(m.Kernels) != len(probes) {
		t.Fatalf("%d kernels in metrics, want %d", len(m.Kernels), len(probes))
	}
	if !sort.SliceIsSorted(m.Kernels, func(i, j int) bool {
		return m.Kernels[i].Kernel < m.Kernels[j].Kernel
	}) {
		t.Fatal("kernel infos not sorted by name")
	}
	for _, info := range m.Kernels {
		p := probes[info.Kernel]
		res, err := core.CompileSource(p.source, p.fn, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sys, err := netlist.NewSystem(res.Kernel, res.Datapath, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Compiled || !info.Resident {
			t.Errorf("%s: compiled=%v resident=%v after serving", info.Kernel, info.Compiled, info.Resident)
		}
		if info.BackendConfigured != p.cfg.Backend.String() {
			t.Errorf("%s: configured backend %q, want %q", info.Kernel, info.BackendConfigured, p.cfg.Backend.String())
		}
		if want := sys.Backend().String(); info.BackendActive != want {
			t.Errorf("%s: active backend %q, independent System says %q", info.Kernel, info.BackendActive, want)
		}
		if want := sys.HasClosedFormCone(); info.ClosedFormCone != want {
			t.Errorf("%s: closed_form_cone %v, independent System says %v", info.Kernel, info.ClosedFormCone, want)
		}
		if info.Opens != 1 || info.Streams != 1 || info.LastUse == 0 {
			t.Errorf("%s: opens=%d streams=%d lastUse=%d, want 1/1/nonzero", info.Kernel, info.Opens, info.Streams, info.LastUse)
		}
		if info.Pool == nil || info.Pool.Gets == 0 || info.Pool.Gets != info.Pool.Puts+info.Pool.Rejected {
			t.Errorf("%s: pool stats missing or unbalanced: %+v", info.Kernel, info.Pool)
		}
	}
	if len(m.Conns) != 0 {
		t.Fatalf("%d conns reported with no TCP clients", len(m.Conns))
	}
}
