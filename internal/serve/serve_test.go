package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
)

const firSource = `
int A[21];
int C[17];
void fir() {
	int i;
	for (i = 0; i < 17; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

const accumSource = `
int A[32];
int sum;
void accum() {
	int i;
	sum = 0;
	for (i = 0; i < 32; i++) {
		sum = sum + A[i];
	}
}
`

const dividerSource = `
int A[24];
int B[24];
int Q[24];
void divide() {
	int i;
	for (i = 0; i < 24; i++) {
		Q[i] = A[i] / B[i];
	}
}
`

func testSpecs() []KernelSpec {
	return []KernelSpec{
		{Name: "fir", Source: firSource, Func: "fir", Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1}},
		{Name: "accum", Source: accumSource, Func: "accum", Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1}},
		{Name: "divide", Source: dividerSource, Func: "divide", Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1}},
	}
}

// startServer brings up a server with the test kernels on a loopback
// listener and tears it down with the test. The returned address is the
// listener's (not srv.Addr(), which only resolves once Serve runs).
func startServer(t *testing.T, workers int) (*Server, string) {
	t.Helper()
	return startServerWith(t, workers, nil)
}

// startServerWith is startServer with a hook that runs after the test
// kernels are registered and before Serve starts (SetDispatcher must be
// called before Serve).
func startServerWith(t *testing.T, workers int, setup func(*Server)) (*Server, string) {
	t.Helper()
	srv := NewServer(workers)
	for _, spec := range testSpecs() {
		if err := srv.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	if setup != nil {
		setup(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

func firStream(seed int64) map[string][]int64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]int64, 21)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	return map[string][]int64{"A": in}
}

// serialFIR runs one stream through a private System for reference.
func serialFIR(t *testing.T, inputs map[string][]int64) ([]int64, int) {
	t.Helper()
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := netlist.NewSystem(res.Kernel, res.Datapath, netlist.Config{BusElems: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadInput("A", inputs["A"]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	out, err := sys.Output("C")
	if err != nil {
		t.Fatal(err)
	}
	return out, sys.Cycles()
}

// TestServeTCPRoundTrip: a TCP batch must return outputs and cycle
// counts bit-identical to serial System.Run, with responses routed to
// the right streams regardless of completion order.
func TestServeTCPRoundTrip(t *testing.T) {
	srv, addr := startServer(t, 4)
	_ = srv
	conn, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 12
	streams := make([]netlist.Job, n)
	for i := range streams {
		streams[i] = netlist.Job{Inputs: firStream(int64(i + 1))}
	}
	for round := 0; round < 3; round++ { // later rounds reuse response buffers
		if err := conn.Run("fir", streams); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range streams {
			want, wantCycles := serialFIR(t, streams[i].Inputs)
			if streams[i].Cycles != wantCycles {
				t.Fatalf("round %d stream %d: %d cycles, serial %d", round, i, streams[i].Cycles, wantCycles)
			}
			got := streams[i].Outputs["C"]
			if len(got) != len(want) {
				t.Fatalf("round %d stream %d: %d outputs, want %d", round, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("round %d stream %d: C[%d] = %d, want %d", round, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestServeFeedbackKernel: an accumulator with no output arrays must
// surface its feedback latch over the wire.
func TestServeFeedbackKernel(t *testing.T) {
	srv, addr := startServer(t, 2)
	_ = srv
	conn, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := make([]int64, 32)
	var want int64
	for i := range in {
		in[i] = int64(i*11 - 99)
		want += in[i]
	}
	streams := []netlist.Job{{Inputs: map[string][]int64{"A": in}}}
	if err := conn.Run("accum", streams); err != nil {
		t.Fatal(err)
	}
	if got := streams[0].Feedbacks["sum"]; got != want {
		t.Fatalf("served sum = %d, want %d", got, want)
	}
}

// TestServeUnknownKernel: a request for an unregistered kernel is a
// request-level error naming the kernel, and the connection survives it.
func TestServeUnknownKernel(t *testing.T) {
	srv, addr := startServer(t, 1)
	_ = srv
	conn, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	streams := []netlist.Job{{Inputs: firStream(1)}}
	err = conn.Run("nope", streams)
	if err == nil || !strings.Contains(err.Error(), `unknown kernel "nope"`) {
		t.Fatalf("err = %v, want unknown-kernel request error", err)
	}
	// Same connection must still serve real requests.
	if err := conn.Run("fir", streams); err != nil {
		t.Fatalf("connection unusable after unknown-kernel error: %v", err)
	}
}

// TestServeNonStreamableKernel: a kernel that compiles but has no loop
// nest (combinational data path) fails at first use with a request
// error, not a hang or crash.
func TestServeNonStreamableKernel(t *testing.T) {
	srv, addr := startServer(t, 1)
	if err := srv.Register(KernelSpec{
		Name:   "comb",
		Source: "void comb(int8 x, int16* y) { *y = x * 3; }",
		Func:   "comb", Options: core.DefaultOptions(),
		Config: netlist.Config{BusElems: 1},
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = conn.Run("comb", []netlist.Job{{Inputs: map[string][]int64{}}})
	if err == nil || !strings.Contains(err.Error(), "no loop nest") {
		t.Fatalf("err = %v, want a no-loop-nest request error", err)
	}
}

// TestServeMalformedFrame: garbage framing must close the connection
// without taking the server down, and new connections keep working.
func TestServeMalformedFrame(t *testing.T) {
	srv, addr := startServer(t, 1)
	_ = srv

	cases := map[string][]byte{
		// Length prefix far beyond maxFrame.
		"oversized": binary.BigEndian.AppendUint32(nil, 1<<30),
		// Zero-length frame.
		"zero": binary.BigEndian.AppendUint32(nil, 0),
		// Valid length, truncated payload, then close.
		"truncated": append(binary.BigEndian.AppendUint32(nil, 64), 'O', 0, 0),
		// Complete frame with an unknown type byte.
		"unknown-type": append(binary.BigEndian.AppendUint32(nil, 5), 'Z', 0, 0, 0, 1),
		// An Open frame whose body is shorter than its fields claim.
		"short-open": append(binary.BigEndian.AppendUint32(nil, 7), 'O', 0, 0, 0, 1, 200, 'x'),
	}
	for name, raw := range cases {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := c.Write(raw); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		// Half-close: nothing more is coming, so a server waiting on the
		// rest of a truncated frame sees EOF now instead of blocking.
		c.(*net.TCPConn).CloseWrite()
		// The server must close the connection (possibly after a
		// best-effort error frame). Drain until EOF with a deadline.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 4096)
		for {
			if _, err := c.Read(buf); err != nil {
				break
			}
		}
		c.Close()
	}

	// Server still alive and serving.
	conn, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	streams := []netlist.Job{{Inputs: firStream(7)}}
	if err := conn.Run("fir", streams); err != nil {
		t.Fatalf("server unusable after malformed frames: %v", err)
	}
}

// TestServeDisconnectMidStream: a client that opens a request, delivers
// only part of it and vanishes must not leak pooled Systems — every Get
// is balanced by a Put/Reject once in-flight work drains, and the
// kernel keeps serving other clients.
func TestServeDisconnectMidStream(t *testing.T) {
	srv, addr := startServer(t, 2)

	// Prime the kernel so stats exist before the rude client.
	conn, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	streams := []netlist.Job{{Inputs: firStream(3)}}
	if err := conn.Run("fir", streams); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		var e encoder
		e.begin(frameOpen, 1)
		e.str8("fir")
		e.u32(4) // promise four streams...
		if _, err := c.Write(e.finish()); err != nil {
			t.Fatal(err)
		}
		e.begin(frameStream, 1)
		e.u32(0)
		e.u16(1)
		e.str8("A")
		e.vals(firStream(int64(i))["A"])
		if _, err := c.Write(e.finish()); err != nil {
			t.Fatal(err)
		}
		c.Close() // ...deliver one, hang up mid-request
	}

	if !srv.WaitIdle(5 * time.Second) {
		t.Fatal("server did not drain in-flight streams after disconnects")
	}
	st := srv.Stats()["fir"]
	if st.Gets != st.Puts+st.Rejected {
		t.Fatalf("pooled Systems leaked after disconnects: %+v", st)
	}
	if st.Idle == 0 {
		t.Fatalf("pool has no idle Systems after drain: %+v", st)
	}

	// And the kernel still serves.
	conn2, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := conn2.Run("fir", streams); err != nil {
		t.Fatalf("server unusable after disconnects: %v", err)
	}
}

// TestServeFaultAbortCycle: a divide-by-zero on a valid iteration must
// arrive as a typed dp.FaultError whose abort cycle and message match a
// serial System.Run of the same stream exactly.
func TestServeFaultAbortCycle(t *testing.T) {
	_, addr := startServer(t, 2)

	a := make([]int64, 24)
	b := make([]int64, 24)
	for i := range a {
		a[i] = int64(i + 1)
		b[i] = 3
	}
	b[11] = 0 // valid iteration 11 divides by zero
	inputs := map[string][]int64{"A": a, "B": b}

	// Serial reference fault.
	res, err := core.CompileSource(dividerSource, "divide", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := netlist.NewSystem(res.Kernel, res.Datapath, netlist.Config{BusElems: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, vals := range inputs {
		if err := sys.LoadInput(name, vals); err != nil {
			t.Fatal(err)
		}
	}
	_, serialErr := sys.Run()
	var want *dp.FaultError
	if !errors.As(serialErr, &want) {
		t.Fatalf("serial run did not raise a typed fault: %v", serialErr)
	}

	conn, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A healthy stream alongside the faulting one: the batch must not
	// abort wholesale.
	ok := map[string][]int64{"A": a, "B": append([]int64(nil), b...)}
	ok["B"][11] = 5
	streams := []netlist.Job{{Inputs: inputs}, {Inputs: ok}}
	runErr := conn.Run("divide", streams)
	if runErr == nil {
		t.Fatal("faulting batch returned nil")
	}
	var got *dp.FaultError
	if !errors.As(streams[0].Err, &got) {
		t.Fatalf("stream 0 error is %v, want a typed dp.FaultError", streams[0].Err)
	}
	if got.Cycle != want.Cycle || got.Op != want.Op || got.Msg != want.Msg {
		t.Fatalf("served fault %+v, serial fault %+v", got, want)
	}
	if !errors.As(runErr, &got) || !strings.Contains(runErr.Error(), "stream 0") {
		t.Fatalf("Run error %v does not wrap the stream-0 fault", runErr)
	}
	if streams[1].Err != nil {
		t.Fatalf("healthy stream failed alongside the fault: %v", streams[1].Err)
	}
	if len(streams[1].Outputs["Q"]) != 24 {
		t.Fatal("healthy stream missing outputs")
	}
}

// TestServeLocalMatchesTCP: the in-process client and the TCP client
// must produce identical results (same pool, same semantics, no wire).
func TestServeLocalMatchesTCP(t *testing.T) {
	srv, addr := startServer(t, 2)
	local := srv.Local()
	conn, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	mk := func() []netlist.Job {
		jobs := make([]netlist.Job, 6)
		for i := range jobs {
			jobs[i] = netlist.Job{Inputs: firStream(int64(100 + i))}
		}
		return jobs
	}
	viaTCP, viaLocal := mk(), mk()
	if err := conn.Run("fir", viaTCP); err != nil {
		t.Fatal(err)
	}
	if err := local.Run("fir", viaLocal); err != nil {
		t.Fatal(err)
	}
	for i := range viaTCP {
		if viaTCP[i].Cycles != viaLocal[i].Cycles {
			t.Fatalf("stream %d: cycles %d via TCP, %d via Local", i, viaTCP[i].Cycles, viaLocal[i].Cycles)
		}
		a, b := viaTCP[i].Outputs["C"], viaLocal[i].Outputs["C"]
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("stream %d: C[%d] = %d via TCP, %d via Local", i, j, a[j], b[j])
			}
		}
	}

	// Local must also report unknown kernels.
	if err := local.Run("nope", mk()); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatalf("Local unknown-kernel err = %v", err)
	}
}

// TestServeGracefulShutdown: Shutdown refuses new requests, lets
// in-flight ones finish, and Serve returns nil.
func TestServeGracefulShutdown(t *testing.T) {
	srv := NewServer(2)
	for _, spec := range testSpecs() {
		if err := srv.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn, err := DialContext(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	streams := []netlist.Job{{Inputs: firStream(5)}}
	if err := conn.Run("fir", streams); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful Shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}

	// Post-shutdown requests fail: connection refused or drain error.
	if c2, err := DialContext(context.Background(), ln.Addr().String()); err == nil {
		if err := c2.Run("fir", streams); err == nil {
			t.Fatal("request succeeded after Shutdown")
		}
		c2.Close()
	}
	if err := srv.Local().Run("fir", streams); err == nil {
		t.Fatal("Local request succeeded after Shutdown")
	}
}

// TestServeBackendSelection: the server inherits the execution backend
// per registered kernel through KernelSpec.Config — the same source
// registered on different backends must serve bit-identical outputs,
// cycle counts and feedback values, and each entry's pool must build
// Systems on its own backend. Evicting every pool and serving again
// must rebuild each one from the spec config: the active backend and
// every output, cycle count and feedback value stay as they were.
func TestServeBackendSelection(t *testing.T) {
	srv := NewServer(2)
	for _, b := range dp.Backends() {
		for _, spec := range []KernelSpec{
			{Name: "fir-" + b.String(), Source: firSource, Func: "fir", Options: core.DefaultOptions(),
				Config: netlist.Config{BusElems: 1, Backend: b}},
			{Name: "accum-" + b.String(), Source: accumSource, Func: "accum", Options: core.DefaultOptions(),
				Config: netlist.Config{BusElems: 1, Backend: b}},
		} {
			if err := srv.Register(spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	local := srv.Local()

	fin := firStream(97)["A"]
	ain := make([]int64, 32)
	for i := range ain {
		ain[i] = int64(i*13 - 200)
	}
	type got struct {
		out      []int64
		cycles   int
		feedback int64
	}
	serveAll := func() map[string]got {
		results := map[string]got{}
		for _, b := range dp.Backends() {
			fjobs := []netlist.Job{{Inputs: map[string][]int64{"A": fin}}}
			if err := local.Run("fir-"+b.String(), fjobs); err != nil {
				t.Fatalf("[%v] fir: %v", b, err)
			}
			ajobs := []netlist.Job{{Inputs: map[string][]int64{"A": ain}}}
			if err := local.Run("accum-"+b.String(), ajobs); err != nil {
				t.Fatalf("[%v] accum: %v", b, err)
			}
			results[b.String()] = got{
				out:      fjobs[0].Outputs["C"],
				cycles:   fjobs[0].Cycles,
				feedback: ajobs[0].Feedbacks["sum"],
			}
		}
		return results
	}
	same := func(label string, r, ref got) {
		t.Helper()
		if r.cycles != ref.cycles {
			t.Fatalf("%s: fir cycles %d, want %d", label, r.cycles, ref.cycles)
		}
		if len(r.out) != len(ref.out) {
			t.Fatalf("%s: fir output length %d, want %d", label, len(r.out), len(ref.out))
		}
		for j := range ref.out {
			if r.out[j] != ref.out[j] {
				t.Fatalf("%s: fir C[%d] = %d, want %d", label, j, r.out[j], ref.out[j])
			}
		}
		if r.feedback != ref.feedback {
			t.Fatalf("%s: accum sum = %d, want %d", label, r.feedback, ref.feedback)
		}
	}
	active := func() map[string]string {
		m := map[string]string{}
		for _, ki := range srv.KernelInfos() {
			m[ki.Kernel] = ki.BackendActive
		}
		return m
	}

	results := serveAll()
	ref := results[dp.BackendInterp.String()]
	for _, b := range dp.Backends()[1:] {
		same(fmt.Sprintf("[%v] vs interp", b), results[b.String()], ref)
	}
	before := active()

	// Post-eviction rebuilds build from the spec config.
	for name := range before {
		if err := srv.Evict(name); err != nil {
			t.Fatalf("evict %s: %v", name, err)
		}
	}
	for _, ki := range srv.KernelInfos() {
		if ki.Resident || ki.Evictions != 1 {
			t.Fatalf("%s not evicted: %+v", ki.Kernel, ki)
		}
	}
	rebuilt := serveAll()
	after := active()
	for _, b := range dp.Backends() {
		for _, name := range []string{"fir-" + b.String(), "accum-" + b.String()} {
			if after[name] != before[name] || after[name] == "" {
				t.Fatalf("%s: backend_active %q after rebuild, %q before", name, after[name], before[name])
			}
		}
		same(fmt.Sprintf("[%v] after eviction", b), rebuilt[b.String()], results[b.String()])
	}
}
