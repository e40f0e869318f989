package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"roccc/internal/core"
	"roccc/internal/netlist"
)

// TestReadFrameHostileLength: a length prefix is a claim, not an
// allocation size. A header claiming maxFrame followed by ten body bytes
// and EOF must fail with the typed truncation error without sizing a
// maxFrame buffer.
func TestReadFrameHostileLength(t *testing.T) {
	raw := binary.BigEndian.AppendUint32(nil, maxFrame)
	raw = append(raw, frameStream, 0, 0, 0, 1, 0, 0, 0, 0, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(raw), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncatedFrame) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a truncated-frame error", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 2<<20 {
		t.Fatalf("a %d-byte frame claim with 10 body bytes allocated %d bytes", maxFrame, d)
	}
	// A partial header is truncated too; EOF at a frame boundary is not.
	if _, err := readFrame(bytes.NewReader(raw[:2]), nil); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("partial header: err = %v, want a truncated-frame error", err)
	}
	if _, err := readFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// scaleSource is a kernel whose input and output arrays share no name
// with the other test kernels, so a recycled stream task switching to or
// from it must drop every previous key.
const scaleSource = `
int X[40];
int Y[40];
void scale() {
	int i;
	for (i = 0; i < 40; i++) {
		Y[i] = 3*X[i] - 7;
	}
}
`

// inputChecker is a Dispatcher over the server's registry (through a
// gate, so a request can be held in flight) that inspects every stream
// before it runs: it must carry exactly its kernel's input arrays — a
// stale key left in a recycled Job would fail LoadInput — and it records
// when one Inputs map serves streams of different kernels, which proves
// the server recycled scratch across kernels.
type inputChecker struct {
	g     *gate
	names map[string][]string // kernel → sorted input names

	mu       sync.Mutex
	last     map[uintptr]string
	switches int
	stale    []string
}

func (c *inputChecker) Dispatch(kernel string) (Runner, error) {
	r, err := c.g.Dispatch(kernel)
	if err != nil {
		return nil, err
	}
	return checkedRunner{next: r, kernel: kernel, c: c}, nil
}

type checkedRunner struct {
	next   Runner
	kernel string
	c      *inputChecker
}

func (r checkedRunner) RunStream(job *netlist.Job) error {
	c := r.c
	var got []string
	for name := range job.Inputs {
		got = append(got, name)
	}
	sort.Strings(got)
	c.mu.Lock()
	if want := c.names[r.kernel]; !reflect.DeepEqual(got, want) {
		c.stale = append(c.stale, r.kernel+": inputs "+strings.Join(got, ",")+" want "+strings.Join(want, ","))
	}
	id := reflect.ValueOf(job.Inputs).Pointer()
	if prev, ok := c.last[id]; ok && prev != r.kernel {
		c.switches++
	}
	c.last[id] = r.kernel
	c.mu.Unlock()
	return r.next.RunStream(job)
}

// TestStreamScratchRecycling interleaves, over one pipelined connection,
// four kernels with different input-array names (fir: A; accum: A of
// another length, with a feedback latch; divide: A and B; scale: X),
// planted divide-by-zero faults and a Shutdown drain. Every response
// must be bit-identical to a serial interp System.Run — outputs,
// feedback latches, cycle counts, the typed fault's op and abort cycle,
// and no leftover keys in the client's reused Jobs — no stream may reach
// LoadInput with a stale input key, and every pool must balance.
func TestStreamScratchRecycling(t *testing.T) {
	scale := KernelSpec{Name: "scale", Source: scaleSource, Func: "scale",
		Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1}}
	specs := append(testSpecs(), scale)
	refSpecs := make([]KernelSpec, len(specs))
	for i, s := range specs {
		s.Config.Serial = true // the serial interp reference
		refSpecs[i] = s
	}
	refs := buildSoakRefs(t, refSpecs, 4)
	chk := &inputChecker{names: map[string][]string{}, last: map[uintptr]string{}}
	for _, r := range refs {
		var names []string
		for name := range r.inputs {
			names = append(names, name)
		}
		sort.Strings(names)
		chk.names[r.kernel] = names
	}
	srv, addr := startServerWith(t, 2, func(s *Server) {
		if err := s.Register(scale); err != nil {
			t.Fatal(err)
		}
		chk.g = newGate(s)
		s.SetDispatcher(chk)
	})
	conn, err := DialContext(context.Background(), addr, WithPipelined(0))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	kernels := []string{"fir", "accum", "divide", "scale"}
	run := func(jobs []netlist.Job, picked []*soakRef, kernel string) error {
		for i, r := range picked {
			jobs[i].Inputs = r.inputs
		}
		err := conn.Run(kernel, jobs[:len(picked)])
		if err != nil && !isExpectedFaultBatch(picked) {
			return err
		}
		for i, r := range picked {
			if err := checkSoak(&jobs[i], r); err != nil {
				return err
			}
		}
		return nil
	}

	// Interleaved phase: concurrent requests of random kernels, each
	// goroutine reusing one Job slice across kernels.
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			jobs := make([]netlist.Job, 4)
			for n := 0; n < 40; n++ {
				kernel := kernels[rng.Intn(len(kernels))]
				cands := pickRefs(refs, kernel)
				picked := make([]*soakRef, 1+rng.Intn(len(jobs)))
				for i := range picked {
					picked[i] = cands[rng.Intn(len(cands))]
				}
				if err := run(jobs, picked, kernel); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Drain phase: hold a faulting two-stream divide request in flight
	// (two streams fill the server's two slots, so the connection's
	// reader stays free), start Shutdown, and check a request opened
	// while draining is refused while the held one still completes
	// bit-identically.
	held := pickRefs(refs, "divide")[:2]
	if !isExpectedFaultBatch(held) {
		t.Fatal("the held divide request plants no fault")
	}
	chk.g.armed.Store(true)
	heldDone := make(chan error, 1)
	go func() { heldDone <- run(make([]netlist.Job, 2), held, "divide") }()
	<-chk.g.entered
	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shut <- srv.Shutdown(ctx)
	}()
	for !srv.closing.Load() {
		time.Sleep(time.Millisecond)
	}
	if err := conn.Run("fir", []netlist.Job{{Inputs: refs[0].inputs}}); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("request opened while draining: err = %v, want a draining refusal", err)
	}
	close(chk.g.release)
	if err := <-heldDone; err != nil {
		t.Fatalf("held request: %v", err)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	assertPoolsBalanced(t, srv)
	chk.mu.Lock()
	defer chk.mu.Unlock()
	for _, s := range chk.stale {
		t.Errorf("stale input key reached the runner: %s", s)
	}
	if chk.switches == 0 {
		t.Error("no recycled Inputs map switched kernels: the test did not exercise recycling")
	}
}

// captureConn is the fuzz harness's peer: it records every Write as one
// chunk. Only Write and Close are used by the code under test.
type captureConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *captureConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	return len(b), nil
}

func (c *captureConn) Close() error { return nil }

// typedFrameErr reports whether a frame-read or demux error is one of
// the typed outcomes hostile bytes may produce.
func typedFrameErr(err error) bool {
	return err == io.EOF || errors.Is(err, ErrTruncatedFrame) || errors.Is(err, ErrMalformedFrame)
}

// fuzzServer feeds a byte stream to a server connection's frame loop,
// waits for its executors, and checks the pools balanced and that every
// write carried whole frames.
func fuzzServer(t *testing.T, srv *Server, data []byte) {
	peer := &captureConn{}
	sc := newSrvConn(srv, peer)
	r := bytes.NewReader(data)
	var buf []byte
	for {
		payload, err := readFrame(r, buf)
		if err != nil {
			if !typedFrameErr(err) {
				t.Fatalf("server read: untyped error %v", err)
			}
			break
		}
		buf = scratch(payload)
		if !sc.frame(payload) {
			break
		}
	}
	sc.quiesce()
	for name, st := range srv.Stats() {
		if st.Gets != st.Puts+st.Rejected {
			t.Fatalf("pool %s unbalanced: %+v", name, st)
		}
	}
	for _, w := range peer.writes {
		wr := bytes.NewReader(w)
		for {
			if _, err := readFrame(wr, nil); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("server wrote a partial frame (% x): %v", w, err)
			}
		}
	}
}

// fuzzClient feeds a byte stream to a pipelined client's demux with a
// fixed table of in-flight requests, and checks every request reaches
// exactly one terminal status once the connection aborts.
func fuzzClient(t *testing.T, data []byte) {
	c := &Conn{c: &captureConn{}, pipelined: true, pending: map[uint32]*pending{}}
	var ps []*pending
	for req := 1; req <= 8; req++ {
		var p *pending
		switch req {
		case 6:
			p = getPending("", nil, true)
		case 7:
			p = getPending("accum", make([]netlist.Job, 1), false)
		default:
			jobs := make([]netlist.Job, 2)
			jobs[1].Outputs = map[string][]int64{"stale": {1}}
			jobs[1].Feedbacks = map[string]int64{"stale": 1}
			p = getPending("fir", jobs, false)
		}
		if _, err := c.register(p); err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	ps[7].cancelled = true
	r := bytes.NewReader(data)
	var buf []byte
	for {
		payload, err := readFrame(r, buf)
		if err == nil {
			buf = scratch(payload)
			err = c.demux(payload)
			if err == nil {
				continue
			}
		}
		if !typedFrameErr(err) {
			t.Fatalf("client: untyped error %v", err)
		}
		c.abort(err)
		break
	}
	for i, p := range ps {
		select {
		case <-p.done:
		default:
			t.Fatalf("request %d never reached a terminal status", i+1)
		}
		if len(p.done) != 0 {
			t.Fatalf("request %d reached two terminal statuses", i+1)
		}
	}
}

// frameSeeds returns the fuzz seeds: the v1 golden exchange of
// TestProtoV1Compat (assembled by hand with encoding/binary, as that
// test does) and a v2 hello/open/stream/result exchange with a planted
// fault, a shed and a keepalive (built with the package encoder).
func frameSeeds() [][2][]byte {
	frame := func(raw, body []byte) []byte {
		raw = binary.BigEndian.AppendUint32(raw, uint32(len(body)))
		return append(raw, body...)
	}
	in := make([]int64, 32)
	for i := range in {
		in[i] = int64(i*7 - 100)
	}
	open := binary.BigEndian.AppendUint32([]byte{frameOpen}, 7)
	open = append(open, byte(len("accum")))
	open = append(open, "accum"...)
	open = binary.BigEndian.AppendUint32(open, 1)
	stream := binary.BigEndian.AppendUint32([]byte{frameStream}, 7)
	stream = binary.BigEndian.AppendUint32(stream, 0)
	stream = binary.BigEndian.AppendUint16(stream, 1)
	stream = append(stream, 1, 'A')
	stream = binary.BigEndian.AppendUint32(stream, uint32(len(in)))
	var sum int64
	for _, v := range in {
		stream = binary.BigEndian.AppendUint64(stream, uint64(v))
		sum += v
	}
	result := binary.BigEndian.AppendUint32([]byte{frameResult}, 7)
	result = binary.BigEndian.AppendUint32(result, 0)
	result = binary.BigEndian.AppendUint64(result, 40)
	result = binary.BigEndian.AppendUint16(result, 0)
	result = binary.BigEndian.AppendUint16(result, 1)
	result = append(result, 3, 's', 'u', 'm')
	result = binary.BigEndian.AppendUint64(result, uint64(sum))
	done := binary.BigEndian.AppendUint32([]byte{frameDone}, 7)
	v1 := [2][]byte{frame(frame(nil, open), stream), frame(frame(nil, result), done)}

	var e encoder
	var toServer, toClient []byte
	add := func(dst *[]byte) { *dst = append(*dst, e.finish()...) }
	e.begin(frameHello, 0)
	e.u16(ProtoV2)
	add(&toServer)
	e.begin(frameOpen, 1)
	e.str8("fir")
	e.u32(2)
	for i := range 2 {
		e.next(frameStream, 1)
		e.u32(uint32(i))
		e.u16(1)
		e.str8("A")
		e.vals(firStream(int64(i + 1))["A"])
	}
	add(&toServer)
	e.begin(frameKeepAlive, 2)
	add(&toServer)
	a, b := make([]int64, 24), make([]int64, 24)
	for i := range a {
		a[i], b[i] = int64(i+1), 3
	}
	b[11] = 0
	e.begin(frameOpen, 3)
	e.str8("divide")
	e.u32(1)
	e.next(frameStream, 3)
	e.u32(0)
	e.u16(2)
	e.str8("A")
	e.vals(a)
	e.str8("B")
	e.vals(b)
	add(&toServer)

	e.begin(frameResult, 1)
	e.u32(1)
	e.u64(30)
	e.u16(1)
	e.str8("C")
	e.vals(make([]int64, 17))
	e.u16(0)
	e.next(frameFault, 1)
	e.u32(0)
	e.u32(14)
	e.str8("div")
	e.str16("division by zero")
	e.next(frameDone, 1)
	add(&toClient)
	e.begin(frameKeepAlive, 6)
	add(&toClient)
	e.begin(frameError, 2)
	e.u32(0)
	e.str16((&BusyError{Kernel: "fir", Shard: 0}).Error())
	e.next(frameResult, 2)
	e.u32(1)
	e.u64(30)
	e.u16(0)
	e.u16(1)
	e.str8("sum")
	e.i64(-5)
	e.next(frameDone, 2)
	add(&toClient)
	v2 := [2][]byte{toServer, toClient}
	return [][2][]byte{v1, v2}
}

// FuzzServeFrames drives arbitrary byte streams through both ends of
// the wire: readFrame → srvConn.frame on the server, readFrame → demux
// on a pipelined client. Any byte stream must end in a typed error (or a
// clean EOF), never a panic or a hang; the server's pools stay balanced
// (Gets == Puts + Rejected) and it writes only whole frames; every
// client request reaches exactly one terminal status.
func FuzzServeFrames(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s[0], s[1])
	}
	srv := NewServer(2)
	for _, spec := range testSpecs() {
		if err := srv.Register(spec); err != nil {
			f.Fatal(err)
		}
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	f.Fuzz(func(t *testing.T, toServer, toClient []byte) {
		fuzzServer(t, srv, toServer)
		fuzzClient(t, toClient)
	})
}
