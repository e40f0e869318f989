package main

import (
	"context"
	"net"
	"runtime"
	"runtime/metrics"
	"time"

	"roccc/client"
	"roccc/internal/fleet"
	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// fleetShards is the serving topology of both serve workloads: a
// front-end server dispatching through a fleet.Router into two
// in-process shard servers.
const fleetShards = 2

// requestTimeout bounds every request, so a hung fleet fails the run's
// requests instead of hanging the run.
const requestTimeout = 10 * time.Second

// tagArray is the extra input array a traced request carries: [parent
// span ID, request ID]. The traced dispatcher on the front server strips
// it before the stream reaches the router, so server-side spans join
// their client request without the program knowing about tracing.
const tagArray = "perfbench_span"

// fleetEnv is one running fleet plus the benchmark's client connections.
type fleetEnv struct {
	shards []*serve.Server
	router *fleet.Router
	front  *serve.Server
	conns  []*client.Conn
	served chan struct{}
}

// startFleet stands the fleet up on loopback with every kernel
// registered on every shard (the ring decides which shard compiles and
// serves each) and dials nconns pipelined connections. Each shard's
// admission budget covers everything the front server can have in
// flight, so the benchmark never sheds by construction: overload shows
// as queueing, which the latency metrics see. With t non-nil the front
// server dispatches through a tracing wrapper.
func startFleet(ks []*kernelDef, nconns, window int, t *tracer) (*fleetEnv, error) {
	f := &fleetEnv{front: serve.NewServer(0), served: make(chan struct{})}
	slots := nconns * f.front.Workers()
	var shards []fleet.Shard
	for range fleetShards {
		s := serve.NewServer(0)
		for _, k := range ks {
			if err := s.Register(k.spec()); err != nil {
				return nil, err
			}
		}
		f.shards = append(f.shards, s)
		shards = append(shards, fleet.Shard{Local: s, Slots: slots})
	}
	router, err := fleet.NewRouter(shards)
	if err != nil {
		return nil, err
	}
	f.router = router
	var d serve.Dispatcher = router
	if t != nil {
		d = &tracedDispatcher{next: router, t: t}
	}
	f.front.SetDispatcher(d)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		f.front.Serve(ln)
		close(f.served)
	}()
	for range nconns {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		c, err := client.DialContext(ctx, ln.Addr().String(), client.WithPipelined(window))
		cancel()
		if err != nil {
			f.close()
			return nil, err
		}
		f.conns = append(f.conns, c)
	}
	return f, nil
}

// close stops the clients, the front server, the router and the shards,
// and waits for the accept loop to exit.
func (f *fleetEnv) close() {
	for _, c := range f.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.front.Shutdown(ctx)
	<-f.served
	f.router.Close()
	for _, s := range f.shards {
		s.Shutdown(ctx)
	}
}

// fleetCounters sums the fleet's own counters.
type fleetCounters struct {
	built, gets     int64 // pooled Systems built vs checked out
	streams, faults int64 // streams answered by the shards, faulted subset
	routed, sheds   int64 // streams the router admitted vs shed
	hwm             int64 // highest per-shard in-flight count
}

func (f *fleetEnv) counters() fleetCounters {
	var c fleetCounters
	for _, s := range f.shards {
		for _, st := range s.Stats() {
			c.built += st.Built
			c.gets += st.Gets
		}
		n, fl := s.Served()
		c.streams += n
		c.faults += fl
	}
	for _, sm := range f.router.Metrics().Shards {
		c.routed += sm.Streams
		c.sheds += sm.Sheds
		c.hwm = max(c.hwm, sm.HighWater)
	}
	return c
}

// tracedDispatcher wraps the router on the front server: it records a
// fleet.stream span around each stream's execution, parented by the
// client span named in the stream's tag array.
type tracedDispatcher struct {
	next serve.Dispatcher
	t    *tracer
}

func (d *tracedDispatcher) Dispatch(kernel string) (serve.Runner, error) {
	r, err := d.next.Dispatch(kernel)
	if err != nil {
		return nil, err
	}
	return tracedRunner{next: r, t: d.t}, nil
}

type tracedRunner struct {
	next serve.Runner
	t    *tracer
}

func (r tracedRunner) RunStream(job *netlist.Job) error {
	var parent, req uint64
	if tag := job.Inputs[tagArray]; len(tag) == 2 {
		parent, req = uint64(tag[0]), uint64(tag[1])
		delete(job.Inputs, tagArray)
	}
	return r.t.record("fleet.stream", req, parent, func() error { return r.next.RunStream(job) })
}

// tagged returns inputs plus the trace tag.
func tagged(inputs map[string][]int64, parent, req uint64) map[string][]int64 {
	m := make(map[string][]int64, len(inputs)+1)
	for k, v := range inputs {
		m[k] = v
	}
	m[tagArray] = []int64{int64(parent), int64(req)}
	return m
}

// wireBytes is the size on the wire of one request and its responses,
// from the protocol's frame layout (serve/proto.go): the open frame,
// one stream frame per job, one result or fault frame per job and the
// done frame. Trace tags are not counted.
func wireBytes(kernel string, jobs []netlist.Job) int {
	const hdr = 4 + 1 + 4 // length prefix, type, request id
	arrays := func(m map[string][]int64) int {
		n := 2
		for name, v := range m {
			if name != tagArray {
				n += 1 + len(name) + 4 + 8*len(v)
			}
		}
		return n
	}
	n := hdr + 1 + len(kernel) + 4 + hdr // open, done
	for i := range jobs {
		j := &jobs[i]
		n += hdr + 4 + arrays(j.Inputs)
		if fe := asFault(j.Err); fe != nil {
			n += hdr + 4 + 4 + 1 + len(fe.Op) + 2 + len(fe.Msg)
			continue
		}
		n += hdr + 4 + 8 + arrays(j.Outputs) + 2
		for name := range j.Feedbacks {
			n += 1 + len(name) + 8
		}
	}
	return n
}

// runtimeSample is a point-in-time reading of the Go runtime's
// allocation and GC CPU counters.
type runtimeSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// runtimeLayer reports the process-wide allocation and GC cost of the
// streams served between a and b (client, wire, fleet and simulator
// together: they share one process).
func (r *result) runtimeLayer(a, b runtimeSample, streams int64) {
	streams = max(streams, 1)
	r.layer("go.allocs_per_stream", float64(b.mallocs-a.mallocs)/float64(streams), "count")
	r.layer("go.bytes_per_stream", float64(b.bytes-a.bytes)/float64(streams), "B")
	frac := 0.0
	if d := b.allCPU - a.allCPU; d > 0 {
		frac = (b.gcCPU - a.gcCPU) / d
	}
	r.layer("go.gc_cpu_frac", frac, "ratio")
}

// fleetLayer reports the fleet's counters and the client/fleet/wire
// span metrics of a traced phase.
func (r *result) fleetLayer(c fleetCounters, ix spanIndex, wire []float64) {
	r.layer("netlist.pool_hit_frac", 1-float64(c.built)/float64(max(c.gets, 1)), "ratio")
	r.layer("serve.fault_frac", float64(c.faults)/float64(max(c.streams, 1)), "ratio")
	r.layer("fleet.shed_frac", float64(c.sheds)/float64(max(c.routed+c.sheds, 1)), "ratio")
	r.layer("fleet.inflight_hwm", float64(c.hwm), "count")
	for _, l := range []struct {
		metric string
		vals   []float64
	}{
		{"fleet.stream_us", ix.durationsUs("fleet.stream")},
		{"client.request_us", ix.durationsUs("client.request")},
		{"wire.self_us", ix.selfUs("client.request")},
	} {
		r.quantiles(l.metric, l.vals, "us")
	}
	r.layer("wire.bytes_per_stream", median(wire), "B")
}

// quantiles reports name_p50 and name_p99 of vals.
func (r *result) quantiles(name string, vals []float64, unit string) {
	s := summarize(vals)
	r.note("%s: %s", name, s)
	r.layer(name+"_p50", s.Median, unit)
	r.layer(name+"_p99", quantile(vals, 0.99), unit)
}

// compileLayers replays the compile of a serving kernel set — the work
// the fleet does on first use, inside set-up — through the whole
// pipeline with spans around each layer, and reports the compile-layer
// metrics and the plan's shape.
func (r *result) compileLayers(ks []*kernelDef, rounds int) error {
	t := newTracer()
	ops, stages, lines := 0, 0, 0
	for i := range rounds {
		for _, k := range ks {
			ck, err := runPipeline(k, t)
			if err != nil {
				return err
			}
			if i == 0 {
				ops += ck.res.Datapath.NumOps()
				stages += ck.res.Datapath.Stages
				lines += ck.lines
			}
		}
	}
	r.layerTimes(indexSpans(t.snapshot()), len(ks))
	allocs, bytes, err := coreAllocs(ks)
	if err != nil {
		return err
	}
	r.layer("core.allocs_per_kernel", allocs, "count")
	r.layer("core.bytes_per_kernel", bytes, "B")
	r.layer("dp.ops", float64(ops), "count")
	r.layer("dp.stages", float64(stages), "count")
	r.layer("vhdl.lines", float64(lines), "count")
	return nil
}
