package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"roccc/internal/netlist"
)

const (
	// bulkTemplates is the number of seeded inputs per kernel.
	bulkTemplates = 6
	// bulkStreams is the number of same-kernel streams per request.
	bulkStreams = 4
	// bulkWindow is each connection's fixed window of outstanding
	// requests (one closed-loop client goroutine per slot).
	bulkWindow = 4
	// bulkSegment is how long the closed loop issues requests before it
	// lets the window drain and takes one sample; ops_per_s is the
	// median over a run's segments, so one stall of the shared machine
	// moves one sample, not the metric.
	bulkSegment = time.Second
)

// completion is one finished request as a client saw it.
type completion struct {
	at      time.Duration // end, from phase start
	latency time.Duration
	elems   int // verified input elements (0 when the request failed)
	streams int
	bytes   int
	failed  bool
	wrong   string
}

// phaseLog collects completions from many client goroutines.
type phaseLog struct {
	mu    sync.Mutex
	start time.Time
	done  []completion
}

func (l *phaseLog) add(c completion) {
	l.mu.Lock()
	l.done = append(l.done, c)
	l.mu.Unlock()
}

// account folds the log's completions into r's attempted/failed counts
// and mismatches.
func (l *phaseLog) account(r *result) (streams int64) {
	for _, c := range l.done {
		var fails []string
		if c.failed && c.wrong == "" {
			fails = append(fails, "request failed")
		}
		r.attempt(1, boolInt(c.failed), fails...)
		if c.wrong != "" {
			r.mismatch(c.wrong)
		}
		streams += int64(c.streams)
	}
	return streams
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// runStreamBulk is the stream-bulk workload: a closed loop over
// loopback TCP into the 2-shard fleet. nproc pipelined connections each
// keep bulkWindow requests outstanding; every request carries
// bulkStreams same-kernel streams of a long-stream kernel.
func runStreamBulk(o *options) (*result, error) {
	seed := rng(o.seed)
	ks, err := longStreamKernels()
	if err != nil {
		return nil, err
	}
	sks, err := prepareServed(ks, seed, bulkTemplates, 0)
	if err != nil {
		return nil, err
	}
	defs := servedDefs(sks)
	nconns := runtime.NumCPU()
	res := newResult()

	// Set-up: start the fleet and warm it — each kernel's lazy compile
	// and its pools grown to the concurrency the loop will use.
	warm := func(f *fleetEnv) error {
		for range 2 {
			lg := &phaseLog{start: time.Now()}
			var wg sync.WaitGroup
			for c := range f.conns {
				for w := range bulkWindow {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i, sk := range sks {
							picks := make([]int, bulkStreams)
							for s := range picks {
								picks[s] = (c + w + i + s) % len(sk.inputs)
							}
							lg.add(sendBulk(f, c, sk, picks, lg.start, nil))
						}
					}()
				}
			}
			wg.Wait()
			for _, c := range lg.done {
				if c.failed {
					return fmt.Errorf("warm-up request failed: %s", c.wrong)
				}
			}
		}
		return nil
	}
	var f *fleetEnv
	for i := range setupReps {
		if i > 0 {
			f.close()
		}
		if err := res.setUp(func() error {
			var err error
			if f, err = startFleet(defs, nconns, bulkWindow, nil); err != nil {
				return err
			}
			if err := warm(f); err != nil {
				f.close()
				return err
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}

	smp := startSampler()
	defer smp.close()

	// Each client goroutine draws its requests from its own stream.
	draws := make([][]rng, nconns)
	for c := range draws {
		for w := range bulkWindow {
			draws[c] = append(draws[c], seed.fork(fmt.Sprintf("bulk/%d/%d", c, w)))
		}
	}
	// segment runs the closed loop on f for bulkSegment, lets the
	// requests in flight finish, and returns the completions with the
	// verified elements per second over the segment's active time,
	// conditioned by the machine's slowdown over the same time.
	segment := func(f *fleetEnv, t *tracer) (*phaseLog, float64, float64) {
		lg := &phaseLog{start: time.Now()}
		end := lg.start.Add(bulkSegment)
		var wg sync.WaitGroup
		for c := range f.conns {
			for w := range bulkWindow {
				r := &draws[c][w]
				wg.Add(1)
				go func() {
					defer wg.Done()
					picks := make([]int, bulkStreams)
					for time.Now().Before(end) {
						sk := sks[r.intn(len(sks))]
						for s := range picks {
							picks[s] = r.intn(len(sk.inputs))
						}
						lg.add(sendBulk(f, c, sk, picks, lg.start, t))
					}
				}()
			}
		}
		wg.Wait()
		active := time.Since(lg.start).Seconds()
		elems := 0
		for _, c := range lg.done {
			elems += c.elems
		}
		raw := float64(elems) / active
		return lg, raw * smp.over(lg.start, time.Now()), raw
	}
	// phase runs segments for d and returns their conditioned rates.
	phase := func(f *fleetEnv, d time.Duration, t *tracer) (all *phaseLog, rates []float64) {
		all = &phaseLog{}
		var raws []float64
		for start := time.Now(); time.Since(start) < d; {
			lg, rate, raw := segment(f, t)
			all.done = append(all.done, lg.done...)
			rates, raws = append(rates, rate), append(raws, raw)
		}
		res.note("ops_per_s: elements/s over %d segments of %v: %s; unconditioned %s", len(rates), bulkSegment,
			summarize(append([]float64(nil), rates...)), summarize(raws))
		return all, rates
	}

	if !o.trace {
		lg, rates := phase(f, o.duration, nil)
		f.close()
		lg.account(res)
		s := summarize(append([]float64(nil), rates...))
		res.note("request latency (ms, %d streams each): %s", bulkStreams, summarize(latenciesMs(lg.done)))
		res.e2e("ops_per_s", s.Median, "1/s")
		res.setup()
		return res, res.table1Quality(seed, false)
	}

	// Traced run: the untraced half, then a fresh fleet with the traced
	// dispatcher for the traced half, then the direct replays.
	half := o.duration / 2
	before := readRuntime()
	plain, plainRates := phase(f, half, nil)
	after := readRuntime()
	f.close()
	streams := plain.account(res)
	res.runtimeLayer(before, after, streams)

	t := newTracer()
	tf, err := startFleet(defs, nconns, bulkWindow, t)
	if err != nil {
		return nil, err
	}
	if err := warm(tf); err != nil {
		tf.close()
		return nil, err
	}
	t.reset()
	traced, tracedRates := phase(tf, half, t)
	counters := tf.counters()
	tf.close()
	traced.account(res)
	if err := res.finishServeTrace(o, t, traced, counters, sks, bulkStreams); err != nil {
		return nil, err
	}
	res.layer("trace.overhead_frac", 1-median(tracedRates)/median(plainRates), "ratio")
	return res, nil
}

// sendBulk runs one request of len(picks) streams of sk on connection
// conn and verifies every stream.
func sendBulk(f *fleetEnv, conn int, sk *servedKernel, picks []int, start time.Time, t *tracer) completion {
	jobs := make([]netlist.Job, len(picks))
	root := t.id()
	cm := completion{streams: len(picks)}
	for i, p := range picks {
		jobs[i].Inputs = sk.inputs[p].arrays
		if t != nil {
			jobs[i].Inputs = tagged(jobs[i].Inputs, root, root)
		}
		cm.elems += sk.inputs[p].elems()
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	t0 := time.Now()
	s := span{ID: root, Req: root, Name: "client.request", Start: t.now()}
	err := f.conns[conn].RunContext(ctx, sk.k.name, jobs)
	s.End = t.now()
	cancel()
	t.add(s)
	cm.latency = time.Since(t0)
	cm.at = time.Since(start)
	cm.bytes = wireBytes(sk.k.name, jobs)
	refs := make([]*expected, len(picks))
	for i, p := range picks {
		refs[i] = sk.refs[p]
	}
	cm.verify(sk.k.name, jobs, refs, err)
	if cm.failed {
		cm.elems = 0
	}
	return cm
}

// verify checks every stream of a finished request against its
// reference. A stream that came back with a result or a fault differing
// from the reference is a wrong output; a stream that came back with an
// error (transport, shed, timeout) is a failure.
func (cm *completion) verify(kernel string, jobs []netlist.Job, refs []*expected, reqErr error) {
	for i := range jobs {
		verr := refs[i].check(&jobs[i])
		if verr == nil {
			continue
		}
		cm.failed = true
		if (jobs[i].Err == nil && reqErr == nil) || asFault(jobs[i].Err) != nil {
			cm.wrong = fmt.Sprintf("%s stream %d: %v", kernel, i, verr)
		}
		return
	}
}

// latenciesMs returns the latencies of the successful completions in ms.
func latenciesMs(cs []completion) []float64 {
	out := make([]float64, 0, len(cs))
	for _, c := range cs {
		if !c.failed {
			out = append(out, float64(c.latency)/1e6)
		}
	}
	return out
}

// finishServeTrace derives the per-layer metrics shared by both serve
// workloads from a traced phase, replays the compile (through vhdl and
// synth) and the direct System.Run / serve.Local.Run paths, compiles
// Table 1 for the per-row synthesis figures, and writes the spans out.
func (r *result) finishServeTrace(o *options, t *tracer, lg *phaseLog, c fleetCounters, sks []*servedKernel, perReq int) error {
	r.servedLayers(t, lg, c)
	if err := r.compileLayers(servedDefs(sks), 5); err != nil {
		return err
	}
	if err := r.replayLayers(sks, perReq, 10); err != nil {
		return err
	}
	if err := r.table1Quality(rng(o.seed), true); err != nil {
		return err
	}
	return t.write(o.tracePath())
}

// servedLayers reports the fleet, client and wire metrics of a traced
// phase.
func (r *result) servedLayers(t *tracer, lg *phaseLog, c fleetCounters) {
	var wire []float64
	for _, cm := range lg.done {
		if cm.streams > 0 {
			wire = append(wire, float64(cm.bytes)/float64(cm.streams))
		}
	}
	r.fleetLayer(c, indexSpans(t.snapshot()), wire)
}
