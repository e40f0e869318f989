package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"roccc/internal/netlist"
)

const (
	// mixTemplates is the number of seeded inputs per kernel.
	mixTemplates = 4
	// mixFaultTemplates is the number of planted-fault inputs.
	mixFaultTemplates = 4
	// faultShare is the share of arrivals that carry a planted fault.
	faultShare = 0.05
	// fixedRate is the offered rate (requests/s) p50_ms and p99_ms are
	// measured at: about a third of the knee on a 2-CPU Xeon.
	fixedRate = 4500.0
	// sloMs is the latency limit the knee is found against.
	sloMs = 50.0
	// ladderBase and ladderStep define the fixed rate ladder the knee is
	// searched on: rung i offers ladderBase·ladderStep^i requests/s, a
	// 4% step, finer than the knee's run-to-run spread.
	ladderBase  = 250.0
	ladderStep  = 1.04
	ladderRungs = 130
	// warmBurst is the number of concurrent requests per kernel in each
	// warm-up burst: more than the fleet can run at once, so every pool
	// grows to its steady-state size before timing starts.
	warmBurst = 8
	// latencyWindow splits the fixed-rate step: p50_ms and p99_ms are
	// medians over its windows of each window's quantile, so a short
	// stall of the shared machine spoils one window, not the metric.
	latencyWindow = 500 * time.Millisecond
	// mixWindow is each connection's client-side cap on outstanding
	// requests; the backlog cap below keeps the real count far lower.
	mixWindow = 4096
)

// arrival is one scheduled request of the open loop.
type arrival struct {
	at     time.Duration // due time from phase start
	kernel int
	tmpl   int
	fault  bool
}

// schedule draws Poisson arrivals at rate for d.
func schedule(r *rng, sks []*servedKernel, faulty int, rate float64, d time.Duration) []arrival {
	var out []arrival
	at := 0.0
	for {
		at += -math.Log(1-r.float()) / rate
		if at >= d.Seconds() {
			return out
		}
		a := arrival{at: time.Duration(at * float64(time.Second))}
		if faulty >= 0 && r.float() < faultShare {
			a.kernel, a.fault = faulty, true
			a.tmpl = r.intn(len(sks[faulty].faultInputs))
		} else {
			a.kernel = r.intn(len(sks))
			a.tmpl = r.intn(len(sks[a.kernel].inputs))
		}
		out = append(out, a)
	}
}

// openLog is the outcome of one open-loop step.
type openLog struct {
	rate    float64
	due     []time.Duration // each arrival's scheduled time
	lat     []float64       // ms from scheduled arrival; +Inf for a failure or a skip
	late    []float64       // ms the generator reached each arrival after it was due
	log     *phaseLog
	skipped int // arrivals the backlog cap kept from being sent
	backlog int64
}

// passes reports whether the step met the SLO without a growing
// backlog: every scheduled request sent (none skipped by the cap), p99
// (failures count as misses) within the limit, and at most a limit's
// worth of arrivals still in flight when the schedule ended.
func (s *openLog) passes() bool {
	if s.skipped > 0 || len(s.lat) == 0 {
		return false
	}
	return quantile(append([]float64(nil), s.lat...), 0.99) <= sloMs &&
		float64(s.backlog) <= math.Max(8, s.rate*sloMs/1e3)
}

// windowed returns, for each non-empty latencyWindow of the step in
// order, the q-quantile of the latencies of the requests due in it.
func (s *openLog) windowed(q float64) []float64 {
	var out []float64
	for _, lat := range s.byWindow() {
		if len(lat) > 0 {
			out = append(out, quantile(lat, q))
		}
	}
	return out
}

// byWindow groups a copy of the latencies by the window they were due
// in (index = window number; a window with no arrival is empty).
func (s *openLog) byWindow() [][]float64 {
	var ws [][]float64
	for i, at := range s.due {
		w := int(at / latencyWindow)
		for len(ws) <= w {
			ws = append(ws, nil)
		}
		ws[w] = append(ws[w], s.lat[i])
	}
	return ws
}

// runOpen fires the schedule at the fleet from one pacing goroutine:
// each arrival is sent when due, on its own goroutine, over the
// connections in turn, so a slow response never delays the next
// arrival. Latency runs from the scheduled time, so a stalled generator
// or server is charged to every request it delays.
func runOpen(f *fleetEnv, sks []*servedKernel, sched []arrival, rate float64, t *tracer) *openLog {
	ol := &openLog{rate: rate, log: &phaseLog{done: make([]completion, 0, len(sched))}}
	lat := make([]float64, len(sched))
	late := make([]float64, len(sched))
	limit := int64(math.Max(64, 2*rate*sloMs/1e3))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	ol.log.start = start
	for i, a := range sched {
		due := start.Add(a.at)
		waitUntil(due)
		late[i] = float64(time.Since(due)) / 1e6
		if inflight.Load() >= limit {
			// The backlog cap bounds the work a stalled or overloaded
			// fleet piles up. The arrival is not sent, and it misses the
			// SLO like a failure.
			lat[i] = math.Inf(1)
			ol.skipped++
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			cm := sendMix(f, i%len(f.conns), sks[a.kernel], a, start, t)
			cm.latency = time.Since(due)
			if cm.failed {
				lat[i] = math.Inf(1)
			} else {
				lat[i] = float64(cm.latency) / 1e6
			}
			ol.log.add(cm)
		}()
	}
	if len(sched) == 0 {
		return ol
	}
	if d := time.Until(start.Add(sched[len(sched)-1].at)); d > 0 {
		time.Sleep(d)
	}
	ol.backlog = inflight.Load()
	wg.Wait()
	ol.lat, ol.late = lat, late
	for _, a := range sched {
		ol.due = append(ol.due, a.at)
	}
	return ol
}

// waitUntil returns at due. The runtime's timers overshoot short sleeps
// by up to a millisecond here, so it sleeps on them only through the
// long part of a wait and finishes with a nanosleep system call, which
// wakes within the kernel's timer slack (about 50 µs) and gives up the
// processor while it waits.
func waitUntil(due time.Time) {
	if d := time.Until(due) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(due) - timerSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// timerSlack is Linux's default timer slack for a normal thread.
const timerSlack = 50 * time.Microsecond

// sendMix sends one single-stream request and verifies it.
func sendMix(f *fleetEnv, conn int, sk *servedKernel, a arrival, start time.Time, t *tracer) completion {
	in, ref := sk.inputs[a.tmpl], sk.refs[a.tmpl]
	if a.fault {
		in, ref = sk.faultInputs[a.tmpl], sk.faultRefs[a.tmpl]
	}
	root := t.id()
	jobs := []netlist.Job{{Inputs: in.arrays}}
	if t != nil {
		jobs[0].Inputs = tagged(in.arrays, root, root)
	}
	cm := completion{streams: 1, elems: in.elems()}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	s := span{ID: root, Req: root, Name: "client.request", Start: t.now()}
	err := f.conns[conn].RunContext(ctx, sk.k.name, jobs)
	s.End = t.now()
	cancel()
	t.add(s)
	cm.at = time.Since(start)
	cm.bytes = wireBytes(sk.k.name, jobs)
	cm.verify(sk.k.name, jobs, []*expected{ref}, err)
	return cm
}

// runServeMix is the serve-mix workload: an open loop with Poisson
// arrivals over loopback TCP into the 2-shard fleet. Requests are
// single streams of the small servable Table 1 and corpus kernels, 5%
// of them planted faults. It measures latency at fixedRate, then
// searches the rate ladder for the knee.
func runServeMix(o *options) (*result, error) {
	seed := rng(o.seed)
	t1, err := table1Kernels()
	if err != nil {
		return nil, err
	}
	corpus, err := corpusKernels(corpusDir)
	if err != nil {
		return nil, err
	}
	ks := append(append(t1, corpus...), divideKernel())
	sks, err := prepareServed(ks, seed, mixTemplates, mixFaultTemplates)
	if err != nil {
		return nil, err
	}
	faulty := -1
	for i, sk := range sks {
		if len(sk.faultInputs) > 0 {
			faulty = i
		}
	}
	defs := servedDefs(sks)
	nconns := runtime.NumCPU()
	res := newResult()
	sr := seed.fork("arrivals")

	// Set-up: start the fleet and warm it — every kernel compiled and
	// every pool grown — with concurrent bursts of each kernel.
	warm := func(f *fleetEnv) error {
		for range 2 {
			var wg sync.WaitGroup
			errs := make(chan string, len(sks)*warmBurst)
			for _, sk := range sks {
				for i := range warmBurst {
					wg.Add(1)
					go func() {
						defer wg.Done()
						a := arrival{tmpl: i % len(sk.inputs)}
						if cm := sendMix(f, i%nconns, sk, a, time.Now(), nil); cm.failed {
							errs <- fmt.Sprintf("%s: %s", sk.k.name, cm.wrong)
						}
					}()
				}
			}
			wg.Wait()
			close(errs)
			if e, ok := <-errs; ok {
				return fmt.Errorf("warm-up request failed: %s", e)
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
			if f, err = startFleet(defs, nconns, mixWindow, nil); err != nil {
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

	step := func(f *fleetEnv, rate float64, d time.Duration, t *tracer) *openLog {
		return runOpen(f, sks, schedule(&sr, sks, faulty, rate, d), rate, t)
	}
	lateNote := func(what string, ol *openLog) {
		res.note("%s at %.0f/s: p99 %.3f ms, generator late %s ms, %d skipped by the backlog cap; pass=%v",
			what, ol.rate, quantile(append([]float64(nil), ol.lat...), 0.99), summarize(append([]float64(nil), ol.late...)), ol.skipped, ol.passes())
	}
	// fixed runs the fixed-rate step and reports its latencies.
	fixed := func(f *fleetEnv, d time.Duration, t *tracer) *openLog {
		ol := step(f, fixedRate, d, t)
		lateNote("fixed step", ol)
		res.note("latency from scheduled arrival (ms): %s", summarize(append([]float64(nil), ol.lat...)))
		res.note("per-%v window p50 %.4g ms", latencyWindow, ol.windowed(0.5))
		return ol
	}

	// kneeSearch bisects the rate ladder within d for the highest rung
	// that passes (see openLog.passes), from the fixed rate when that is
	// known to pass. A transient stall of the shared machine can fail a
	// rung the fleet sustains, while a truly overloaded rung fails every
	// time, so a failed rung is probed once more before it counts.
	kneeSearch := func(f *fleetEnv, d time.Duration, fixedPasses bool) float64 {
		probe := d / 12
		lo, hi := -1, ladderRungs
		if fixedPasses {
			lo = int(math.Floor(math.Log(fixedRate/ladderBase) / math.Log(ladderStep)))
		}
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			rate := ladderBase * math.Pow(ladderStep, float64(mid))
			pass := false
			for try := 0; try < 2 && !pass; try++ {
				ol := step(f, rate, probe, nil)
				ol.log.account(res)
				lateNote("ladder rung", ol)
				pass = ol.passes()
			}
			if pass {
				lo = mid
			} else {
				hi = mid
			}
		}
		if lo < 0 {
			return 0
		}
		return ladderBase * math.Pow(ladderStep, float64(lo))
	}

	// The serve-mix latencies follow the shared machine's stalls more
	// than the program (see README.md), so the report prints them but
	// does not gate on them. The untraced run verifies every response at
	// the fixed rate; ops_per_s is its goodput, the verified answers per
	// second that met the SLO.
	if !o.trace {
		fx := fixed(f, o.duration, nil)
		f.close()
		fx.log.account(res)
		good := 0
		for _, l := range fx.lat {
			if l <= sloMs {
				good++
			}
		}
		res.e2e("ops_per_s", float64(good)/o.duration.Seconds(), "1/s")
		res.setup()
		return res, res.table1Quality(seed, false)
	}

	// Traced run: the fixed step and the knee search untraced, then the
	// fixed step again on a fresh fleet with the traced dispatcher, then
	// the direct replays.
	part := o.duration * 3 / 10
	before := readRuntime()
	plain := fixed(f, part, nil)
	after := readRuntime()
	streams := plain.log.account(res)
	res.runtimeLayer(before, after, streams)
	res.layer("p50_ms", median(plain.windowed(0.5)), "ms")
	res.layer("p99_ms", median(plain.windowed(0.99)), "ms")
	res.layer("load.late_ms_p99", quantile(plain.late, 0.99), "ms")
	res.layer("load.late_ms_max", quantile(plain.late, 1), "ms")
	res.layer("knee_rps", kneeSearch(f, o.duration-2*part, plain.passes()), "1/s")
	f.close()

	t := newTracer()
	tf, err := startFleet(defs, nconns, mixWindow, t)
	if err != nil {
		return nil, err
	}
	if err := warm(tf); err != nil {
		tf.close()
		return nil, err
	}
	t.reset()
	traced := fixed(tf, part, t)
	counters := tf.counters()
	tf.close()
	traced.log.account(res)
	if err := res.finishServeTrace(o, t, traced.log, counters, sks, 1); err != nil {
		return nil, err
	}
	res.layer("trace.overhead_frac", median(traced.lat)/median(plain.lat)-1, "ratio")
	return res, nil
}
