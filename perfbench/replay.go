package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// servedKernel is one kernel a serve workload sends, compiled once by
// the benchmark (for input shapes and the direct replays), with its
// seeded input templates and their references.
type servedKernel struct {
	k      *kernelDef
	res    *core.Result
	inputs []*streamInput
	refs   []*expected
	// Planted-fault templates (divide only) and their typed faults.
	faultInputs []*streamInput
	faultRefs   []*expected
}

// prepareServed compiles ks and draws n input templates per kernel from
// the seed, each with its interpreter reference. Kernels the serving
// stack cannot take (combinational, scalar parameters) are dropped. The
// divide kernel's divisors are kept non-zero, and it also gets nFault
// planted-fault templates: one divisor zeroed at a seeded index.
func prepareServed(ks []*kernelDef, seed rng, n, nFault int) ([]*servedKernel, error) {
	var out []*servedKernel
	for _, k := range ks {
		res, err := compileKernel(k, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		if !servable(res) {
			continue
		}
		fe, err := parseKernel(k)
		if err != nil {
			return nil, err
		}
		sk := &servedKernel{k: k, res: res}
		r := seed.fork("inputs/" + k.name)
		for range n {
			in := genStreamInput(res, &r)
			if k.name == "divide" {
				for i, v := range in.arrays["B"] {
					in.arrays["B"][i] = v%97 + 1
				}
			}
			ex, err := referenceStream(fe, res, in)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k.name, err)
			}
			sk.inputs, sk.refs = append(sk.inputs, in), append(sk.refs, ex)
		}
		if k.name == "divide" {
			for i := range nFault {
				base := sk.inputs[i%len(sk.inputs)]
				in := &streamInput{arrays: map[string][]int64{}, scalars: base.scalars}
				for name, v := range base.arrays {
					in.arrays[name] = slices.Clone(v)
				}
				b := in.arrays["B"]
				b[r.intn(len(b))] = 0
				ex, err := referenceFault(fe, res, k, in)
				if err != nil {
					return nil, err
				}
				sk.faultInputs, sk.faultRefs = append(sk.faultInputs, in), append(sk.faultRefs, ex)
			}
		}
		out = append(out, sk)
	}
	if len(out) == 0 {
		return nil, errors.New("no servable kernel in the set")
	}
	return out, nil
}

// servedDefs returns the kernel definitions of sks.
func servedDefs(sks []*servedKernel) []*kernelDef {
	ks := make([]*kernelDef, len(sks))
	for i, sk := range sks {
		ks[i] = sk.k
	}
	return ks
}

// replayLayers replays every seeded template — rounds times, in a fixed
// order, so the mix is the same for every seed — directly on
// System.Run and through serve.Local.Run in groups of perReq streams,
// verifying every result. It reports the netlist and serve.Local layer
// metrics. Planted faults are replayed too: they take the abort path.
func (r *result) replayLayers(sks []*servedKernel, perReq, rounds int) error {
	t := newTracer()
	var cycles, batched, streams int64
	srv := serve.NewServer(0)
	defer srv.Shutdown(context.Background())
	for _, sk := range sks {
		if err := srv.Register(sk.k.spec()); err != nil {
			return err
		}
		sys, err := netlist.NewSystem(sk.res.Kernel, sk.res.Datapath, netlist.Config{BusElems: sk.k.bus})
		if err != nil {
			return err
		}
		ins := append(slices.Clone(sk.inputs), sk.faultInputs...)
		refs := append(slices.Clone(sk.refs), sk.faultRefs...)
		// Untimed warm-up: the first Local.Run compiles the kernel.
		if err := srv.Local().Run(sk.k.name, []netlist.Job{{Inputs: ins[0].arrays}}); err != nil && refs[0].fault == nil {
			return err
		}
		for range rounds {
			for i, in := range ins {
				sys.Reset()
				for name, vals := range in.arrays {
					if err := sys.LoadInput(name, vals); err != nil {
						return err
					}
				}
				var (
					job    netlist.Job
					sim    *dp.Sim
					runErr error
				)
				t.record("netlist.run", 0, 0, func() error {
					sim, runErr = sys.Run()
					return nil
				})
				err := collect(sys, sim, runErr, &job)
				if err == nil {
					err = refs[i].check(&job)
				}
				if err != nil {
					r.mismatch(fmt.Sprintf("System.Run replay %s: %v", sk.k.name, err))
					continue
				}
				if job.Err == nil {
					cycles += int64(sys.Cycles())
					batched += int64(sys.BatchedCycles())
					streams++
				}
			}
			for i := 0; i < len(ins); i += perReq {
				jobs := make([]netlist.Job, 0, perReq)
				for j := i; j < min(i+perReq, len(ins)); j++ {
					jobs = append(jobs, netlist.Job{Inputs: ins[j].arrays})
				}
				s := span{Name: "serve.local", Start: t.now()}
				srv.Local().Run(sk.k.name, jobs)
				s.End = t.now()
				// One sample per stream: the request's time split evenly.
				per := (s.End - s.Start) / int64(len(jobs))
				for j := range jobs {
					if err := refs[i+j].check(&jobs[j]); err != nil {
						r.mismatch(fmt.Sprintf("serve.Local replay %s: %v", sk.k.name, err))
					}
					t.add(span{Name: "serve.local.stream", Start: s.Start, End: s.Start + per})
				}
				t.add(s)
			}
		}
	}
	ix := indexSpans(t.snapshot())
	rs := summarize(ix.durationsUs("netlist.run"))
	r.note("netlist.run_us per stream (System.Run replay): %s", rs)
	r.layer("netlist.run_us", rs.Median, "us")
	r.layer("netlist.cycles_per_stream", float64(cycles)/float64(max(streams, 1)), "cycles")
	r.layer("netlist.batched_frac", float64(batched)/float64(max(cycles, 1)), "ratio")
	ls := summarize(ix.durationsUs("serve.local.stream"))
	r.note("serve.local_us per stream (Local.Run replay, %d streams per request): %s", perReq, ls)
	r.layer("serve.local_us", ls.Median, "us")
	return nil
}

// asFault returns err's typed data-path fault, or nil.
func asFault(err error) *dp.FaultError {
	var fe *dp.FaultError
	if errors.As(err, &fe) {
		return fe
	}
	return nil
}

// replayRounds is how many times the compile workload's serving replay
// sends every seeded template, untraced and then traced.
const replayRounds = 40

// serveReplay serves the servable kernels of ks, every seeded template
// replayRounds times from each of nproc connections, through a fresh
// 2-shard fleet: what the circuits the compile workload builds cost to
// serve. It runs after the compile workload's measured phases, in its
// traced run only, and reports the serving layers: runtime cost over an
// untraced pass, the fleet, client and wire spans over a traced pass,
// then the direct System.Run / serve.Local.Run replays. It leaves t
// holding the traced pass's spans.
func (r *result) serveReplay(seed rng, ks []*kernelDef, t *tracer) error {
	sks, err := prepareServed(ks, seed, mixTemplates, 0)
	if err != nil {
		return err
	}
	f, err := startFleet(servedDefs(sks), runtime.NumCPU(), 1, t)
	if err != nil {
		return err
	}
	defer f.close()
	pass := func(rounds int, t *tracer) *phaseLog {
		lg := &phaseLog{start: time.Now()}
		var wg sync.WaitGroup
		for c := range f.conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range rounds {
					for _, sk := range sks {
						for p := range sk.inputs {
							lg.add(sendBulk(f, c, sk, []int{p}, lg.start, t))
						}
					}
				}
			}()
		}
		wg.Wait()
		return lg
	}
	// Warm-up: lazy compiles, pools grown.
	for _, cm := range pass(1, nil).done {
		if cm.failed {
			return fmt.Errorf("serving replay warm-up request failed: %s", cm.wrong)
		}
	}
	before := readRuntime()
	plain := pass(replayRounds, nil)
	after := readRuntime()
	r.runtimeLayer(before, after, plain.account(r))
	t.reset()
	traced := pass(replayRounds, t)
	traced.account(r)
	r.servedLayers(t, traced, f.counters())
	return r.replayLayers(sks, 1, 10)
}
