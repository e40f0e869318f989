package exp

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/fleet"
	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// fleetsweep.go is the Serve v2 acceptance harness: the full serving
// stack — pipelined v2 client, front-end server, consistent-hash
// router, N in-process worker shards, warm SystemPools — must return
// outputs, feedback latches, cycle counts and fault abort cycles
// bit-identical to a serial netlist.System.Run, for every Table 1
// kernel, the fault divider and every ci/corpus kernel, on any
// execution backend. All kernels sweep concurrently over ONE pipelined
// connection, so the request-id demux is load-bearing, not decorative.

// LoadCorpusSpecs compiles-checks nothing: it reads every .c kernel in
// dir (the checked-in fuzz corpus, function name k) into servable specs
// with the given backend. An empty dir or a missing directory yields no
// specs and no error, so callers away from the repo root degrade to the
// Table 1 matrix.
func LoadCorpusSpecs(dir string, backend dp.Backend) ([]serve.KernelSpec, error) {
	if dir == "" {
		return nil, nil
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.c"))
	if err != nil || len(files) == 0 {
		return nil, err
	}
	sort.Strings(files)
	specs := make([]serve.KernelSpec, 0, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("exp: corpus: %w", err)
		}
		specs = append(specs, serve.KernelSpec{
			Name:    "corpus_" + filepath.Base(f),
			Source:  string(src),
			Func:    "k",
			Options: core.DefaultOptions(),
			Config:  netlist.Config{BusElems: 1, Backend: backend},
		})
	}
	return specs, nil
}

// FleetSweep stands up a sharded fleet (front-end server dispatching
// through a fleet.Router into `shards` in-process workers), registers
// every Table 1 kernel, the fault divider and the ci/corpus kernels on
// every shard, then sweeps `streams` random streams per kernel — all
// kernels concurrently over one pipelined TCP connection — verifying
// each response bit-exact against a serial System.Run on the same
// backend. After the storm it asserts every shard pool balanced
// (Gets == Puts + Rejected) and the router's route table consistent
// with its own ring.
func FleetSweep(streams, shards int, backend dp.Backend, corpusDir string) ([]ServeRow, error) {
	if streams <= 0 {
		streams = 8
	}
	if shards <= 0 {
		shards = 3
	}
	specs := serve.Table1Specs()
	specs = append(specs, serve.KernelSpec{
		Name: "divide_fault", Source: serveSweepSource, Func: "divide",
		Options: core.DefaultOptions(), Config: netlist.Config{BusElems: 1},
	})
	corpus, err := LoadCorpusSpecs(corpusDir, backend)
	if err != nil {
		return nil, err
	}
	specs = append(specs, corpus...)
	for i := range specs {
		specs[i].Config.Backend = backend
	}

	// Workers: every kernel registered on every shard; the ring decides
	// which shard actually compiles and serves each one. Slots are sized
	// so the differential sweep never sheds — admission control has its
	// own test; here a Busy fault would be a false divergence.
	workers := make([]*serve.Server, shards)
	fshards := make([]fleet.Shard, shards)
	for i := range workers {
		workers[i] = serve.NewServer(0)
		for _, spec := range specs {
			if err := workers[i].Register(spec); err != nil {
				return nil, err
			}
		}
		fshards[i] = fleet.Shard{Local: workers[i], Slots: len(specs) * streams}
	}
	router, err := fleet.NewRouter(fshards)
	if err != nil {
		return nil, err
	}
	defer router.Close()

	front := serve.NewServer(0)
	front.SetDispatcher(router)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go front.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		front.Shutdown(ctx)
		for _, w := range workers {
			w.Shutdown(ctx)
		}
	}()
	conn, err := serve.DialContext(context.Background(), ln.Addr().String(), serve.WithPipelined(0))
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	// One goroutine per kernel, all multiplexed on the single pipelined
	// connection: the serial ground truth and the bit-exact comparison
	// are serveSweepKernel's, identical to the single-server sweep.
	rows := make([]ServeRow, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec serve.KernelSpec) {
			defer wg.Done()
			rows[i], errs[i] = serveSweepKernel(conn, spec, streams)
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: fleet sweep %s: %w", specs[i].Name, err)
		}
	}

	// Hygiene after the storm: every shard pool balanced, and the route
	// table agreeing with the ring it was built from.
	for i, w := range workers {
		if !w.WaitIdle(5 * time.Second) {
			return nil, fmt.Errorf("exp: fleet sweep: shard %d still has in-flight streams", i)
		}
		for name, st := range w.Stats() {
			if st.Gets != st.Puts+st.Rejected {
				return nil, fmt.Errorf("exp: fleet sweep: shard %d pool %s unbalanced: gets=%d puts=%d rejected=%d",
					i, name, st.Gets, st.Puts, st.Rejected)
			}
		}
	}
	m := router.Metrics()
	if len(m.Shards) != shards {
		return nil, fmt.Errorf("exp: fleet sweep: metrics report %d shards, want %d", len(m.Shards), shards)
	}
	for _, kr := range m.Kernels {
		if want := router.ShardFor(kr.Kernel); kr.Shard != want {
			return nil, fmt.Errorf("exp: fleet sweep: kernel %s routed to shard %d, ring says %d", kr.Kernel, kr.Shard, want)
		}
	}
	var sheds int64
	for _, sm := range m.Shards {
		sheds += sm.Sheds
	}
	if sheds != 0 {
		return nil, fmt.Errorf("exp: fleet sweep: %d streams shed despite uncontended slots", sheds)
	}
	return rows, nil
}

// FormatFleetSweep renders the fleet verification table.
func FormatFleetSweep(rows []ServeRow, shards int) string {
	s := FormatServeSweep(rows)
	return fmt.Sprintf("Fleet sweep: pipelined v2 client -> router -> %d shards, vs serial System.Run\n%s", shards, s)
}
