// Command perfbench is the repository's benchmark. It drives the ROCCC
// reproduction through its public entry points on one of three
// workloads, checks every output against a reference computed by the C
// interpreter, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	compile      closed loop, one goroutine: Table 1 + ci/corpus from C
//	             source through cc → hir → core → dp → vhdl → synth
//	stream-bulk  closed loop over loopback TCP into a 2-shard fleet:
//	             multi-stream requests of long-stream kernels
//	serve-mix    open loop (Poisson arrivals) over loopback TCP into the
//	             same fleet: small single-stream kernels, 5% planted
//	             faults; latency at a fixed rate and the SLO knee
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// runs the workload untraced and then traced, records spans around every
// call into a layer, writes them out and reports the per-layer metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve-mix --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// corpusDir holds the ci/corpus kernels, relative to the repository
// root the benchmark runs from.
const corpusDir = "ci/corpus"

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 31

type options struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	out      string
}

func (o *options) tracePath() string {
	return filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run's outcome. Only the metrics of the mode
// being run (end-to-end untraced, per-layer traced) reach the JSON line.
type result struct {
	attempted, failed int64
	setupSecs, slow   []float64
	mismatches        []string
	e2eM, layerM      map[string]metric
	notes             []string
}

func newResult() *result {
	return &result{e2eM: map[string]metric{}, layerM: map[string]metric{}}
}

func (r *result) e2e(name string, v float64, unit string)   { r.e2eM[name] = metric{v, unit} }
func (r *result) layer(name string, v float64, unit string) { r.layerM[name] = metric{v, unit} }
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// attempt counts operations; errs are the failures' descriptions, kept
// for the report (a few suffice).
func (r *result) attempt(n, failed int64, errs ...string) {
	r.attempted += n
	r.failed += failed
	for _, e := range errs {
		if len(r.notes) < 200 {
			r.note("FAILED: %s", e)
		}
	}
}

// mismatch records an output that differs from its reference: the run
// is incorrect and exits non-zero.
func (r *result) mismatch(msg string) {
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, msg)
	} else {
		r.mismatches[len(r.mismatches)-1] = fmt.Sprintf("... and more (last: %s)", msg)
	}
}

// setUp times one set-up, fn. It collects garbage first, so that no
// set-up pays for the one before it, and measures the machine's
// slowdown right after, while the processor is still warm from it (see
// speed.go).
func (r *result) setUp(fn func() error) error {
	runtime.GC()
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	r.setupSecs = append(r.setupSecs, time.Since(t0).Seconds())
	r.slow = append(r.slow, slowdown(probeReps))
	return nil
}

// setup reports setup_s, the median conditioned set-up time.
func (r *result) setup() {
	cond := make([]float64, len(r.setupSecs))
	for i, s := range r.setupSecs {
		cond[i] = s / r.slow[i]
	}
	r.note("set-up seconds %.4g, conditioned %.4g", r.setupSecs, cond)
	r.e2e("setup_s", median(cond), "s")
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
}

func main() {
	var (
		o       options
		seed    = flag.Uint64("seed", 1, "workload seed: every input and arrival schedule derives from it")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.StringVar(&o.workload, "workload", "", "compile, stream-bulk or serve-mix")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for span dumps")
	flag.Parse()
	o.seed, o.duration, o.trace = *seed, time.Duration(*seconds)*time.Second, *trace == 1
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if _, err := readManifest(manifestPath); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}

	var run func(*options) (*result, error)
	switch o.workload {
	case "compile":
		run = runCompile
	case "stream-bulk":
		run = runStreamBulk
	case "serve-mix":
		run = runServeMix
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := run(&o)
	if err != nil {
		fatal(err)
	}
	if !o.trace {
		res.e2e("ok_frac", float64(res.attempted-res.failed)/float64(max(res.attempted, 1)), "ratio")
		res.e2e("peak_rss_mb", peakRSSMB(), "MB")
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v GOMAXPROCS=%d nproc=%d\n",
		o.workload, o.seed, *seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	for _, m := range res.mismatches {
		fmt.Println("  MISMATCH: " + m)
	}
	mf, err := readManifest(manifestPath)
	if err != nil {
		fatal(err)
	}
	want, measured := mf.EndToEnd, res.e2eM
	if o.trace {
		want, measured = mf.PerLayer, res.layerM
		fmt.Printf("  spans written to %s\n", o.tracePath())
	}
	metrics, extra, err := selectMetrics(want, measured)
	for _, n := range extra {
		fmt.Printf("  %s = %.6g %s (not in the manifest)\n", n, measured[n].Value, measured[n].Unit)
	}
	if err != nil {
		fatal(err)
	}
	if res.attempted < 1 {
		fatal(fmt.Errorf("no operation attempted"))
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.mismatches) == 0, res.attempted, res.failed, metrics})
	fmt.Println(string(out))
	if len(res.mismatches) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
