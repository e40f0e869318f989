// Command rocccload is the open-loop load harness for a rocccserve
// fleet: it fires requests at fixed arrival rates (Poisson or uniform
// interarrival) from a single pacing clock — the next arrival never
// waits for the last response, so queueing collapse shows up as tail
// latency instead of being absorbed — and measures every latency from
// the request's scheduled arrival time (coordinated-omission debt is in
// the quantiles, not hidden). Traffic follows a mixed scenario profile:
// a weighted kernel mix over Table 1 + ci/corpus, a planted-fault
// fraction and a rude-disconnect fraction. Load-sheds (the fleet's
// typed Busy fault) are classified as backpressure, separate from
// errors, and /metrics is scraped between steps to correlate latency
// with pool saturation.
//
// Usage:
//
//	rocccload -local 2                  # self-hosted 2-shard fleet, knee search
//	rocccload -addr host:9944 -rate 200 # one fixed-rate step on a live fleet
//	rocccload -local 2 -gate -out LOAD_report.json
//
// Without -rate the harness runs the knee search: step-doubling then
// bisection to the highest rate where p99 stays under -slo with zero
// non-shed errors, then post-knee probes proving the shed rate rises
// monotonically under deepening overload. Every kernel runs on the
// -backend execution backend (threaded unless overridden). -out writes
// the full machine-readable report; -gate evaluates the load gate
// contract and prints a cigate-parseable summary ("N violations in
// X.XXs") plus cigate-metric lines folded into the BENCH trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"roccc/internal/dp"
	"roccc/internal/load"
)

func main() {
	var (
		addr        = flag.String("addr", "", "rocccserve TCP address (mutually exclusive with -local)")
		metricsURL  = flag.String("metrics", "", "rocccserve /metrics URL to scrape between steps (external fleets)")
		local       = flag.Int("local", 0, "stand up a self-hosted in-process fleet with N shards (0 = use -addr)")
		localSlots  = flag.Int("local-slots", 48, "per-shard concurrent-stream budget for the local fleet (sheds past it)")
		poolWorkers = flag.Int("pool-workers", 0, "SystemPool workers per kernel on local shards (0 = GOMAXPROCS)")

		rate     = flag.Float64("rate", 0, "fixed offered rate in req/s (0 = knee search)")
		duration = flag.Duration("duration", 2*time.Second, "arrival window per rate step")
		distF    = flag.String("dist", "poisson", "arrival process: poisson or uniform")
		conns    = flag.Int("conns", 2, "pipelined client connections")
		slots    = flag.Int("slots", 64, "client-side request slots per connection (0 = unbounded)")
		workers  = flag.Int("workers", 0, "firing goroutines (0 = conns*16)")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request deadline")
		seed     = flag.Uint64("seed", 1, "deterministic seed for schedules and the mix draw")

		streams   = flag.Int("streams", 1, "streams per request")
		faultFrac = flag.Float64("fault-frac", 0.05, "fraction of arrivals with a planted divide-by-zero")
		discFrac  = flag.Float64("disc-frac", 0.01, "fraction of arrivals that rudely disconnect mid-request")
		backendF  = flag.String("backend", "threaded", "execution backend for every kernel: interp, threaded or cone")
		corpusDir = flag.String("corpus", "ci/corpus", "fuzz-corpus kernels to mix in (empty or missing = Table 1 only)")

		slo       = flag.Duration("slo", 100*time.Millisecond, "p99 ceiling defining the knee")
		startRate = flag.Float64("start-rate", 50, "knee search starting rate (req/s)")
		maxRate   = flag.Float64("max-rate", 1<<20, "knee search ceiling (req/s)")
		bisects   = flag.Int("bisects", 3, "bisection refinements after the doubling phase")

		out       = flag.String("out", "", "write the machine-readable JSON report here")
		gate      = flag.Bool("gate", false, "evaluate the load gate contract and print a cigate summary")
		gateCPU   = flag.Int("gate-min-cpu", 4, "CPU count at or above which the knee rate floor applies")
		gateFloor = flag.Float64("gate-floor", 100, "knee rate floor in req/s (CPU-conditioned; 0 = shape checks only)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rocccload: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *local == 0 && *addr == "":
		usageErr("one of -addr or -local is required")
	case *local != 0 && *addr != "":
		usageErr("-addr and -local are mutually exclusive")
	case *local < 0 || (*local > 0 && *local < 2):
		usageErr("-local needs at least 2 shards (the router is what sheds)")
	case *rate < 0 || *startRate <= 0 || *maxRate <= 0 || *maxRate < *startRate:
		usageErr("-rate must be >= 0 and -start-rate/-max-rate positive with -max-rate >= -start-rate")
	case *duration <= 0 || *timeout <= 0 || *slo <= 0:
		usageErr("-duration, -timeout and -slo must be positive")
	case *conns <= 0 || *slots < 0 || *workers < 0 || *streams <= 0 || *bisects <= 0:
		usageErr("-conns, -streams and -bisects must be positive; -slots and -workers >= 0 (0 = default)")
	case *localSlots <= 0 || *poolWorkers < 0:
		usageErr("-local-slots must be positive and -pool-workers >= 0")
	case *faultFrac < 0 || *discFrac < 0 || *faultFrac+*discFrac >= 1:
		usageErr("-fault-frac and -disc-frac must be >= 0 and sum below 1")
	case *gate && *rate > 0:
		usageErr("-gate needs the knee search (drop -rate)")
	case *gateCPU < 1 || *gateFloor < 0:
		usageErr("-gate-min-cpu must be positive and -gate-floor >= 0")
	}
	dist, err := load.ParseDist(*distF)
	if err != nil {
		usageErr(err.Error())
	}
	backend, err := dp.ParseBackend(*backendF)
	if err != nil {
		usageErr(err.Error())
	}

	scenario, err := load.BuildScenario(backend, *corpusDir, *faultFrac, *discFrac, *streams)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rocccload: scenario: %d kernels in the mix, %.0f%% faults, %.0f%% rude disconnects, %d stream(s)/request\n",
		len(scenario.Mix), *faultFrac*100, *discFrac*100, *streams)

	target, mURL := *addr, *metricsURL
	var fleet *load.LocalFleet
	if *local > 0 {
		fleet, err = load.StartLocalFleet(*local, *localSlots, *poolWorkers, scenario.Specs)
		if err != nil {
			fatal(err)
		}
		defer fleet.Close()
		target, mURL = fleet.Addr, fleet.MetricsURL
		fmt.Printf("rocccload: local fleet: %d shards x %d slots at %s (metrics %s)\n",
			*local, *localSlots, target, mURL)
	}

	warmN := *workers
	if warmN == 0 {
		per := *slots
		if per <= 0 {
			per = 64
		}
		warmN = *conns * per
	}
	if warmN > 256 {
		warmN = 256
	}
	if err := load.Warmup(target, scenario, warmN); err != nil {
		fatal(err)
	}

	stepCfg := load.StepConfig{
		Addr:       target,
		MetricsURL: mURL,
		Duration:   *duration,
		Dist:       dist,
		Conns:      *conns,
		Slots:      *slots,
		Workers:    *workers,
		Timeout:    *timeout,
		Seed:       *seed,
		Scenario:   scenario,
	}
	report := &load.Report{
		Addr:    target,
		CPUs:    runtime.NumCPU(),
		Backend: backend.String(),
		Dist:    dist.String(),
		Conns:   *conns, Slots: *slots, Workers: *workers,
		StepSec:            duration.Seconds(),
		StreamsPerRequest:  *streams,
		FaultFraction:      *faultFrac,
		DisconnectFraction: *discFrac,
		Mix:                scenario.Mix,
	}

	begin := time.Now()
	if *rate > 0 {
		stepCfg.Rate = *rate
		res, err := load.RunStep(stepCfg)
		if err != nil {
			fatal(err)
		}
		report.Knee = &load.KneeResult{SLOMs: float64(*slo) / 1e6, Steps: []load.StepResult{*res}}
		blob, _ := json.MarshalIndent(res, "", "  ")
		fmt.Printf("rocccload: fixed-rate step:\n%s\n", blob)
	} else {
		kr, err := load.FindKnee(load.KneeConfig{
			Step:      stepCfg,
			StartRate: *startRate,
			MaxRate:   *maxRate,
			SLO:       *slo,
			Bisects:   *bisects,
			Log: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		if kr != nil {
			report.Knee = kr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rocccload: %s\n", kr)
	}
	elapsed := time.Since(begin)

	var violations []string
	if fleet != nil {
		if err := fleet.PoolsBalanced(10 * time.Second); err != nil {
			violations = append(violations, err.Error())
		}
	}

	if *out != "" {
		if err := report.WriteFile(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("rocccload: wrote %s\n", *out)
	}

	if *gate {
		violations = append(violations, report.Gate(*gateCPU, *gateFloor)...)
		for _, v := range violations {
			fmt.Printf("rocccload: VIOLATION: %s\n", v)
		}
		// Machine-readable metric lines: cigate folds these into the
		// BENCH_<sha>.json trajectory next to the gate verdicts.
		if report.Knee != nil {
			fmt.Printf("cigate-metric knee_rps %.0f\n", report.Knee.KneeRPS)
			fmt.Printf("cigate-metric p99_at_knee_ms %.3f\n", p99AtKnee(report.Knee))
			fmt.Printf("cigate-metric shed_monotonic %d\n", boolMetric(report.Knee.ShedMonotonic))
			fmt.Printf("cigate-metric load_steps %d\n", len(report.Knee.Steps))
		}
		fmt.Printf("rocccload: %d violations in %.2fs\n", len(violations), elapsed.Seconds())
		if len(violations) > 0 {
			os.Exit(1)
		}
		return
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "rocccload: %s\n", v)
		}
		os.Exit(1)
	}
}

// p99AtKnee returns the knee-rate step's p99 (the last step run exactly
// at the knee rate; 0 when no knee was found).
func p99AtKnee(kr *load.KneeResult) float64 {
	p99 := 0.0
	for _, s := range kr.Steps {
		if s.Rate == kr.KneeRPS {
			p99 = s.P99Ms
		}
	}
	return p99
}

func boolMetric(b bool) int {
	if b {
		return 1
	}
	return 0
}

func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "rocccload:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rocccload:", err)
	os.Exit(1)
}
