// Command rocccbench regenerates the paper's evaluation: Table 1, the
// §5 DCT throughput comparison, the §2 area-estimation claim, and the
// structural figures (Fig. 3, 4, 6, 7).
//
// Usage:
//
//	rocccbench [-figures] [-estimation] [-throughput] [-sweep] [-sysbatch] [-serve] [-fleet] [-all]
package main

import (
	"flag"
	"fmt"
	"os"

	"roccc/internal/dp"
	"roccc/internal/exp"
)

func main() {
	var (
		figures    = flag.Bool("figures", false, "print the figure reproductions")
		estimation = flag.Bool("estimation", false, "print the area-estimation experiment")
		throughput = flag.Bool("throughput", false, "print the DCT throughput experiment")
		sweep      = flag.Bool("sweep", false, "print the batch sweep (serial vs sharded SystemPool)")
		sysbatch   = flag.Bool("sysbatch", false, "print the system cycle-loop batching sweep (serial vs streak-batched System.Run)")
		servesweep = flag.Bool("serve", false, "print the serve sweep (rocccserve TCP vs serial System.Run)")
		fleetsweep = flag.Bool("fleet", false, "print the fleet sweep (pipelined v2 client + sharded router vs serial System.Run)")
		shardsN    = flag.Int("shards", 3, "worker shards for the -fleet sweep")
		corpusDir  = flag.String("corpus", "ci/corpus", "extra .c kernels for the -fleet sweep (function name k); empty skips")
		jobs       = flag.Int("jobs", 64, "independent input streams per sweep")
		workers    = flag.Int("workers", 0, "sweep shard width (0 = GOMAXPROCS)")
		backendF   = flag.String("backend", "threaded", "execution backend for the -sysbatch sweep's backend columns and the -fleet sweep: interp, threaded or cone")
		all        = flag.Bool("all", false, "print everything")
	)
	flag.Parse()
	if *jobs < 1 {
		fmt.Fprintln(os.Stderr, "rocccbench: -jobs must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "rocccbench: -workers must be >= 0 (0 = GOMAXPROCS)")
		flag.Usage()
		os.Exit(2)
	}
	backend, err := dp.ParseBackend(*backendF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocccbench:", err)
		flag.Usage()
		os.Exit(2)
	}

	rows, err := exp.Table1()
	if err != nil {
		fatal(err)
	}
	fmt.Println(exp.FormatTable1(rows, true))

	if *throughput || *all {
		t, err := exp.DCTThroughput()
		if err != nil {
			fatal(err)
		}
		fmt.Println("== §5 DCT throughput ==")
		fmt.Printf("Xilinx IP: %.0f MHz x %.0f output/cycle = %.0f Msamples/s\n",
			t.IPClockMHz, t.IPOutsPerCycle, t.IPMsps)
		fmt.Printf("ROCCC:     %.0f MHz x %.0f output/cycle = %.0f Msamples/s\n",
			t.RocccClockMHz, t.RocccOutsPerCycle, t.RocccMsps)
		fmt.Printf("overall throughput ratio: %.2fx (paper: higher despite 0.735x clock)\n\n", t.Speedup)
	}
	if *sweep || *all {
		fir, err := exp.SystemSweep(*jobs, *workers)
		if err != nil {
			fatal(err)
		}
		dct, err := exp.DCTSystemSweep(*jobs, *workers)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatSweeps([]*exp.SweepResult{fir, dct}))
	}
	if *sysbatch || *all {
		rows, err := exp.SysBatchSweep(*jobs/8, backend)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatSysBatch(rows))
	}
	if *servesweep || *all {
		rows, err := exp.ServeSweep(*jobs)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatServeSweep(rows))
	}
	if *fleetsweep || *all {
		rows, err := exp.FleetSweep(*jobs, *shardsN, backend, *corpusDir)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatFleetSweep(rows, *shardsN))
	}
	if *estimation || *all {
		est, err := exp.AreaEstimation()
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatEstimation(est))
		fmt.Println()
	}
	if *all {
		sp, err := exp.Speedups()
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatSpeedups(sp))
		fmt.Println()
	}
	if *all {
		ab, err := exp.FormatAblations()
		if err != nil {
			fatal(err)
		}
		fmt.Println(ab)
	}
	if *figures || *all {
		f3, err := exp.Fig3()
		if err != nil {
			fatal(err)
		}
		fmt.Println(f3.Text)
		f4, err := exp.Fig4()
		if err != nil {
			fatal(err)
		}
		fmt.Println(f4.Text)
		f6, _, err := exp.Fig6()
		if err != nil {
			fatal(err)
		}
		fmt.Println(f6.Text)
		f7, _, err := exp.Fig7()
		if err != nil {
			fatal(err)
		}
		fmt.Println(f7.Text)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rocccbench:", err)
	os.Exit(1)
}
