package exp

import (
	"strings"
	"testing"

	"roccc/internal/dp"
)

// TestSystemSweep: the sharded sweep must verify bit-identical against
// the serial path (systemSweep fails internally on any divergence) and
// report sane bookkeeping.
func TestSystemSweep(t *testing.T) {
	r, err := SystemSweep(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs != 12 || r.Workers != 3 {
		t.Fatalf("jobs/workers = %d/%d, want 12/3", r.Jobs, r.Workers)
	}
	if r.Cycles <= 0 {
		t.Fatal("no cycles recorded")
	}
	if r.Speedup <= 0 {
		t.Fatal("no speedup recorded")
	}
	if FormatSweeps([]*SweepResult{r}) == "" {
		t.Fatal("empty report")
	}
}

// TestDCTSystemSweep covers the wide-bus kernel path.
func TestDCTSystemSweep(t *testing.T) {
	r, err := DCTSystemSweep(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kernel != "dct" || r.Cycles <= 0 {
		t.Fatalf("unexpected result: %+v", r)
	}
}

// TestServeSweep is the serve acceptance harness: every Table 1 kernel
// served over TCP must be bit-identical to serial System.Run, the
// feedback row (mul_acc) must surface its latch, the fault kernel must
// abort with the serial cycle, and the combinational rows must be
// refused with a clear diagnosis.
func TestServeSweep(t *testing.T) {
	rows, err := ServeSweep(4)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ServeRow{}
	for _, r := range rows {
		byName[r.Kernel] = r
	}
	if len(rows) != 10 { // nine Table 1 rows + the fault divider
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, name := range []string{"mul_acc", "fir", "dct", "wavelet"} {
		r, ok := byName[name]
		if !ok || r.Skipped != "" || r.Streams != 4 {
			t.Errorf("%s: row %+v, want 4 served streams", name, r)
		}
	}
	for _, name := range []string{"bit_correlator", "udiv", "square_root", "cos", "arbitrary_lut"} {
		if r := byName[name]; r.Skipped == "" {
			t.Errorf("%s: combinational row was not skipped: %+v", name, r)
		}
	}
	if r := byName["divide_fault"]; r.Faults != 2 { // odd streams plant a zero
		t.Errorf("divide_fault: %d faults, want 2: %+v", r.Faults, r)
	}
	out := FormatServeSweep(rows)
	for _, want := range []string{"bit-identical", "divide_fault", "skipped"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q in:\n%s", want, out)
		}
	}
}

// TestFleetSweep is the Serve v2 acceptance harness: the pipelined
// client + router + sharded workers stack must be bit-identical to
// serial System.Run for every Table 1 kernel, the fault divider and the
// ci/corpus kernels, on all three execution backends — with every shard
// pool balanced after the concurrent storm. FleetSweep fails internally
// on any divergence, shed or leak; here we pin the matrix shape.
func TestFleetSweep(t *testing.T) {
	for _, b := range dp.Backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			rows, err := FleetSweep(3, 3, b, "../../ci/corpus")
			if err != nil {
				t.Fatal(err)
			}
			byName := map[string]ServeRow{}
			corpus, corpusStreamed := 0, 0
			for _, r := range rows {
				byName[r.Kernel] = r
				if strings.HasPrefix(r.Kernel, "corpus_") {
					corpus++
					if r.Skipped == "" {
						corpusStreamed++
					}
				}
			}
			// Straight-line corpus kernels (no loop nest) are verified via
			// the refusal path; the rest must stream bit-identical.
			if corpus < 5 || corpusStreamed < 3 {
				t.Fatalf("corpus coverage too thin: %d kernels, %d streamed", corpus, corpusStreamed)
			}
			for _, name := range []string{"mul_acc", "fir", "dct", "wavelet"} {
				if r := byName[name]; r.Skipped != "" || r.Streams != 3 {
					t.Errorf("%s: row %+v, want 3 served streams", name, r)
				}
			}
			if r := byName["divide_fault"]; r.Faults != 1 { // odd streams plant a zero
				t.Errorf("divide_fault: %d faults, want 1: %+v", r.Faults, r)
			}
			out := FormatFleetSweep(rows, 3)
			if !strings.Contains(out, "3 shards") || !strings.Contains(out, "bit-identical") {
				t.Errorf("unexpected table:\n%s", out)
			}
		})
	}
}

// TestSysBatchSweep runs the serial-vs-streak system sweep small: the
// sweep fails on any bit divergence, so a passing run certifies the
// streak-batched Run across the Table 1 matrix end to end.
func TestSysBatchSweep(t *testing.T) {
	rows, err := SysBatchSweep(2, dp.BackendThreaded)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	for _, r := range rows {
		if r.Skipped == "" {
			streamed++
			if r.BatchedPct <= 0 {
				t.Errorf("%s: no cycles took the streak path", r.Kernel)
			}
			if r.Backed <= 0 {
				t.Errorf("%s: threaded backend column not measured", r.Kernel)
			}
		}
	}
	if streamed < 5 {
		t.Fatalf("only %d kernels streamed", streamed)
	}
	s := FormatSysBatch(rows)
	for _, want := range []string{"speedup", "backend/it", "vs streak"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q header:\n%s", want, s)
		}
	}
}
