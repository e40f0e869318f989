package roccc

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/exp"
)

// compile_test.go pins the compiler's output: the whole Table 1 +
// ci/corpus pipeline must be deterministic run to run, and its VHDL
// must match the checked-in per-file digests byte for byte.

var updateGolden = flag.Bool("update", false, "rewrite testdata/vhdl_golden.txt from the current compiler")

const goldenPath = "testdata/vhdl_golden.txt"

// compileCase is one kernel of the pinned compile set: a Table 1 row
// compiled, re-pipelined and synthesized exactly as Table 1 is, or a
// ci/corpus kernel (function k, default options).
type compileCase struct {
	name    string
	compile func() (*Result, error)
}

func compileCases(tb testing.TB) []compileCase {
	tb.Helper()
	var cs []compileCase
	for _, k := range bench.All() {
		cs = append(cs, compileCase{name: k.Name, compile: func() (*Result, error) {
			res, _, err := exp.SynthesizeKernel(k)
			return res, err
		}})
	}
	files, err := filepath.Glob("ci/corpus/*.c")
	if err != nil || len(files) == 0 {
		tb.Fatalf("ci/corpus: %v (%d kernels)", err, len(files))
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		cs = append(cs, compileCase{
			name: "corpus_" + strings.TrimSuffix(filepath.Base(f), ".c"),
			compile: func() (*Result, error) {
				res, err := Compile(string(src), "k", DefaultOptions())
				if err == nil {
					Synthesize(res, 1)
				}
				return res, err
			},
		})
	}
	return cs
}

// compileVHDL runs one case through C → synthesis → VHDL.
func compileVHDL(c compileCase) (*Result, []VHDLFile, error) {
	res, err := c.compile()
	if err != nil {
		return nil, nil, err
	}
	files, err := GenerateVHDL(res)
	return res, files, err
}

// TestCompileDeterministic compiles every kernel of the set eight times
// in one process: the VHDL and the SSA routine text must repeat exactly
// (phi placement once followed map order, renumbering registers run to
// run).
func TestCompileDeterministic(t *testing.T) {
	for _, c := range compileCases(t) {
		var vhdl0, rt0 string
		for i := range 8 {
			res, files, err := compileVHDL(c)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var b strings.Builder
			for _, f := range files {
				b.WriteString("== " + f.Name + "\n" + f.Content)
			}
			vhdl, rt := b.String(), res.Routine.String()
			if i == 0 {
				vhdl0, rt0 = vhdl, rt
				continue
			}
			if vhdl != vhdl0 {
				t.Errorf("%s: compile %d emitted different VHDL", c.name, i)
			}
			if rt != rt0 {
				t.Errorf("%s: compile %d produced a different routine", c.name, i)
			}
		}
	}
}

// goldenDigests renders one "kernel/file sha256" line per emitted file.
func goldenDigests(t *testing.T) string {
	var b strings.Builder
	for _, c := range compileCases(t) {
		_, files, err := compileVHDL(c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, f := range files {
			sum := sha256.Sum256([]byte(f.Content))
			b.WriteString(c.name + "/" + f.Name + " " + hex.EncodeToString(sum[:]) + "\n")
		}
	}
	return b.String()
}

// TestGoldenVHDL checks every generated VHDL unit of the compile set
// (data paths, ROMs and init files, smart buffers, address generators,
// controllers) against its checked-in SHA-256. Run with -update after a
// deliberate change to the emitted VHDL.
func TestGoldenVHDL(t *testing.T) {
	got := goldenDigests(t)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenVHDL -update)", err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("%d digests, want %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := 0; i < len(wantLines) && i < len(gotLines); i++ {
		if wantLines[i] != gotLines[i] {
			t.Errorf("digest %d: got %q, want %q", i, gotLines[i], wantLines[i])
		}
	}
}
