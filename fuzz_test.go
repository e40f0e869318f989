package roccc

import (
	"os"
	"path/filepath"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/cc"
	"roccc/internal/core"
	"roccc/internal/hir"
)

// maxFuzzSource bounds a fuzzed kernel's size; the seeds are well under
// it, and larger inputs only slow the fuzzer down.
const maxFuzzSource = 1 << 13

// fuzzCompile runs one source through the front end and the compiler
// with default options, compiling the last function it declares (the
// kernel, by the corpus convention of helpers first), and renders its
// VHDL file set. The error of whichever layer rejected the source is
// returned as is.
func fuzzCompile(src string) ([]VHDLFile, error) {
	f, err := cc.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := cc.Analyze(f)
	if err != nil {
		return nil, err
	}
	prog, err := hir.Build(info)
	if err != nil {
		return nil, err
	}
	if len(prog.Funcs) == 0 {
		return nil, nil
	}
	res, err := core.Compile(prog, prog.Funcs[len(prog.Funcs)-1], core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return GenerateVHDL(res)
}

// FuzzCompile feeds arbitrary C through cc.Parse → cc.Analyze →
// hir.Build → core.Compile → GenerateVHDL. Every input must either be
// rejected with an error or compile, twice, to byte-identical VHDL; no
// layer may panic. Seeded from ci/corpus and the Table 1 kernels:
//
//	go test -run '^$' -fuzz FuzzCompile -fuzztime 60s .
func FuzzCompile(f *testing.F) {
	corpus, err := filepath.Glob("ci/corpus/*.c")
	if err != nil || len(corpus) == 0 {
		f.Fatalf("ci/corpus: %v (%d kernels)", err, len(corpus))
	}
	for _, path := range corpus {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, k := range bench.All() {
		f.Add(k.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzSource {
			t.Skip("source over the size bound")
		}
		first, err := fuzzCompile(src)
		if err != nil {
			return
		}
		again, err := fuzzCompile(src)
		if err != nil {
			t.Fatalf("second compile failed after the first succeeded: %v", err)
		}
		if len(first) != len(again) {
			t.Fatalf("second compile emitted %d files, first %d", len(again), len(first))
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("%s differs between two compiles of the same source", first[i].Name)
			}
		}
	})
}
