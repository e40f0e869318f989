package vhdl

import (
	"strings"
	"testing"

	"roccc/internal/cc"
	"roccc/internal/core"
	"roccc/internal/hir"
	"roccc/internal/smartbuf"
)

const firSource = `
int A[21];
int C[17];
void fir() {
	int i;
	for (i = 0; i < 17; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

func TestEmitDatapathFIR(t *testing.T) {
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	files := EmitDatapath(res.Datapath)
	if len(files) != 1 {
		t.Fatalf("files = %d, want 1", len(files))
	}
	v := files[0].Content
	for _, want := range []string{
		"entity fir_dp is",
		"library IEEE",
		"use IEEE.numeric_std.all",
		"architecture rtl of fir_dp",
		"pipeline: process(clk)",
		"rising_edge(clk)",
		"end architecture;",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("missing %q in generated VHDL", want)
		}
	}
	// 5 inputs, 1 output port.
	if n := strings.Count(v, ": in std_logic_vector"); n != 5 {
		t.Errorf("input ports = %d, want 5", n)
	}
	if n := strings.Count(v, ": out std_logic_vector"); n != 1 {
		t.Errorf("output ports = %d, want 1", n)
	}
	// Multiplications present.
	if !strings.Contains(v, "*") {
		t.Error("no multiplier in FIR data path")
	}
}

func TestEmitAccumulatorFeedback(t *testing.T) {
	src := `
int A[32];
int sum;
void accum() {
	int i;
	sum = 0;
	for (i = 0; i < 32; i++) { sum = sum + A[i]; }
}
`
	res, err := core.CompileSource(src, "accum", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := EmitDatapath(res.Datapath)[0].Content
	if !strings.Contains(v, "fb_sum") {
		t.Error("missing feedback latch signal fb_sum")
	}
	if !strings.Contains(v, "rst = '1'") {
		t.Error("missing latch reset")
	}
}

func TestEmitRomComponent(t *testing.T) {
	src := `
const int16 tab[8] = {1, -2, 3, -4, 5, -6, 7, -8};
void f(uint3 i, int16* o) { *o = tab[i]; }
`
	res, err := core.CompileSource(src, "f", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	files := EmitDatapath(res.Datapath)
	if len(files) != 2 {
		t.Fatalf("files = %d, want 2 (rom + dp)", len(files))
	}
	rom := files[0].Content
	for _, want := range []string{"entity rom_tab", "constant CONTENT", "to_signed(-8, 16)"} {
		if !strings.Contains(rom, want) {
			t.Errorf("rom missing %q", want)
		}
	}
	top := files[1].Content
	if !strings.Contains(top, "entity work.rom_tab") {
		t.Error("data path does not instantiate the ROM component")
	}
	// Init file.
	init := RomInitFile(res.Kernel.Roms[0])
	if !strings.Contains(init.Content, "-8") {
		t.Errorf("init file content:\n%s", init.Content)
	}
}

func TestEmitMuxBranch(t *testing.T) {
	src := `
void f(int a, int b, int* o) {
	int r;
	if (a < b) { r = a; } else { r = b; }
	*o = r;
}
`
	res, err := core.CompileSource(src, "f", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := EmitDatapath(res.Datapath)[0].Content
	if !strings.Contains(v, "when") || !strings.Contains(v, "else") {
		t.Error("missing mux select statement")
	}
	if !strings.Contains(v, "(mux, level") {
		t.Error("missing mux node comment")
	}
}

func TestEmitSmartBufferLibrary(t *testing.T) {
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := smartbuf.ConfigFor(res.Kernel.Reads[0], &res.Kernel.Nest, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := EmitSmartBuffer("fir_smartbuf_A", cfg)
	for _, want := range []string{"entity fir_smartbuf_A", "window_ready", "tap4", "ring"} {
		if !strings.Contains(f.Content, want) {
			t.Errorf("smart buffer missing %q", want)
		}
	}
}

func TestEmitControllerAndAddrGen(t *testing.T) {
	c := EmitController("fir_ctrl", 17, 3)
	for _, want := range []string{"S_IDLE", "S_FILL", "S_STREAM", "S_DRAIN", "S_DONE", "feed"} {
		if !strings.Contains(c.Content, want) {
			t.Errorf("controller missing %q", want)
		}
	}
	a := EmitAddressGenerator("fir_addrgen_A", 21, 1, 5)
	for _, want := range []string{"entity fir_addrgen_A", "pos + 1", "done"} {
		if !strings.Contains(a.Content, want) {
			t.Errorf("addrgen missing %q", want)
		}
	}
}

func TestEmitKernelFileSet(t *testing.T) {
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	files := EmitDatapath(res.Datapath)
	cfg, err := smartbuf.ConfigFor(res.Kernel.Reads[0], &res.Kernel.Nest, 1)
	if err != nil {
		t.Fatal(err)
	}
	files = EmitKernel(res.Kernel, files, []smartbuf.Config{cfg}, res.Datapath.Latency())
	names := map[string]bool{}
	for _, f := range files {
		names[f.Name] = true
	}
	for _, want := range []string{"fir_dp.vhd", "fir_smartbuf_A.vhd", "fir_addrgen_A.vhd", "fir_ctrl.vhd"} {
		if !names[want] {
			t.Errorf("missing generated file %s (have %v)", want, names)
		}
	}
}

func TestBalancedParens(t *testing.T) {
	// Structural sanity on every emitted expression: parentheses and
	// if/end if balance.
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := EmitDatapath(res.Datapath)[0].Content
	if strings.Count(v, "(") != strings.Count(v, ")") {
		t.Error("unbalanced parentheses")
	}
	if strings.Count(v, "process") != 2 { // declaration + end process
		t.Errorf("process count = %d", strings.Count(v, "process"))
	}
}

// TestEmitAllocations bounds the emitter's allocations: per unit, its
// file name, one pre-sized buffer and the buffer's string, whatever the
// unit's size. A ROM with 256 entries costs what an 8-entry one does.
func TestEmitAllocations(t *testing.T) {
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Plus the file slice and the node order.
	if n := testing.AllocsPerRun(20, func() { EmitDatapath(res.Datapath) }); n > 5 {
		t.Errorf("EmitDatapath(fir) allocates %v times, want <= 5", n)
	}
	for _, size := range []int{8, 256} {
		r := &hir.Rom{Name: "tab", Elem: cc.IntType{Bits: 16, Signed: true}, Size: size, Content: make([]int64, size)}
		for i := range r.Content {
			r.Content[i] = int64(i*37 - 4000)
		}
		if n := testing.AllocsPerRun(20, func() { EmitRom(r); RomInitFile(r) }); n > 6 {
			t.Errorf("EmitRom+RomInitFile(%d entries) allocate %v times, want <= 6", size, n)
		}
	}
}
