// Package vhdl implements §4.2.4 of the paper: RTL VHDL generation.
// "ROCCC generates one VHDL component for each CFG node that goes to
// hardware. In a node, every virtual register is single assigned and is
// converted into wires in hardware. All arithmetic opcodes in SUIFvm
// have corresponding functionality in IEEE 1076.3 VHDL with the
// exception of division. Arithmetic, logic and copying instructions
// become combinational or sequential VHDL statement according to whether
// the instruction needs latched or not. A LUT instruction invokes an
// instantiation of a lookup table component."
package vhdl

import (
	"slices"
	"strconv"

	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/vm"
)

// File is one generated VHDL design unit.
type File struct {
	Name    string // file name, e.g. "fir_dp.vhd"
	Content string
}

// EmitDatapath renders the complete data path: one component per
// hardware node plus a top-level entity that instantiates them, the
// pipeline registers and the feedback latches.
func EmitDatapath(d *dp.Datapath) []File {
	var files []File
	// ROM components first (instantiated by LUT ops).
	romSeen := map[*hir.Rom]bool{}
	for _, op := range d.Ops {
		if op.Instr.Op == vm.LUT && !romSeen[op.Instr.Rom] {
			romSeen[op.Instr.Rom] = true
			files = append(files, EmitRom(op.Instr.Rom))
		}
	}
	files = append(files, File{
		Name:    d.Name + "_dp.vhd",
		Content: emitTop(d),
	})
	return files
}

// writer accumulates one VHDL unit in a single pre-sized buffer.
// Numbers go in through strconv, never fmt, so emitting a unit costs
// one buffer and its final string. Every method returns the writer,
// so a statement reads left to right as the VHDL it produces.
type writer struct {
	b []byte
}

func newWriter(size int) *writer { return &writer{b: make([]byte, 0, size)} }

func (w *writer) str(s string) *writer {
	w.b = append(w.b, s...)
	return w
}

func (w *writer) num(v int) *writer {
	w.b = strconv.AppendInt(w.b, int64(v), 10)
	return w
}

func (w *writer) num64(v int64) *writer {
	w.b = strconv.AppendInt(w.b, v, 10)
	return w
}

// nums renders a slice as fmt's %v does: "[a b c]".
func (w *writer) nums(vs []int) *writer {
	w.b = append(w.b, '[')
	for i, v := range vs {
		if i > 0 {
			w.b = append(w.b, ' ')
		}
		w.b = strconv.AppendInt(w.b, int64(v), 10)
	}
	w.b = append(w.b, ']')
	return w
}

// sig writes the VHDL signal for a virtual register.
func (w *writer) sig(r vm.Reg) *writer { return w.str("vr").num(int(r)) }

func (w *writer) slv(width int) *writer {
	return w.str("std_logic_vector(").num(width - 1).str(" downto 0)")
}

func (w *writer) String() string { return string(w.b) }

// sigName is the VHDL signal for a virtual register.
func sigName(r vm.Reg) string { return "vr" + strconv.Itoa(int(r)) }

// operand writes a vm operand as a numeric_std expression of the given
// width.
func (w *writer) operand(d *dp.Datapath, o vm.Operand, signed bool, width int) *writer {
	if o.IsImm {
		switch {
		case signed:
			return w.str("to_signed(").num64(o.Imm).str(", ").num(width).str(")")
		case o.Imm < 0:
			return w.str("unsigned(to_signed(").num64(o.Imm).str(", ").num(width).str("))")
		}
		return w.str("to_unsigned(").num64(o.Imm).str(", ").num(width).str(")")
	}
	def := d.DefOf[o.Reg]
	srcW := 32
	srcSigned := signed
	if def != nil {
		srcW = def.Width
		srcSigned = def.Signed
	}
	typed := "unsigned("
	if srcSigned {
		typed = "signed("
	}
	switch {
	case srcSigned != signed:
		// Re-interpret after resizing in the source domain.
		domain := "unsigned(resize("
		if signed {
			domain = "signed(resize("
		}
		return w.str(domain).str(typed).sig(o.Reg).str("), ").num(width).str("))")
	case srcW != width:
		return w.str("resize(").str(typed).sig(o.Reg).str("), ").num(width).str(")")
	}
	return w.str(typed).sig(o.Reg).str(")")
}

// binOps are the infix VHDL operators of the two-operand opcodes.
var binOps = map[vm.Opcode]string{
	vm.ADD: " + ", vm.SUB: " - ", vm.REM: " rem ",
	vm.AND: " and ", vm.IOR: " or ", vm.XOR: " xor ",
}

// cmpOps are the VHDL relations of the comparison opcodes.
var cmpOps = map[vm.Opcode]string{vm.SEQ: " = ", vm.SNE: " /= ", vm.SLT: " < ", vm.SLE: " <= "}

// opExpr writes the combinational expression computing op's value.
func (w *writer) opExpr(d *dp.Datapath, op *dp.Op) *writer {
	in := op.Instr
	width, s := op.Width, op.Signed
	const cast = "std_logic_vector("
	switch in.Op {
	case vm.MOV, vm.LDC, vm.CVT:
		return w.str(cast).operand(d, in.Srcs[0], s, width).str(")")
	case vm.ADD, vm.SUB, vm.REM, vm.AND, vm.IOR, vm.XOR:
		return w.str(cast).operand(d, in.Srcs[0], s, width).str(binOps[in.Op]).
			operand(d, in.Srcs[1], s, width).str(")")
	case vm.MUL:
		return w.str(cast+"resize(").operand(d, in.Srcs[0], s, width).str(" * ").
			operand(d, in.Srcs[1], s, width).str(", ").num(width).str("))")
	case vm.DIV:
		// "All arithmetic opcodes ... with the exception of division":
		// division instantiates a divider component; the inline form is
		// emitted for simulation-only builds.
		return w.str(cast).operand(d, in.Srcs[0], s, width).str(" / ").
			operand(d, in.Srcs[1], s, width).str(") -- divider core instantiation")
	case vm.NOT:
		return w.str(cast+"not ").operand(d, in.Srcs[0], s, width).str(")")
	case vm.NEG:
		return w.str(cast+"-").operand(d, in.Srcs[0], true, width).str(")")
	case vm.SHL, vm.SHR:
		fn := "shift_left("
		if in.Op == vm.SHR {
			fn = "shift_right("
		}
		return w.str(cast+fn).operand(d, in.Srcs[0], s, width).str(", to_integer(").
			operand(d, in.Srcs[1], false, 6).str(")))")
	case vm.SEQ, vm.SNE, vm.SLT, vm.SLE:
		wCmp, sCmp := cmpWidth(d, in), cmpSigned(d, in)
		return w.str(`"1" when `).operand(d, in.Srcs[0], sCmp, wCmp).str(cmpOps[in.Op]).
			operand(d, in.Srcs[1], sCmp, wCmp).str(` else "0"`)
	case vm.MUX:
		w.str(cast).operand(d, in.Srcs[1], s, width).str(") when ")
		if in.Srcs[0].IsImm {
			w.str(`"`).num64(in.Srcs[0].Imm & 1).str(`"`)
		} else {
			w.sig(in.Srcs[0].Reg)
		}
		return w.str(` = "1" else `+cast).operand(d, in.Srcs[2], s, width).str(")")
	default:
		return w.str("(others => '0')")
	}
}

// cmpWidth picks a comparison width covering both operands plus a sign
// bit when mixing domains.
func cmpWidth(d *dp.Datapath, in *vm.Instr) int {
	w := 2
	for _, o := range in.Srcs {
		if o.IsImm {
			continue
		}
		if def := d.DefOf[o.Reg]; def != nil && def.Width+1 > w {
			w = def.Width + 1
		}
	}
	return w
}

func cmpSigned(d *dp.Datapath, in *vm.Instr) bool {
	for _, o := range in.Srcs {
		if o.IsImm {
			if o.Imm < 0 {
				return true
			}
			continue
		}
		if def := d.DefOf[o.Reg]; def != nil && def.Signed {
			return true
		}
	}
	return false
}

// emitTop renders the single-entity data path: wires for every virtual
// register, concurrent statements for combinational ops, one clocked
// process holding the pipeline registers and feedback latches, and ROM
// instantiations for LUT ops.
func emitTop(d *dp.Datapath) string {
	w := newWriter(1024 + 192*len(d.Ops))
	name := d.Name + "_dp"
	w.str(ieeeHeader)
	w.str("-- Generated by the ROCCC reproduction: pipelined data path ")
	w.b = strconv.AppendQuote(w.b, d.Name)
	w.str("\n-- ").num(d.NumOps()).str(" ops, ").num(d.Stages).str(" pipeline stages, target period ")
	w.b = strconv.AppendFloat(w.b, d.Period, 'f', 2, 64)
	w.str(" ns\n\n")
	w.str("entity ").str(name).str(" is\n  port (\n    clk : in std_logic;\n    rst : in std_logic;\n")
	for _, p := range d.Inputs {
		w.str("    ").sig(p.Reg).str(" : in ").slv(p.Width).str(";  -- ").str(p.Var.Name).str("\n")
	}
	for i, p := range d.Outputs {
		sep := ";"
		if i == len(d.Outputs)-1 {
			sep = ""
		}
		w.str("    ").sig(p.Reg).str("_out : out ").slv(p.Width).str(sep).str("  -- ").str(p.Var.Name).str("\n")
	}
	w.str("  );\nend entity;\n\n")
	w.str("architecture rtl of ").str(name).str(" is\n")

	// Wire declarations: every op's result ("every virtual register ...
	// converted into wires"). Latched ops also get a registered copy.
	for _, op := range d.Ops {
		if op.Node.Kind == dp.InputNode || !op.Instr.Op.HasDst() {
			continue
		}
		w.str("  signal ").sig(op.Instr.Dst).str(" : ").slv(op.Width).str(";\n")
		if op.Latched {
			w.str("  signal ").sig(op.Instr.Dst).str("_q : ").slv(op.Width).str(";\n")
		}
	}
	for _, fb := range d.Feedbacks {
		w.str("  signal fb_").str(fb.State.Name).str(" : ").slv(fb.State.Type.Bits).str("; -- feedback latch (LPR/SNX)\n")
	}
	w.str("begin\n")

	// Node-by-node concurrent statements, grouped with comments that
	// preserve the soft/mux/pipe structure of §4.2.2.
	nodes := slices.Clone(d.Nodes)
	slices.SortFunc(nodes, func(a, b *dp.Node) int { return a.ID - b.ID })
	for _, n := range nodes {
		if n.Kind == dp.InputNode {
			continue
		}
		w.str("\n  -- node ").num(n.ID).str(" (").str(n.Kind.String()).str(", level ").num(n.Level).str(")\n")
		for _, op := range n.Ops {
			in := op.Instr
			switch in.Op {
			case vm.SNX:
				w.str("  -- snx ").str(in.State.Name).str(" feeds the feedback latch in the clocked process\n")
			case vm.LPR:
				w.str("  ").sig(in.Dst).str(" <= fb_").str(in.State.Name).str(";\n")
			case vm.LUT:
				w.str("  u_").str(in.Rom.Name).str("_").num(op.ID).str(": entity work.rom_").str(in.Rom.Name).
					str(" port map (addr => ").sig(in.Srcs[0].Reg).str(", data => ").sig(in.Dst).str(");\n")
			default:
				w.str("  ").sig(in.Dst).str(" <= ").opExpr(d, op).str(";\n")
			}
		}
	}

	// Clocked process: pipeline registers and feedback latches (§4.2.3).
	w.str("\n  pipeline: process(clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n")
	for _, fb := range d.Feedbacks {
		w.str("        fb_").str(fb.State.Name).str(" <= std_logic_vector(to_signed(").num64(fb.Init).
			str(", ").num(fb.State.Type.Bits).str("));\n")
	}
	w.str("      else\n")
	for _, op := range d.Ops {
		if op.Latched && op.Instr.Op.HasDst() {
			w.str("        ").sig(op.Instr.Dst).str("_q <= ").sig(op.Instr.Dst).str(";\n")
		}
	}
	for _, fb := range d.Feedbacks {
		w.str("        fb_").str(fb.State.Name).str(" <= ").sig(fb.SNX.Instr.Srcs[0].Reg).str(";\n")
	}
	w.str("      end if;\n    end if;\n  end process;\n\n")

	for _, p := range d.Outputs {
		w.str("  ").sig(p.Reg).str("_out <= ").sig(p.Reg).str(";\n")
	}
	w.str("end architecture;\n")
	return w.String()
}

// EmitRom renders a ROM component plus its plain-text init file contents
// (the paper: "the compiler instantiates the lookup table as a regular
// ROM IP core unit in the VHDL code. The only thing the user needs to do
// is to edit a pure text initialization file").
func EmitRom(r *hir.Rom) File {
	w := newWriter(512 + 56*len(r.Content))
	w.str(ieeeHeader)
	addrW := 1
	for 1<<uint(addrW) < r.Size {
		addrW++
	}
	w.str("entity rom_").str(r.Name).str(" is\n  port (\n    addr : in ").slv(addrW).
		str(";\n    data : out ").slv(r.Elem.Bits).str("\n  );\nend entity;\n\n")
	w.str("architecture rtl of rom_").str(r.Name).str(" is\n")
	w.str("  type rom_t is array (0 to ").num(r.Size - 1).str(") of ").slv(r.Elem.Bits).str(";\n")
	w.str("  constant CONTENT : rom_t := (\n")
	for i, v := range r.Content {
		w.str("    ").num(i).str(" => std_logic_vector(to_signed(").num64(v).str(", ").num(r.Elem.Bits).str("))")
		if i < len(r.Content)-1 {
			w.str(",")
		}
		w.str("\n")
	}
	w.str("  );\nbegin\n  data <= CONTENT(to_integer(unsigned(addr)));\nend architecture;\n")
	return File{Name: "rom_" + r.Name + ".vhd", Content: w.String()}
}

// RomInitFile renders the plain-text initialization file for a ROM.
func RomInitFile(r *hir.Rom) File {
	w := newWriter(96 + 12*len(r.Content))
	w.str("-- init file for lookup table ").str(r.Name).str(": ").num(r.Size).str(" x ").num(r.Elem.Bits).str(" bits\n")
	for _, v := range r.Content {
		w.num64(v).str("\n")
	}
	return File{Name: r.Name + ".init", Content: w.String()}
}
