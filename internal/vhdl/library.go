package vhdl

import (
	"roccc/internal/hir"
	"roccc/internal/smartbuf"
)

// library.go renders the "pre-existing parameterized FSMs in a VHDL
// library" of §4.1: smart buffers, address generators and the top-level
// controller, plus the system wrapper that wires them to the data path
// (the execution model of Fig. 2).

// ieeeHeader opens every generated unit.
const ieeeHeader = "library IEEE;\nuse IEEE.std_logic_1164.all;\nuse IEEE.numeric_std.all;\n\n"

// EmitSmartBuffer renders a smart buffer: a shift-register (1-D) or
// line-buffer (2-D) structure with window-export logic.
func EmitSmartBuffer(name string, cfg smartbuf.Config) File {
	w := newWriter(1024 + 80*(len(cfg.Taps)+cfg.BusElems))
	w.str(ieeeHeader)
	depth := cfg.StorageBits() / cfg.ElemBits
	w.str("-- smart buffer: window ").nums(cfg.Extent).str(", stride ").nums(cfg.Stride).str(", ").
		num(len(cfg.Taps)).str(" taps, ").num(depth).str(" elements retained\n")
	w.str("entity ").str(name).str(" is\n  port (\n    clk : in std_logic;\n    rst : in std_logic;\n")
	w.str("    din : in ").slv(cfg.ElemBits * cfg.BusElems).str(";\n")
	w.str("    din_valid : in std_logic;\n    window_ready : out std_logic;\n")
	for i := range cfg.Taps {
		w.str("    tap").num(i).str(" : out ").slv(cfg.ElemBits)
		if i < len(cfg.Taps)-1 {
			w.str(";")
		}
		w.str("\n")
	}
	w.str("  );\nend entity;\n\n")
	w.str("architecture rtl of ").str(name).str(" is\n")
	w.str("  type line_t is array (0 to ").num(depth - 1).str(") of ").slv(cfg.ElemBits).str(";\n")
	w.str("  signal ring : line_t;\n  signal fill : integer range 0 to 65535;\nbegin\n")
	w.str("  shift: process(clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        fill <= 0;\n      elsif din_valid = '1' then\n")
	if depth > cfg.BusElems {
		w.str("        ring(").num(cfg.BusElems).str(" to ").num(depth - 1).str(") <= ring(0 to ").num(depth - 1 - cfg.BusElems).str(");\n")
	}
	for i := 0; i < cfg.BusElems; i++ {
		w.str("        ring(").num(i).str(") <= din(").num((i+1)*cfg.ElemBits - 1).str(" downto ").num(i * cfg.ElemBits).str(");\n")
	}
	w.str("        fill <= fill + ").num(cfg.BusElems).str(";\n")
	w.str("      end if;\n    end if;\n  end process;\n\n")
	w.str("  window_ready <= '1' when fill >= ").num(depth).str(" else '0';\n")
	// Tap wiring: relative positions inside the retained region.
	for i, tap := range cfg.Taps {
		var idx int
		if len(cfg.Extent) == 1 {
			idx = int(tap[0]) - cfg.MinOff[0]
		} else {
			idx = (int(tap[0])-cfg.MinOff[0])*cfg.ArrayDims[1] + int(tap[1]) - cfg.MinOff[1]
		}
		// Newest element is ring(0); taps count back from the window end.
		pos := max(depth-1-idx, 0)
		w.str("  tap").num(i).str(" <= ring(").num(pos).str(");\n")
	}
	w.str("end architecture;\n")
	return File{Name: name + ".vhd", Content: w.String()}
}

// EmitAddressGenerator renders a sequential read address generator FSM.
func EmitAddressGenerator(name string, total, busElems, addrBits int) File {
	w := newWriter(1024)
	w.str(ieeeHeader)
	w.str("-- read address generator: ").num(total).str(" elements, ").num(busElems).str(" per cycle\n")
	w.str("entity ").str(name).str(" is\n  port (\n    clk : in std_logic;\n    rst : in std_logic;\n    enable : in std_logic;\n    addr : out ").
		slv(addrBits).str(";\n    valid : out std_logic;\n    done : out std_logic\n  );\nend entity;\n\n")
	w.str("architecture fsm of ").str(name).str(" is\n")
	w.str("  signal pos : unsigned(").num(addrBits - 1).str(" downto 0);\nbegin\n")
	w.str("  step: process(clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        pos <= (others => '0');\n")
	w.str("      elsif enable = '1' and pos < ").num(total).str(" then\n        pos <= pos + ").num(busElems).str(";\n")
	w.str("      end if;\n    end if;\n  end process;\n")
	w.str("  addr <= std_logic_vector(pos);\n")
	w.str("  valid <= '1' when pos < ").num(total).str(" else '0';\n")
	w.str("  done <= '1' when pos >= ").num(total).str(" else '0';\n")
	w.str("end architecture;\n")
	return File{Name: name + ".vhd", Content: w.String()}
}

// EmitController renders the higher-level controller FSM (idle / fill /
// stream / drain / done) that sequences the address generators and the
// data path.
func EmitController(name string, totalIters, latency int) File {
	w := newWriter(2048)
	w.str(ieeeHeader)
	w.str("-- higher-level controller: ").num(totalIters).str(" iterations, data-path latency ").num(latency).str("\n")
	w.str("entity ").str(name).str(" is\n  port (\n    clk : in std_logic;\n    rst : in std_logic;\n    window_ready : in std_logic;\n    feed : out std_logic;\n    done : out std_logic\n  );\nend entity;\n\n")
	w.str("architecture fsm of ").str(name).str(" is\n")
	w.str("  type state_t is (S_IDLE, S_FILL, S_STREAM, S_DRAIN, S_DONE);\n  signal state : state_t;\n  signal fed, collected : integer range 0 to 1048575;\nbegin\n")
	w.str(`  fsm: process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        state <= S_IDLE;
        fed <= 0;
        collected <= 0;
      else
        case state is
          when S_IDLE => state <= S_FILL;
          when S_FILL | S_STREAM =>
            if window_ready = '1' then
              fed <= fed + 1;
              state <= S_STREAM;
            end if;
`)
	w.str("            if fed >= ").num(totalIters).str(" then state <= S_DRAIN; end if;\n")
	w.str("          when S_DRAIN =>\n            if collected >= ").num(totalIters).str(" then state <= S_DONE; end if;\n")
	w.str("          when S_DONE => null;\n        end case;\n      end if;\n    end if;\n  end process;\n")
	w.str("  feed <= '1' when (state = S_FILL or state = S_STREAM) and window_ready = '1' and fed < ").num(totalIters).str(" else '0';\n")
	w.str("  done <= '1' when state = S_DONE else '0';\nend architecture;\n")
	return File{Name: name + ".vhd", Content: w.String()}
}

// EmitKernel renders the full file set for a compiled kernel: data path,
// ROM cores + init files, one smart buffer per read window, address
// generators and the controller.
func EmitKernel(k *hir.Kernel, files []File, cfgs []smartbuf.Config, latency int) []File {
	for i, cfg := range cfgs {
		arr := k.Reads[i].Arr
		files = append(files, EmitSmartBuffer(k.Name+"_smartbuf_"+arr.Name, cfg))
		addrBits := 1
		for 1<<uint(addrBits) < arr.Len() {
			addrBits++
		}
		files = append(files, EmitAddressGenerator(k.Name+"_addrgen_"+arr.Name, arr.Len(), cfg.BusElems, addrBits))
	}
	total := int(k.Nest.TotalIterations())
	if total == 0 {
		total = 1
	}
	files = append(files, EmitController(k.Name+"_ctrl", total, latency))
	for _, r := range k.Roms {
		files = append(files, RomInitFile(r))
	}
	return files
}
