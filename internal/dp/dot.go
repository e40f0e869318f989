package dp

import (
	"fmt"
	"sort"
	"strings"

	"roccc/internal/vm"
)

// Dot renders the data path in Graphviz DOT format: one cluster per
// node (soft/mux/pipe), one record per op, edges for data dependences.
// It reproduces the presentation of the paper's Fig. 6 and Fig. 7.
func (d *Datapath) Dot() string {
	var b strings.Builder
	b.WriteString("digraph datapath {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
	byNode := map[*Node][]*Op{}
	for _, op := range d.Ops {
		byNode[op.Node] = append(byNode[op.Node], op)
	}
	nodes := append([]*Node{}, d.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=\"node %d (%s, level %d)\";\n",
			n.ID, n.ID, n.Kind, n.Level)
		if n.Kind.IsHard() {
			b.WriteString("    style=dashed;\n")
		}
		for _, op := range byNode[n] {
			label := opLabel(op)
			fmt.Fprintf(&b, "    op%d [label=\"%s\"];\n", op.ID, label)
		}
		b.WriteString("  }\n")
	}
	for _, op := range d.Ops {
		for r := range op.Instr.Uses() {
			if def := d.DefOf[r]; def != nil && def != op {
				style := ""
				if def.Stage != op.Stage {
					style = " [style=bold]" // crosses a pipeline latch
				}
				fmt.Fprintf(&b, "  op%d -> op%d%s;\n", def.ID, op.ID, style)
			}
		}
	}
	// Feedback latch back-edges (Fig. 7).
	for _, fb := range d.Feedbacks {
		for _, lpr := range fb.LPRs {
			fmt.Fprintf(&b, "  op%d -> op%d [style=dashed, label=\"latch %s\"];\n",
				fb.SNX.ID, lpr.ID, fb.State.Name)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func opLabel(op *Op) string {
	in := op.Instr
	switch in.Op {
	case vm.MOV:
		if op.Node.Kind == InputNode {
			return fmt.Sprintf("in %s", in.Dst)
		}
		return fmt.Sprintf("copy %s", in.Dst)
	case vm.SNX:
		return fmt.Sprintf("SNX %s", in.State.Name)
	case vm.LPR:
		return fmt.Sprintf("LPR %s", in.State.Name)
	case vm.MUX:
		return fmt.Sprintf("mux %s", in.Dst)
	default:
		return fmt.Sprintf("%s %s w%d", in.Op, in.Dst, op.Width)
	}
}

// Summary returns a compact structural description used in golden tests
// and the DESIGN/EXPERIMENTS reports: counts of nodes by kind, ops,
// stages and latches.
func (d *Datapath) Summary() string {
	soft := len(d.NodesOfKind(SoftNode))
	mux := len(d.NodesOfKind(MuxNode))
	pipe := len(d.NodesOfKind(PipeNode))
	return fmt.Sprintf("%s: soft=%d mux=%d pipe=%d ops=%d stages=%d latches=%d feedbacks=%d",
		d.Name, soft, mux, pipe, d.NumOps(), d.Stages, d.LatchCount(), len(d.Feedbacks))
}
