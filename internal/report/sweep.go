package report

// Sweep tables: a what-if sweep's comparative report rendered with the
// same table primitives as the paper's per-workload tables. The report is
// already deterministic (points in grid order, fixed winner rule), so the
// text renders byte-identical wherever the sweep ran.

import (
	"fmt"
	"strings"

	"vani/internal/spec"
	"vani/internal/sweep"
)

// SweepTable renders a sweep report: one row per grid point, the winner
// with its speedups, the advisor's baseline verdicts, and the replayed
// stripe trials.
func SweepTable(rep *sweep.Report) string {
	t := NewTable(fmt.Sprintf("Sweep %s: %s, %d nodes x %d ranks/node (%d points)",
		rep.Name, rep.Workload, rep.Nodes, rep.RanksPerNode, len(rep.Points)),
		"Point", "Config", "I/O time", "Runtime")
	for _, p := range rep.Points {
		t.AddRow(fmt.Sprint(p.Index), settingsString(p.Config), Dur(p.IOTime), Dur(p.Runtime))
	}
	out := t.Render()

	wt := NewTable("Winner vs baseline (point 0)", "Metric", "Value")
	wt.AddRow("winner", fmt.Sprintf("point %d: %s", rep.Winner.Index, settingsString(rep.Winner.Config)))
	wt.AddRow("I/O speedup", rep.Winner.IOSpeedup)
	wt.AddRow("runtime speedup", rep.Winner.RuntimeSpeedup)
	out += "\n" + wt.Render()

	if len(rep.Recommendations) > 0 {
		at := NewTable("Advisor on the baseline", "Parameter", "Value")
		for _, r := range rep.Recommendations {
			at.AddRow(r.Parameter, r.Value)
		}
		out += "\n" + at.Render()
	}
	if len(rep.StripeTrials) > 0 {
		st := NewTable("Replayed stripe trials (baseline trace, fastest first)",
			"Candidate", "I/O time", "Runtime")
		for _, tr := range rep.StripeTrials {
			st.AddRow(tr.Name, Dur(tr.IOTime), Dur(tr.Runtime))
		}
		out += "\n" + st.Render()
	}
	return out
}

// settingsString renders "staging=node-local hdf5_chunked=true".
func settingsString(cfg []spec.SweepSetting) string {
	parts := make([]string, len(cfg))
	for i, s := range cfg {
		parts[i] = s.Param + "=" + s.Value
	}
	return strings.Join(parts, " ")
}
