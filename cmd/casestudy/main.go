// Command casestudy reproduces the paper's two optimization experiments:
//
//   - Figure 7: CosmoFlow strong-scaled from 32 to 256 nodes, baseline
//     GPFS (B) vs. dataset preloaded into node-local shared memory (O);
//     the paper reports 2.2x-4.6x I/O improvement growing with scale.
//   - Figure 8: Montage-MPI strong-scaled to 256 nodes, baseline GPFS vs.
//     intermediate files kept in node-local shared memory; the paper
//     reports 3.9x-8x.
//
// Strong scaling holds total work constant: CosmoFlow's file count is
// global (more nodes, fewer files per rank); Montage's per-node segment
// shrinks as nodes grow.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vani"
	"vani/internal/spec"
)

func main() {
	which := flag.String("w", "cosmoflow", "case study: cosmoflow (Figure 7) or montage (Figure 8)")
	nodesList := flag.String("nodes", "32,64,128,256", "comma-separated node counts")
	scale := flag.Float64("scale", 0.05, "fraction of paper scale for the total work")
	impacts := flag.Bool("impacts", false, "also evaluate each recommendation in isolation at the first node count")
	flag.Parse()
	showImpacts = *impacts

	var nodeCounts []int
	for _, s := range strings.Split(*nodesList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad node count %q\n", s)
			os.Exit(2)
		}
		nodeCounts = append(nodeCounts, n)
	}

	switch *which {
	case "cosmoflow":
		fmt.Println("Figure 7: Optimizing CosmoFlow using workload attributes")
		fmt.Println("          (B = baseline GPFS, O = preload to /dev/shm; paper: 2.2x-4.6x)")
		runSweep(nodeCounts, func(nodes int) (vani.Workload, vani.Spec) {
			// Isolate the I/O path, as the figure plots I/O time.
			w := golden("cosmoflow", "gpu_per_file")
			sp := w.DefaultSpec()
			sp.Nodes = nodes
			sp.Scale = *scale
			return w, sp
		})
	case "montage":
		fmt.Println("Figure 8: Optimizing Montage using workload attributes")
		fmt.Println("          (B = baseline GPFS, O = intermediates in /dev/shm; paper: 3.9x-8x)")
		runSweep(nodeCounts, func(nodes int) (vani.Workload, vani.Spec) {
			w := golden("montage-mpi", "project_compute", "add_compute", "shrink_compute", "viewer_compute")
			sp := w.DefaultSpec()
			sp.Nodes = nodes
			// Strong scaling: the sky survey is fixed, so each node's
			// segment shrinks as the job widens.
			sp.Scale = *scale * 32 / float64(nodes)
			if sp.Scale > 1 {
				sp.Scale = 1
			}
			return w, sp
		})
	default:
		fmt.Fprintln(os.Stderr, "unknown case study; use cosmoflow or montage")
		os.Exit(2)
	}
}

var showImpacts bool

// golden compiles a golden spec with the named time params zeroed.
func golden(name string, zero ...string) vani.Workload {
	doc, err := spec.Golden(name)
	for _, p := range zero {
		if err == nil {
			err = doc.Set(p, 0)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return doc.Compile()
}

func runSweep(nodeCounts []int, build func(nodes int) (vani.Workload, vani.Spec)) {
	fmt.Printf("%-6s  %-12s %-12s %-8s  %-12s %-12s %-8s\n",
		"nodes", "B job", "O job", "speedup", "B I/O", "O I/O", "speedup")
	for _, nodes := range nodeCounts {
		w, spec := build(nodes)
		cs, err := vani.Optimize(w, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%d nodes: %v\n", nodes, err)
			os.Exit(1)
		}
		fmt.Printf("%-6d  %-12s %-12s %-8.2f  %-12s %-12s %-8.2f\n",
			nodes,
			cs.BaselineRuntime.Round(time.Millisecond),
			cs.OptimizedRuntime.Round(time.Millisecond),
			cs.JobSpeedup(),
			cs.BaselineIOTime.Round(time.Millisecond),
			cs.OptimizedIOTime.Round(time.Millisecond),
			cs.IOSpeedup())
		if showImpacts && nodes == nodeCounts[0] {
			printImpacts(build, nodes, cs.Recommendations)
		}
	}
}

// printImpacts re-runs the workload once per recommendation, isolating
// each one's contribution to the combined speedup.
func printImpacts(build func(nodes int) (vani.Workload, vani.Spec), nodes int, recs []vani.Recommendation) {
	w, spec := build(nodes)
	impacts, err := vani.EvaluateRecommendations(w, spec, recs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Printf("        per-recommendation impact at %d nodes:\n", nodes)
	for _, im := range impacts {
		if !im.Applied {
			fmt.Printf("        %-26s advisory only (%s)\n",
				im.Recommendation.ID, im.Recommendation.Parameter)
			continue
		}
		fmt.Printf("        %-26s %.2fx (%s -> %s)\n",
			im.Recommendation.ID, im.Speedup(),
			im.BaselineRuntime.Round(time.Millisecond),
			im.TunedRuntime.Round(time.Millisecond))
	}
}
