// Command wrun runs one exemplar workload on the simulated stack and
// writes its Recorder-style trace, playing the role of the traced job
// submission in the paper's methodology.
//
//	wrun -w cosmoflow -nodes 32 -scale 0.1 -o cosmoflow.trc
//	wrun -w montage-mpi -optimized          # Section V-B reconfiguration
//	wrun -spec my-workload.yaml -o my.trc   # declarative spec (internal/spec)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vani"
)

func main() {
	name := flag.String("w", "", "workload: "+strings.Join(vani.Workloads(), ", "))
	specFile := flag.String("spec", "", "declarative workload spec file (YAML or JSON) instead of -w")
	nodes := flag.Int("nodes", 32, "nodes")
	ranksPerNode := flag.Int("rpn", 0, "ranks per node (0 = workload default)")
	scale := flag.Float64("scale", 0.1, "fraction of paper scale (1.0 = full)")
	seed := flag.Int64("seed", 1, "simulation seed")
	out := flag.String("o", "", "trace output file (empty = don't write)")
	compress := flag.Bool("compress", false, "flate-compress event blocks")
	codec := flag.String("codec", "auto", "column codec: auto (cost model), raw, rle, dict or for")
	optimized := flag.Bool("optimized", false, "apply the workload's case-study optimization")
	overhead := flag.Duration("trace-overhead", 0, "per-event tracer overhead")
	flag.Parse()

	cm, err := vani.ParseTraceCodec(*codec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if (*name == "") == (*specFile == "") {
		fmt.Fprintln(os.Stderr, "usage: wrun -w <workload> | -spec <file> [flags]; workloads:",
			strings.Join(vani.Workloads(), ", "))
		os.Exit(2)
	}
	var w vani.Workload
	if *specFile != "" {
		doc, err := vani.ParseSpecFile(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w = doc.Compile()
	} else {
		var err error
		w, err = vani.New(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	spec := w.DefaultSpec()
	spec.Nodes = *nodes
	if *ranksPerNode > 0 {
		spec.RanksPerNode = *ranksPerNode
	}
	spec.Scale = *scale
	spec.Seed = *seed
	spec.Optimized = *optimized
	spec.TraceOverhead = *overhead

	start := time.Now()
	res, err := vani.Run(w, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	simulate := time.Since(start) - res.TraceMerge
	var encode time.Duration
	var written int64
	if *out != "" {
		start = time.Now()
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opt := vani.TraceWriteOptions{Compress: *compress, Codec: cm}
		if err := vani.WriteTraceWith(f, res.Trace, opt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		encode = time.Since(start)
		fi, _ := os.Stat(*out)
		written = fi.Size()
	}
	st := res.Sys.Stats
	wall := fmt.Sprintf("simulate %s, merge %s", wallTime(simulate), wallTime(res.TraceMerge))
	if *out != "" {
		wall += fmt.Sprintf(", encode %s", wallTime(encode))
	}
	fmt.Printf("workload   : %s (scale %g, %d nodes x %d ranks)\n",
		w.Name(), spec.Scale, spec.Nodes, spec.RanksPerNode)
	fmt.Printf("virtual    : %s\n", res.Runtime.Round(time.Millisecond))
	fmt.Printf("wall       : %s\n", wall)
	fmt.Printf("kernel     : %d events, %d switches (%.2f per event), %d in-place wake-ups\n",
		res.KernelEvents, res.KernelSwitches,
		float64(res.KernelSwitches)/float64(max(res.KernelEvents, 1)), res.KernelInPlaceWakes)
	fmt.Printf("events     : %d\n", len(res.Trace.Events))
	fmt.Printf("gpfs       : read %s, wrote %s, %d data ops, %d meta ops\n",
		mb(st[0].BytesRead), mb(st[0].BytesWritten), st[0].DataOps, st[0].MetaOps)
	fmt.Printf("node-local : read %s, wrote %s\n", mb(st[1].BytesRead), mb(st[1].BytesWritten))
	if *out != "" {
		fmt.Printf("trace      : %s (%s)\n", *out, mb(written))
	}
}

// wallTime rounds a wall-clock duration for display.
func wallTime(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

func mb(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
