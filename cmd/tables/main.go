// Command tables regenerates the paper's Tables I-XI by running all six
// exemplar workloads on the simulated stack, characterizing their traces,
// and rendering the entity/attribute tables.
//
// Full paper scale produces traces of millions of events; the default
// per-workload harness scales keep runs tractable while preserving every
// ratio the tables report. Use -scale to override (1.0 = paper scale).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vani"
	"vani/internal/report"
	"vani/internal/workloads"
)

// harnessScale is the default fraction of paper scale per workload,
// chosen so each trace stays in the low millions of events.
var harnessScale = map[string]float64{
	"cm1":             1.0,
	"ior":             0.25,
	"hacc":            1.0,
	"cosmoflow":       0.25,
	"jag":             0.1,
	"montage-mpi":     0.2,
	"montage-pegasus": 0.25,
}

// displayName maps registry names to the paper's column headers.
var displayName = map[string]string{
	"cm1":             "CM1",
	"ior":             "IOR",
	"hacc":            "HACC (FPP)",
	"cosmoflow":       "Cosmoflow",
	"jag":             "JAG",
	"montage-mpi":     "Montage MPI",
	"montage-pegasus": "Montage Pegasus",
}

func main() {
	nodes := flag.Int("nodes", 32, "nodes per job")
	scale := flag.Float64("scale", 0, "override scale for every workload (0 = per-workload harness scale)")
	only := flag.String("workload", "", "run a single workload instead of all six")
	figures := flag.Bool("figures", false, "also render the per-workload figure panels")
	overhead := flag.Duration("trace-overhead", 0, "per-event tracer overhead (e.g. 2us)")
	par := flag.Int("par", 0, "analyzer parallelism (0 = GOMAXPROCS, 1 = sequential)")
	traceDir := flag.String("trace-dir", "", "also write each workload's trace into this directory")
	codec := flag.String("codec", "auto", "column codec for -trace-dir: auto (cost model), raw, rle, dict or for")
	verbose := flag.Bool("v", false, "print per-stage pipeline timings")
	flag.Parse()

	cm, err := vani.ParseTraceCodec(*codec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	wopt := vani.TraceWriteOptions{Codec: cm}

	names := vani.Workloads()
	if *only != "" {
		names = []string{*only}
	}
	var cols []report.Named
	for _, name := range names {
		w, err := vani.New(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spec := w.DefaultSpec()
		spec.Nodes = *nodes
		spec.TraceOverhead = *overhead
		spec.Scale = harnessScale[name]
		if *scale > 0 {
			spec.Scale = *scale
		}
		start := time.Now()
		res, err := vani.Run(w, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		opt := vani.DefaultAnalyzerOptions()
		opt.Parallelism = *par
		var timings vani.AnalyzerTimings
		opt.Stats = &timings
		c := vani.CharacterizeWith(res, opt)
		fmt.Fprintf(os.Stderr, "ran %-16s scale=%-5.3g events=%-8d virtual=%-10s wall=%s\n",
			name, spec.Scale, len(res.Trace.Events),
			res.Runtime.Round(time.Second), time.Since(start).Round(time.Millisecond))
		if *verbose {
			s := timings.Scan
			fmt.Fprintf(os.Stderr, "    stages: trace-merge=%s columnarize=%s analyze=%s (pass1=%s pass2=%s stitch=%s) decode=%s\n",
				timings.TraceMerge, timings.Columnarize, timings.Analyze, timings.Pass1, timings.Pass2, timings.Stitch,
				time.Duration(s.DecodeNanos))
			fmt.Fprintf(os.Stderr, "    scan: blocks=%d pruned=%d rows=%d kept=%d payload=%dB decoded=%dB\n",
				s.BlocksTotal, s.BlocksPruned, s.RowsTotal, s.RowsKept, s.PayloadBytes, s.DecodedBytes)
			fmt.Fprintf(os.Stderr, "    segs: raw=%d rle=%d dict=%d for=%d\n",
				s.SegRaw, s.SegRLE, s.SegDict, s.SegFOR)
			fmt.Fprintf(os.Stderr, "    kernels: served=%d fallback=%d\n",
				s.KernelsServed, s.KernelsFallback)
			fmt.Fprintf(os.Stderr, "    groups: served=%d fallback=%d\n",
				s.GroupServed, s.GroupFallback)
			fmt.Fprintf(os.Stderr, "    runisect: served=%d fallback=%d\n",
				s.RunIsectServed, s.RunIsectFallback)
		}
		cols = append(cols, report.Named{Name: display(name), C: c})
		if *traceDir != "" {
			path := filepath.Join(*traceDir, name+".trc")
			if err := dumpTrace(path, res.Trace, wopt); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "    wrote %s (codec %s)\n", path, cm)
		}
		if *figures {
			fmt.Println(report.Figure(c))
		}
	}
	probe, err := vani.ProbeSharedBW(defaultStorage(), 32)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shared-bw probe: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(report.AllTables(cols, probe))
}

func display(name string) string {
	if d, ok := displayName[name]; ok {
		return d
	}
	return name
}

func defaultStorage() vani.StorageConfig {
	return workloads.DefaultSpec().Storage
}

func dumpTrace(path string, tr *vani.Trace, opt vani.TraceWriteOptions) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := vani.WriteTraceWith(f, tr, opt); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
