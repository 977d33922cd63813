// Command vani is the analyzer of the paper's tool suite: it loads a
// Recorder-style trace (written by wrun), builds the entity/attribute
// characterization, and renders it as tables, YAML, figure panels, and
// storage-configuration recommendations.
//
//	wrun -w jag -o jag.trc
//	vani -t jag.trc -tables -figure -advise -yaml jag.yaml
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"vani"
	"vani/internal/cliutil"
	"vani/internal/report"
	"vani/internal/workloads"
	"vani/internal/yamlenc"
)

func main() {
	// Subcommand dispatch before flag parsing: `vani fleet ...` has its own
	// flag set (repository queries, not single-trace analysis).
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		fleetMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		sweepMain(os.Args[2:])
		return
	}
	traceFile := flag.String("t", "", "trace file to analyze (required)")
	tables := flag.Bool("tables", true, "render the entity tables")
	figure := flag.Bool("figure", false, "render the figure panels")
	advise := flag.Bool("advise", false, "print storage recommendations")
	phases := flag.Bool("phases", false, "render the full I/O phase series")
	yamlOut := flag.String("yaml", "", "write the characterization as YAML to this file")
	rewrite := flag.String("rewrite", "", "re-encode the input trace to this path (under -compress/-codec) before analyzing")
	compress := flag.Bool("compress", false, "flate-compress event blocks for -rewrite")
	codec := flag.String("codec", "auto", "column codec for -rewrite: auto (cost model), raw, rle, dict or for")
	par := flag.Int("par", 0, "analyzer parallelism (0 = GOMAXPROCS, 1 = sequential)")
	verbose := flag.Bool("v", false, "print per-stage pipeline timings and scan counters")
	ff := cliutil.RegisterFilterFlags(nil)
	flag.Parse()

	if *traceFile == "" {
		fmt.Fprintln(os.Stderr, "usage: vani -t <trace> [-window from:to] [-ranks 0-63] [-levels posix] [-ops data] [-tables] [-figure] [-advise] [-yaml out.yaml] [-rewrite out.trc -codec auto]")
		os.Exit(2)
	}
	filter, err := ff.Filter()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *rewrite != "" {
		cm, err := vani.ParseTraceCodec(*codec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		wopt := vani.TraceWriteOptions{Compress: *compress, Codec: cm}
		if err := transcode(*traceFile, *rewrite, wopt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rewrote %s as %s (codec %s)\n", *traceFile, *rewrite, cm)
	}
	// Stream the trace from disk into column chunks: the event log never
	// materializes in memory, so arbitrarily large traces analyze fine.
	cfg := workloads.DefaultSpec().Storage
	opt := vani.DefaultAnalyzerOptions()
	opt.Storage = &cfg
	opt.Parallelism = *par
	opt.Filter = filter
	var timings vani.AnalyzerTimings
	opt.Stats = &timings
	c, err := vani.CharacterizeFileContext(context.Background(), *traceFile, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *verbose {
		s := timings.Scan
		// decode is the scan plan's segment decode, summed over its
		// workers: what of columnarize is decoding.
		fmt.Fprintf(os.Stderr, "stages: columnarize=%s analyze=%s (pass1=%s pass2=%s stitch=%s) decode=%s\n",
			timings.Columnarize, timings.Analyze, timings.Pass1, timings.Pass2, timings.Stitch,
			time.Duration(s.DecodeNanos))
		fmt.Fprintf(os.Stderr, "scan: blocks=%d pruned=%d rows=%d kept=%d payload=%dB decoded=%dB\n",
			s.BlocksTotal, s.BlocksPruned, s.RowsTotal, s.RowsKept, s.PayloadBytes, s.DecodedBytes)
		fmt.Fprintf(os.Stderr, "segs: raw=%d rle=%d dict=%d for=%d\n",
			s.SegRaw, s.SegRLE, s.SegDict, s.SegFOR)
	}

	if *tables {
		cols := []report.Named{{Name: c.Workload, C: c}}
		fmt.Println(report.AllTables(cols, 0))
	}
	if *figure {
		fmt.Println(report.Figure(c))
	}
	if *phases {
		fmt.Println(report.PhaseTable(c.Workload, c))
	}
	if *advise {
		recs := vani.Advise(c)
		if len(recs) == 0 {
			fmt.Println("no recommendations: the workload already matches the defaults")
		}
		for _, r := range recs {
			fmt.Printf("[%s] %s = %s\n    why: %s\n    from: %v\n",
				r.Area, r.Parameter, r.Value, r.Rationale, r.Attributes)
		}
	}
	if *yamlOut != "" {
		data := yamlenc.Marshal(c)
		if err := os.WriteFile(*yamlOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *yamlOut, len(data))
	}
}

// transcode re-encodes a trace under opt: the same events with or without
// the outer flate layer, or with one segment codec forced.
func transcode(in, out string, opt vani.TraceWriteOptions) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	tr, err := vani.ReadTrace(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", in, err)
	}
	o, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := vani.WriteTraceWith(o, tr, opt); err != nil {
		o.Close()
		return fmt.Errorf("writing %s: %w", out, err)
	}
	return o.Close()
}
