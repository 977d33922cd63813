// Command replay re-executes a captured trace (from wrun) against
// candidate storage configurations and ranks them — the automated
// configuration search a workload-aware storage system runs once it has
// the characterization in hand.
//
//	wrun -w hacc -scale 0.1 -o hacc.trc
//	replay -t hacc.trc -sweep stripe          # stripe-size sweep
//	replay -t hacc.trc -sweep cache           # cache / read-ahead toggles
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vani"
	"vani/internal/cliutil"
	"vani/internal/replay"
	"vani/internal/storage"
)

func main() {
	traceFile := flag.String("t", "", "trace file to replay (required)")
	sweep := flag.String("sweep", "stripe", "candidate sweep: stripe or cache")
	think := flag.Bool("think", true, "preserve recorded think time between calls")
	convert := flag.String("convert", "", "rewrite the loaded (filtered) trace to this path before replaying")
	codec := flag.String("codec", "auto", "column codec for -convert: auto (cost model), raw, rle, dict or for")
	ff := cliutil.RegisterFilterFlags(nil)
	flag.Parse()

	if *traceFile == "" {
		fmt.Fprintln(os.Stderr, "usage: replay -t <trace> [-window from:to] [-ranks 0-63] [-levels posix] [-ops data] [-sweep stripe|cache] [-think=false] [-convert out.trc]")
		os.Exit(2)
	}
	filter, err := ff.Filter()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The filter applies to the loaded events, so -convert extracts the
	// selected slice (e.g. a time window) into a standalone trace file.
	tr, err := vani.ReadTraceFiltered(*traceFile, filter)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *convert != "" {
		cm, err := vani.ParseTraceCodec(*codec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		o, err := os.Create(*convert)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := vani.WriteTraceWith(o, tr, vani.TraceWriteOptions{Codec: cm}); err != nil {
			o.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := o.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "converted %s -> %s (codec %s)\n", *traceFile, *convert, cm)
	}

	base := storage.Lassen()
	var cands []replay.Candidate
	switch *sweep {
	case "stripe":
		cands = replay.StripeSweep(base,
			64*storage.KiB, 256*storage.KiB, storage.MiB, 4*storage.MiB, 16*storage.MiB)
	case "cache":
		cands = replay.CacheSweep(base)
	default:
		fmt.Fprintln(os.Stderr, "unknown sweep; use stripe or cache")
		os.Exit(2)
	}

	opt := replay.DefaultOptions()
	opt.PreserveThinkTime = *think
	results, err := vani.Tune(tr, cands, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("replayed %s (%d events) under %d candidates:\n",
		*traceFile, len(tr.Events), len(results))
	fmt.Printf("%-16s %-14s %-14s\n", "candidate", "runtime", "mean rank I/O")
	for i, r := range results {
		marker := "  "
		if i == 0 {
			marker = "->"
		}
		fmt.Printf("%s %-14s %-14s %-14s\n", marker, r.Candidate.Name,
			r.Runtime.Round(time.Millisecond), r.IOTime.Round(time.Millisecond))
	}
}
