package main

// `vani sweep` runs a what-if sweep document locally: the workload (an
// inline declarative spec or a catalog name) crossed with a
// parameter grid, every point simulated and characterized, the outcomes
// reduced to a comparative report. The same engine backs vanid's
// POST /v1/sweep, so the YAML here is byte-identical to the service's.
//
//	vani sweep -f examples/sweep-casestudy/casestudy.yaml -yaml report.yaml

import (
	"flag"
	"fmt"
	"os"

	"vani"
	"vani/internal/report"
)

func sweepMain(args []string) {
	fs := flag.NewFlagSet("vani sweep", flag.ExitOnError)
	file := fs.String("f", "", "sweep document (YAML or JSON) (required)")
	par := fs.Int("par", 0, "concurrent grid points (0 = min(GOMAXPROCS, 4))")
	tables := fs.Bool("tables", true, "render the point table and winner")
	progress := fs.Bool("progress", false, "print per-point progress to stderr")
	yamlOut := fs.String("yaml", "", "write the sweep report as YAML to this file (\"-\" for stdout)")
	fs.Parse(args) //nolint:errcheck // ExitOnError never returns an error

	if *file == "" {
		fmt.Fprintln(os.Stderr, "usage: vani sweep -f <sweep.yaml> [-par n] [-progress] [-yaml out.yaml]")
		os.Exit(2)
	}
	sw, err := vani.ParseSweepFile(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := vani.SweepOptions{Parallelism: *par}
	if *progress {
		opt.OnPoint = func(done, total int) {
			fmt.Fprintf(os.Stderr, "sweep %s: point %d/%d done\n", sw.Name, done, total)
		}
	}
	rep, err := sw.Run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *tables {
		fmt.Println(report.SweepTable(rep))
	}
	switch *yamlOut {
	case "":
	case "-":
		os.Stdout.Write(vani.SweepToYAML(rep)) //nolint:errcheck
	default:
		data := vani.SweepToYAML(rep)
		if err := os.WriteFile(*yamlOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *yamlOut, len(data))
	}
}
