// Command benchjson converts `go test -bench` output into the JSON bench
// record scripts/bench.sh publishes (BENCH_PR2.json): one entry per
// benchmark with ns/op and any extra metric pairs the bench emits (MB/s
// from SetBytes, B/op and allocs/op from -benchmem, custom ReportMetric
// units), plus environment fields (GOMAXPROCS, CPU count, go version) and
// the derived analyzer and codec speedups.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type result struct {
	Name string  `json:"name"`
	N    int64   `json:"iterations"`
	NsOp float64 `json:"ns_per_op"`
	// Standard throughput/allocation metrics, present when the bench
	// calls SetBytes / runs under -benchmem.
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds any other ReportMetric units (events/op, speedup, ...).
	Extra map[string]float64 `json:"extra,omitempty"`
}

type record struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Note       string   `json:"note"`
	Results    []result `json:"results"`
	// AnalyzerSpeedup is par=1-ns/par=max-ns of BenchmarkAnalyzerParallelism,
	// summed over its workloads —
	// PR1's headline number. Meaningful only when gomaxprocs > 1.
	AnalyzerSpeedup float64 `json:"analyzer_speedup_seq_over_par"`
	// PrunedScanSpeedup is full-ns/window25-pruned-ns of
	// BenchmarkScanPlanner — the scan-planner headline number: how much
	// faster a 25% time window characterizes when the predicate pushes down
	// to the footer index than materializing the whole log. Both cases
	// report MB/s over the same encoded bytes.
	PrunedScanSpeedup float64 `json:"pruned_scan_speedup_full_over_window25,omitempty"`
	// ProjectedScanSpeedup extends the pruned scan with a declared
	// two-column projection (window25-projected), skipping the other nine
	// column decodes entirely.
	ProjectedScanSpeedup float64 `json:"projected_scan_speedup_full_over_window25,omitempty"`
	// CompressedDomainSpeedup is kernels-off-ns/kernels-on-ns of
	// BenchmarkCompressedDomain — the compressed-domain execution headline:
	// the same filtered full characterization with the kernel registry
	// serving the predicate from encoded segments vs the materialized row
	// path. The bench also records the allocs/op of both arms; the
	// compressed path must win both.
	CompressedDomainSpeedup float64 `json:"compressed_domain_speedup_off_over_on,omitempty"`
	// GroupedAggSpeedup is grouped-off-ns/grouped-on-ns of
	// BenchmarkGroupedAgg — the grouped-execution headline: the full
	// unfiltered characterization with aggregation running on dictionary
	// codes and key-column runs vs the same analyzer with the grouped path
	// disabled. Outputs are byte-identical; the grouped arm must also hold
	// allocs/op at or below the off arm.
	GroupedAggSpeedup float64 `json:"grouped_agg_speedup_off_over_on,omitempty"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson <go-test-bench-output-file>")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	rec := record{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "speedups are wall-clock ratios of paths with bit-identical outputs; " +
			"on a single-core runner (gomaxprocs=1) parallel paths degenerate to " +
			"sequential, so analyzer_speedup stays ~1 by design.",
	}
	var seqNs, parNs, fullNs, prunedNs, projNs float64
	var kernelsOnNs, kernelsOffNs float64
	var groupedOnNs, groupedOffNs float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark lines: name iterations ns/op "ns/op" [value unit]...
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
			continue
		}
		n, err1 := strconv.ParseInt(fields[1], 10, 64)
		ns, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		r := result{Name: fields[0], N: n, NsOp: ns}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "MB/s":
				r.MBPerSec = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[fields[i+1]] = v
			}
		}
		rec.Results = append(rec.Results, r)
		switch {
		case strings.HasPrefix(r.Name, "BenchmarkAnalyzerParallelism/") && strings.Contains(r.Name, "/par=1"):
			seqNs += ns // summed over the bench's workloads
		case strings.HasPrefix(r.Name, "BenchmarkAnalyzerParallelism/") && strings.Contains(r.Name, "/par=max"):
			parNs += ns
		case strings.HasPrefix(r.Name, "BenchmarkScanPlanner/full"):
			fullNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkScanPlanner/window25-pruned"):
			prunedNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkScanPlanner/window25-projected"):
			projNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkCompressedDomain/kernels-on"):
			kernelsOnNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkCompressedDomain/kernels-off"):
			kernelsOffNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkGroupedAgg/grouped-on"):
			groupedOnNs = ns
		case strings.HasPrefix(r.Name, "BenchmarkGroupedAgg/grouped-off"):
			groupedOffNs = ns
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if seqNs > 0 && parNs > 0 {
		rec.AnalyzerSpeedup = seqNs / parNs
	}
	if fullNs > 0 && prunedNs > 0 {
		rec.PrunedScanSpeedup = fullNs / prunedNs
	}
	if fullNs > 0 && projNs > 0 {
		rec.ProjectedScanSpeedup = fullNs / projNs
	}
	if kernelsOnNs > 0 && kernelsOffNs > 0 {
		rec.CompressedDomainSpeedup = kernelsOffNs / kernelsOnNs
	}
	if groupedOnNs > 0 && groupedOffNs > 0 {
		rec.GroupedAggSpeedup = groupedOffNs / groupedOnNs
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
