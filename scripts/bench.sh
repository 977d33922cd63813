#!/bin/sh
# bench.sh — run the analysis-pipeline and trace-codec benchmarks and emit
# a JSON record.
#
# Usage: scripts/bench.sh [out.json]
#
# Captures the sequential-vs-parallel analyzer and columnarizer benchmarks,
# the row-major-vs-columnar ablation, the trace encode/decode throughput
# benches, the scan-planner pushdown benches, the per-codec matrix (encoded
# size and full-column-scan decode MB/s for auto, auto+flate and every
# forced segment codec), the compressed-domain execution bench
# (filtered full characterization), the grouped execution bench (unfiltered
# full characterization), and the filtered grouped bench (filtered
# characterization over selection-backed chunks), with -benchmem so bytes/op
# and allocs/op land in the record.
# BENCH_PR1.json was captured at GOMAXPROCS=1, which hid
# every parallel speedup; this harness records GOMAXPROCS and refuses to
# publish a single-core record from a multi-core machine unless explicitly
# allowed with BENCH_ALLOW_SINGLE_CORE=1.
#
# After writing the record, the compressed-domain MB/s figure is compared
# against the committed BENCH_PR6.json baseline, the grouped-execution
# figure against BENCH_PR7.json, and the filtered grouped figure against
# BENCH_PR10.json; a loss of more than 15% on any of them fails the run.
# The frozen records also hold the kernels-off / grouped-off arms of the
# analyzer paths that no longer exist; each guard names the surviving arm
# as its -prefix, so those are not reported missing. Set
# BENCH_SKIP_REGRESSION=1 to record anyway.
set -eu

out="${1:-BENCH_PR10.json}"
cd "$(dirname "$0")/.."

ncpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
gomax="${GOMAXPROCS:-$ncpu}"
if [ "$ncpu" -gt 1 ] && [ "$gomax" -le 1 ] && [ "${BENCH_ALLOW_SINGLE_CORE:-0}" != "1" ]; then
    echo "bench.sh: GOMAXPROCS=$gomax on a $ncpu-core machine hides parallel speedups." >&2
    echo "bench.sh: unset GOMAXPROCS, or set BENCH_ALLOW_SINGLE_CORE=1 to record anyway." >&2
    exit 1
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp" "$tmp.cd"' EXIT

go test -run '^$' \
    -bench 'BenchmarkAnalyzerParallelism|BenchmarkColumnarize|BenchmarkAblation_ColumnarAnalysis|BenchmarkTraceCodec|BenchmarkTraceEncode|BenchmarkTraceDecodeToTable|BenchmarkScanPlanner|BenchmarkCodecMatrix' \
    -benchmem -benchtime 10x -timeout 30m . | tee "$tmp"

# The guarded benches need more iterations than the suite default (short
# runs fold one-time pool warmup into allocs/op) and several counts each: a
# single sample is at the mercy of whatever else the machine schedules
# while it runs. Publish the fastest sample of each — the allocation
# counts are deterministic and identical across samples.
go test -run '^$' \
    -bench 'BenchmarkCompressedDomain|BenchmarkGroupedAgg|BenchmarkGroupedFiltered' \
    -benchmem -benchtime 100x -count 3 -timeout 30m . \
  | tee "$tmp.cd"
awk '/^BenchmarkCompressedDomain|^BenchmarkGroupedAgg|^BenchmarkGroupedFiltered/ {
       if (!($1 in best) || $3+0 < best[$1]) { best[$1]=$3+0; line[$1]=$0 }
     }
     END { for (k in line) print line[k] }' "$tmp.cd" >> "$tmp"
rm -f "$tmp.cd"

go run ./scripts/benchjson "$tmp" > "$out"
echo "wrote $out"

if [ "${BENCH_SKIP_REGRESSION:-0}" != "1" ] && [ -f BENCH_PR6.json ] && [ "$out" != "BENCH_PR6.json" ]; then
    echo "== regression guard: BenchmarkCompressedDomain vs BENCH_PR6.json =="
    go run ./scripts/benchcmp -prefix BenchmarkCompressedDomain/kernels-on BENCH_PR6.json "$out"
fi
if [ "${BENCH_SKIP_REGRESSION:-0}" != "1" ] && [ -f BENCH_PR7.json ] && [ "$out" != "BENCH_PR7.json" ]; then
    echo "== regression guard: BenchmarkGroupedAgg vs BENCH_PR7.json =="
    go run ./scripts/benchcmp -prefix BenchmarkGroupedAgg/grouped-on BENCH_PR7.json "$out"
fi
if [ "${BENCH_SKIP_REGRESSION:-0}" != "1" ] && [ -f BENCH_PR10.json ] && [ "$out" != "BENCH_PR10.json" ]; then
    echo "== regression guard: BenchmarkGroupedFiltered vs BENCH_PR10.json =="
    go run ./scripts/benchcmp -prefix BenchmarkGroupedFiltered/grouped-on BENCH_PR10.json "$out"
fi
