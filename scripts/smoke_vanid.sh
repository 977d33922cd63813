#!/usr/bin/env bash
# End-to-end smoke test for vanid: generate a trace, serve it through the
# daemon, and assert the HTTP report is byte-identical to the CLI's YAML
# for the same trace and filter spec. Exercises upload, job polling, report
# fetch, the cache-hit path, and metrics.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
VANID_PID=""
cleanup() {
  [ -n "$VANID_PID" ] && kill "$VANID_PID" 2>/dev/null || true
  [ -n "$VANID_PID" ] && wait "$VANID_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

cd "$ROOT"
echo "== building =="
go build -o "$WORK/wrun" ./cmd/wrun
go build -o "$WORK/vani" ./cmd/vani
go build -o "$WORK/vanid" ./cmd/vanid

echo "== generating quickstart trace (hacc, 8 nodes, 0.1 scale) =="
"$WORK/wrun" -w hacc -nodes 8 -scale 0.1 -o "$WORK/trace.trc" >/dev/null

FILTER_WINDOW="1s:30s"
FILTER_RANKS="0-15"

echo "== CLI reference report =="
"$WORK/vani" -t "$WORK/trace.trc" -window "$FILTER_WINDOW" -ranks "$FILTER_RANKS" \
  -yaml "$WORK/cli.yaml" -v >/dev/null 2>"$WORK/cli_verbose.txt"
grep -q 'groups: served=[0-9]* fallback=[0-9]*$' "$WORK/cli_verbose.txt" || {
  echo "FAIL: vani -v groups line missing or malformed"
  cat "$WORK/cli_verbose.txt"; exit 1
}

echo "== starting vanid =="
"$WORK/vanid" -addr 127.0.0.1:0 -addr-file "$WORK/addr" -workers 2 \
  -spool-dir "$WORK/spool" &
VANID_PID=$!

for i in $(seq 1 100); do
  [ -s "$WORK/addr" ] && break
  kill -0 "$VANID_PID" 2>/dev/null || { echo "vanid died during startup"; exit 1; }
  sleep 0.1
done
ADDR="$(cat "$WORK/addr" | tr -d '[:space:]')"
BASE="http://$ADDR"

for i in $(seq 1 50); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null

echo "== uploading trace =="
UPLOAD="$(curl -fsS --data-binary @"$WORK/trace.trc" \
  "$BASE/v1/traces?window=$FILTER_WINDOW&ranks=$FILTER_RANKS")"
echo "$UPLOAD"
JOB_ID="$(printf '%s' "$UPLOAD" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
REPORT_ID="$(printf '%s' "$UPLOAD" | sed -n 's/.*"report_id": *"\([^"]*\)".*/\1/p')"
[ -n "$JOB_ID" ] || { echo "no job id in upload response"; exit 1; }
[ -n "$REPORT_ID" ] || { echo "no report id in upload response"; exit 1; }

echo "== polling job $JOB_ID =="
STATUS=""
for i in $(seq 1 200); do
  JOB="$(curl -fsS "$BASE/v1/jobs/$JOB_ID")"
  STATUS="$(printf '%s' "$JOB" | sed -n 's/.*"status": *"\([^"]*\)".*/\1/p')"
  case "$STATUS" in
    done) break ;;
    failed) echo "job failed: $JOB"; exit 1 ;;
  esac
  sleep 0.1
done
[ "$STATUS" = "done" ] || { echo "job did not finish: $STATUS"; exit 1; }

echo "== fetching report $REPORT_ID =="
curl -fsS "$BASE/v1/reports/$REPORT_ID" -o "$WORK/http.yaml"

echo "== diffing HTTP report vs CLI output =="
cmp "$WORK/cli.yaml" "$WORK/http.yaml" || {
  echo "FAIL: served report differs from CLI output"
  diff "$WORK/cli.yaml" "$WORK/http.yaml" | head -20
  exit 1
}
echo "reports are byte-identical"

echo "== re-uploading (must be a cache hit) =="
SECOND="$(curl -fsS --data-binary @"$WORK/trace.trc" \
  "$BASE/v1/traces?window=$FILTER_WINDOW&ranks=$FILTER_RANKS")"
printf '%s' "$SECOND" | grep -q '"status": *"done"' || {
  echo "FAIL: second upload was not served from cache: $SECOND"; exit 1
}
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS"
HITS="$(printf '%s' "$METRICS" | sed -n 's/.*"cache_hits": *\([0-9]*\).*/\1/p')"
[ "${HITS:-0}" -ge 1 ] || { echo "FAIL: no cache hit recorded"; exit 1; }

echo "== re-querying with a different filter (shared block cache, zero re-decodes) =="
# A different filter misses the result cache, so the trace characterizes
# again — but every block must come decoded out of the shared block cache:
# block_cache_hits rises and scan_decoded_bytes does not move.
DECODED_BEFORE="$(printf '%s' "$METRICS" | sed -n 's/.*"scan_decoded_bytes": *\([0-9]*\).*/\1/p')"
THIRD="$(curl -fsS --data-binary @"$WORK/trace.trc" \
  "$BASE/v1/traces?window=$FILTER_WINDOW&ranks=0-7")"
JOB3="$(printf '%s' "$THIRD" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
[ -n "$JOB3" ] || { echo "no job id in third upload response"; exit 1; }
STATUS=""
for i in $(seq 1 200); do
  JOB="$(curl -fsS "$BASE/v1/jobs/$JOB3")"
  STATUS="$(printf '%s' "$JOB" | sed -n 's/.*"status": *"\([^"]*\)".*/\1/p')"
  case "$STATUS" in
    done) break ;;
    failed) echo "job failed: $JOB"; exit 1 ;;
  esac
  sleep 0.1
done
[ "$STATUS" = "done" ] || { echo "third job did not finish: $STATUS"; exit 1; }
METRICS2="$(curl -fsS "$BASE/metrics")"
echo "$METRICS2"
BLOCK_HITS="$(printf '%s' "$METRICS2" | sed -n 's/.*"block_cache_hits": *\([0-9]*\).*/\1/p')"
DECODED_AFTER="$(printf '%s' "$METRICS2" | sed -n 's/.*"scan_decoded_bytes": *\([0-9]*\).*/\1/p')"
[ "${BLOCK_HITS:-0}" -ge 1 ] || { echo "FAIL: no block cache hit recorded"; exit 1; }
[ "${DECODED_AFTER:-0}" -eq "${DECODED_BEFORE:-1}" ] || {
  echo "FAIL: repeated query re-decoded blocks ($DECODED_BEFORE -> $DECODED_AFTER)"; exit 1
}
echo "block cache served the repeated query without decoding"

echo "== pprof must be absent (daemon started without -pprof) =="
PPROF_CODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/pprof/")"
[ "$PPROF_CODE" = "404" ] || {
  echo "FAIL: /debug/pprof/ answered $PPROF_CODE without -pprof"; exit 1
}
echo "pprof endpoints are absent without -pprof"

echo "== what-if sweep: 2-point grid through the service vs the CLI =="
cat > "$WORK/sweep.yaml" <<'SWEEP'
version: 1
name: smoke-sweep
base:
  nodes: 2
  ranks_per_node: 2
  scale: 0.01
  seed: 1
grid:
  - param: staging
    values:
      - pfs
      - node-local
workload: cosmoflow
SWEEP
SWEEP_RESP="$(curl -fsS --data-binary @"$WORK/sweep.yaml" "$BASE/v1/sweep")"
echo "$SWEEP_RESP"
SWEEP_JOB="$(printf '%s' "$SWEEP_RESP" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
SWEEP_REPORT="$(printf '%s' "$SWEEP_RESP" | sed -n 's/.*"report_id": *"\([^"]*\)".*/\1/p')"
[ -n "$SWEEP_JOB" ] || { echo "no job id in sweep response"; exit 1; }
STATUS=""
for i in $(seq 1 200); do
  JOB="$(curl -fsS "$BASE/v1/jobs/$SWEEP_JOB")"
  STATUS="$(printf '%s' "$JOB" | sed -n 's/.*"status": *"\([^"]*\)".*/\1/p')"
  case "$STATUS" in
    done) break ;;
    failed) echo "sweep job failed: $JOB"; exit 1 ;;
  esac
  sleep 0.1
done
[ "$STATUS" = "done" ] || { echo "sweep job did not finish: $STATUS"; exit 1; }
curl -fsS "$BASE/v1/reports/$SWEEP_REPORT" -o "$WORK/sweep_http.yaml"
"$WORK/vani" sweep -f "$WORK/sweep.yaml" -tables=false -yaml "$WORK/sweep_cli.yaml" >/dev/null
cmp "$WORK/sweep_cli.yaml" "$WORK/sweep_http.yaml" || {
  echo "FAIL: served sweep report differs from vani sweep output"
  diff "$WORK/sweep_cli.yaml" "$WORK/sweep_http.yaml" | head -20
  exit 1
}
echo "sweep reports are byte-identical"
SWEEP_METRICS="$(curl -fsS "$BASE/metrics")"
SWEEP_JOBS="$(printf '%s' "$SWEEP_METRICS" | sed -n 's/.*"sweep_jobs": *\([0-9]*\).*/\1/p')"
SWEEP_RUNS="$(printf '%s' "$SWEEP_METRICS" | sed -n 's/.*"sweep_runs": *\([0-9]*\).*/\1/p')"
[ "${SWEEP_JOBS:-0}" -eq 1 ] || { echo "FAIL: sweep_jobs=$SWEEP_JOBS, want 1"; exit 1; }
[ "${SWEEP_RUNS:-0}" -eq 2 ] || { echo "FAIL: sweep_runs=$SWEEP_RUNS, want 2"; exit 1; }
SWEEP_SECOND="$(curl -fsS --data-binary @"$WORK/sweep.yaml" "$BASE/v1/sweep")"
printf '%s' "$SWEEP_SECOND" | grep -q '"status": *"done"' || {
  echo "FAIL: resubmitted sweep was not served from cache: $SWEEP_SECOND"; exit 1
}
SWEEP_HITS="$(curl -fsS "$BASE/metrics" | sed -n 's/.*"sweep_cache_hits": *\([0-9]*\).*/\1/p')"
[ "${SWEEP_HITS:-0}" -ge 1 ] || { echo "FAIL: no sweep cache hit recorded"; exit 1; }
echo "resubmitted sweep served from cache"

echo "== graceful shutdown =="
kill -TERM "$VANID_PID"
wait "$VANID_PID"
VANID_PID=""

# ---------------------------------------------------------------------------
# Repository smoke: boot with -data-dir, store a small fleet, restart, force
# compaction — the fleet YAML must be byte-identical at every point, the
# compactor must measurably shrink the repo, and the read-only CLI must
# reproduce the service's answer.
# ---------------------------------------------------------------------------

poll_job() { # poll_job <base> <job-id>
  local st=""
  for i in $(seq 1 200); do
    st="$(curl -fsS "$1/v1/jobs/$2" | sed -n 's/.*"status": *"\([^"]*\)".*/\1/p')"
    case "$st" in
      done) return 0 ;;
      failed) echo "job $2 failed"; return 1 ;;
    esac
    sleep 0.1
  done
  echo "job $2 did not finish: $st"; return 1
}

repo_gauge() { # repo_gauge <metrics-json> <name>
  printf '%s' "$1" | sed -n "s/.*\"$2\": *\([0-9]*\).*/\1/p"
}

echo "== generating two more hacc traces for the fleet =="
"$WORK/wrun" -w hacc -nodes 4 -scale 0.1 -o "$WORK/trace2.trc" >/dev/null
"$WORK/wrun" -w hacc -nodes 2 -scale 0.1 -o "$WORK/trace3.trc" >/dev/null

echo "== starting vanid with a persistent repository =="
rm -f "$WORK/addr"
"$WORK/vanid" -addr 127.0.0.1:0 -addr-file "$WORK/addr" -workers 2 \
  -data-dir "$WORK/repo" &
VANID_PID=$!
for i in $(seq 1 100); do
  [ -s "$WORK/addr" ] && break
  kill -0 "$VANID_PID" 2>/dev/null || { echo "vanid died during startup"; exit 1; }
  sleep 0.1
done
BASE="http://$(cat "$WORK/addr" | tr -d '[:space:]')"
for i in $(seq 1 50); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

echo "== uploading the three-trace fleet =="
for trc in trace trace2 trace3; do
  RESP="$(curl -fsS --data-binary @"$WORK/$trc.trc" "$BASE/v1/traces")"
  JID="$(printf '%s' "$RESP" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
  [ -n "$JID" ] || { echo "no job id uploading $trc"; exit 1; }
  poll_job "$BASE" "$JID"
done

METRICS_REPO="$(curl -fsS "$BASE/metrics")"
REPO_FILES="$(repo_gauge "$METRICS_REPO" repo_files)"
REPO_SHARDS="$(repo_gauge "$METRICS_REPO" repo_shards)"
REPO_BYTES_LOOSE="$(repo_gauge "$METRICS_REPO" repo_bytes)"
[ "${REPO_FILES:-0}" -eq 3 ] || { echo "FAIL: repo_files=$REPO_FILES, want 3"; exit 1; }
[ "${REPO_SHARDS:-0}" -ge 1 ] || { echo "FAIL: repo_shards=$REPO_SHARDS, want >= 1"; exit 1; }

echo "== fleet query (pre-restart) =="
curl -fsS "$BASE/fleet/query?workload=hacc" -o "$WORK/fleet1.yaml"
[ -s "$WORK/fleet1.yaml" ] || { echo "FAIL: empty fleet report"; exit 1; }

echo "== restarting vanid on the same data dir =="
kill -TERM "$VANID_PID"; wait "$VANID_PID"; VANID_PID=""
rm -f "$WORK/addr"
"$WORK/vanid" -addr 127.0.0.1:0 -addr-file "$WORK/addr" -workers 2 \
  -data-dir "$WORK/repo" &
VANID_PID=$!
for i in $(seq 1 100); do
  [ -s "$WORK/addr" ] && break
  kill -0 "$VANID_PID" 2>/dev/null || { echo "vanid died on restart"; exit 1; }
  sleep 0.1
done
BASE="http://$(cat "$WORK/addr" | tr -d '[:space:]')"
for i in $(seq 1 50); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

curl -fsS "$BASE/fleet/query?workload=hacc" -o "$WORK/fleet2.yaml"
cmp "$WORK/fleet1.yaml" "$WORK/fleet2.yaml" || {
  echo "FAIL: restart changed the fleet report"
  diff "$WORK/fleet1.yaml" "$WORK/fleet2.yaml" | head -20
  exit 1
}
echo "fleet report survived the restart byte-identically"

echo "== forcing compaction =="
curl -fsS -X POST "$BASE/v1/compact"
METRICS_PACKED="$(curl -fsS "$BASE/metrics")"
COMPACTIONS="$(repo_gauge "$METRICS_PACKED" repo_compactions)"
REPO_BYTES_PACKED="$(repo_gauge "$METRICS_PACKED" repo_bytes)"
[ "${COMPACTIONS:-0}" -ge 1 ] || { echo "FAIL: repo_compactions=$COMPACTIONS, want >= 1"; exit 1; }
[ "${REPO_BYTES_PACKED:-0}" -lt "${REPO_BYTES_LOOSE:-0}" ] || {
  echo "FAIL: compaction did not shrink the repo ($REPO_BYTES_LOOSE -> $REPO_BYTES_PACKED bytes)"; exit 1
}
echo "compaction shrank the repo: $REPO_BYTES_LOOSE -> $REPO_BYTES_PACKED bytes"

curl -fsS "$BASE/fleet/query?workload=hacc" -o "$WORK/fleet3.yaml"
cmp "$WORK/fleet1.yaml" "$WORK/fleet3.yaml" || {
  echo "FAIL: compaction changed the fleet report"
  diff "$WORK/fleet1.yaml" "$WORK/fleet3.yaml" | head -20
  exit 1
}
echo "fleet report unchanged across compaction"

echo "== read-only CLI fleet query against the live data dir =="
"$WORK/vani" fleet -repo "$WORK/repo" -workload hacc -tables=false \
  -yaml "$WORK/fleet_cli.yaml" >/dev/null
cmp "$WORK/fleet1.yaml" "$WORK/fleet_cli.yaml" || {
  echo "FAIL: vani fleet differs from the served report"
  diff "$WORK/fleet1.yaml" "$WORK/fleet_cli.yaml" | head -20
  exit 1
}
echo "vani fleet matches the service byte-for-byte"

kill -TERM "$VANID_PID"
wait "$VANID_PID"
VANID_PID=""
echo "SMOKE OK"
