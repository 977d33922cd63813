package server

// Expvar-style counters. Everything is a plain atomic so handler and worker
// goroutines update without locks; /metrics takes a point-in-time snapshot.
// The scan totals aggregate colstore.ScanCounters across every completed
// job, which makes pushdown effectiveness (blocks pruned, bytes decoded vs
// available) observable fleet-wide rather than per run.

import (
	"encoding/json"
	"sync/atomic"

	"vani/internal/colstore"
)

// Metrics holds the daemon's counters.
type Metrics struct {
	JobsQueued   atomic.Int64 // jobs accepted onto the queue
	JobsRunning  atomic.Int64 // gauge: jobs currently characterizing
	JobsDone     atomic.Int64 // jobs completed successfully
	JobsFailed   atomic.Int64 // jobs that errored or were canceled
	JobsRejected atomic.Int64 // uploads bounced with 429 (queue full)
	CacheHits    atomic.Int64 // report served without analyzer work
	CacheMisses  atomic.Int64 // upload that had to run the analyzer

	// What-if sweep jobs (POST /v1/sweep).
	SweepJobs      atomic.Int64 // sweep jobs accepted onto the queue
	SweepRuns      atomic.Int64 // grid points simulated across sweep jobs
	SweepCacheHits atomic.Int64 // sweep reports served from cache by spec hash

	// Scan-plan totals summed over completed jobs (core.Timings.Scan).
	ScanBlocksTotal  atomic.Int64
	ScanBlocksPruned atomic.Int64
	ScanRowsTotal    atomic.Int64
	ScanRowsKept     atomic.Int64
	ScanPayloadBytes atomic.Int64
	ScanDecodedBytes atomic.Int64
	ScanDecodeNanos  atomic.Int64 // lazy column decode inside the analyzer's passes, summed over workers

	// v2.2 column segments decoded, by codec (the served logs' codec mix).
	ScanSegRaw  atomic.Int64
	ScanSegRLE  atomic.Int64
	ScanSegDict atomic.Int64
	ScanSegFOR  atomic.Int64

	// Shared decoded-block cache: block handles served without a read or
	// decode, blocks read through the cache without a published handle,
	// the cache's current worst-case byte charge, and the bytes its
	// published blocks actually hold — payload plus memoized columns (both
	// gauges).
	BlockCacheHits      atomic.Int64
	BlockCacheMisses    atomic.Int64
	BlockCacheBytes     atomic.Int64
	BlockCacheMemoBytes atomic.Int64

	// Fleet queries, once per trace per query: summaries read from a cached
	// report vs traces the analyzer scanned.
	FleetTracesCached  atomic.Int64
	FleetTracesScanned atomic.Int64
}

// AddScan folds one job's scan counters into the totals.
func (m *Metrics) AddScan(sc colstore.ScanCounters) {
	m.ScanBlocksTotal.Add(sc.BlocksTotal)
	m.ScanBlocksPruned.Add(sc.BlocksPruned)
	m.ScanRowsTotal.Add(sc.RowsTotal)
	m.ScanRowsKept.Add(sc.RowsKept)
	m.ScanPayloadBytes.Add(sc.PayloadBytes)
	m.ScanDecodedBytes.Add(sc.DecodedBytes)
	m.ScanDecodeNanos.Add(sc.DecodeNanos)
	m.ScanSegRaw.Add(sc.SegRaw)
	m.ScanSegRLE.Add(sc.SegRLE)
	m.ScanSegDict.Add(sc.SegDict)
	m.ScanSegFOR.Add(sc.SegFOR)
}

// MetricsSnapshot is the JSON shape served by GET /metrics.
type MetricsSnapshot struct {
	JobsQueued   int64 `json:"jobs_queued"`
	JobsRunning  int64 `json:"jobs_running"`
	JobsDone     int64 `json:"jobs_done"`
	JobsFailed   int64 `json:"jobs_failed"`
	JobsRejected int64 `json:"jobs_rejected"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`

	SweepJobs      int64 `json:"sweep_jobs"`
	SweepRuns      int64 `json:"sweep_runs"`
	SweepCacheHits int64 `json:"sweep_cache_hits"`

	ScanBlocksTotal  int64 `json:"scan_blocks_total"`
	ScanBlocksPruned int64 `json:"scan_blocks_pruned"`
	ScanRowsTotal    int64 `json:"scan_rows_total"`
	ScanRowsKept     int64 `json:"scan_rows_kept"`
	ScanPayloadBytes int64 `json:"scan_payload_bytes"`
	ScanDecodedBytes int64 `json:"scan_decoded_bytes"`
	ScanDecodeNanos  int64 `json:"scan_decode_ns"`

	ScanSegRaw  int64 `json:"scan_segs_raw"`
	ScanSegRLE  int64 `json:"scan_segs_rle"`
	ScanSegDict int64 `json:"scan_segs_dict"`
	ScanSegFOR  int64 `json:"scan_segs_for"`

	BlockCacheHits      int64 `json:"block_cache_hits"`
	BlockCacheMisses    int64 `json:"block_cache_misses"`
	BlockCacheBytes     int64 `json:"block_cache_bytes"`
	BlockCacheMemoBytes int64 `json:"block_cache_memo_bytes"`

	FleetTracesCached  int64 `json:"fleet_traces_cached"`
	FleetTracesScanned int64 `json:"fleet_traces_scanned"`

	// Trace-repository gauges (zero when vanid runs without -data-dir).
	// Snapshot cannot read them from atomics — they are filesystem state —
	// so handleMetrics fills them from repo.Stats at serve time.
	RepoShards      int64 `json:"repo_shards"`
	RepoFiles       int64 `json:"repo_files"`
	RepoCompactions int64 `json:"repo_compactions"`
	RepoBytes       int64 `json:"repo_bytes"`
}

// Snapshot reads every counter.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		JobsQueued:   m.JobsQueued.Load(),
		JobsRunning:  m.JobsRunning.Load(),
		JobsDone:     m.JobsDone.Load(),
		JobsFailed:   m.JobsFailed.Load(),
		JobsRejected: m.JobsRejected.Load(),
		CacheHits:    m.CacheHits.Load(),
		CacheMisses:  m.CacheMisses.Load(),

		SweepJobs:      m.SweepJobs.Load(),
		SweepRuns:      m.SweepRuns.Load(),
		SweepCacheHits: m.SweepCacheHits.Load(),

		ScanBlocksTotal:  m.ScanBlocksTotal.Load(),
		ScanBlocksPruned: m.ScanBlocksPruned.Load(),
		ScanRowsTotal:    m.ScanRowsTotal.Load(),
		ScanRowsKept:     m.ScanRowsKept.Load(),
		ScanPayloadBytes: m.ScanPayloadBytes.Load(),
		ScanDecodedBytes: m.ScanDecodedBytes.Load(),
		ScanDecodeNanos:  m.ScanDecodeNanos.Load(),

		ScanSegRaw:  m.ScanSegRaw.Load(),
		ScanSegRLE:  m.ScanSegRLE.Load(),
		ScanSegDict: m.ScanSegDict.Load(),
		ScanSegFOR:  m.ScanSegFOR.Load(),

		BlockCacheHits:      m.BlockCacheHits.Load(),
		BlockCacheMisses:    m.BlockCacheMisses.Load(),
		BlockCacheBytes:     m.BlockCacheBytes.Load(),
		BlockCacheMemoBytes: m.BlockCacheMemoBytes.Load(),

		FleetTracesCached:  m.FleetTracesCached.Load(),
		FleetTracesScanned: m.FleetTracesScanned.Load(),
	}
}

// MarshalJSON serves the snapshot, so a *Metrics can be encoded directly.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Snapshot())
}
