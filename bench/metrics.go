package main

import (
	"time"

	"s4/internal/types"
)

// metricDef is one row of BENCHMARK.json. bench_test.go holds the file
// to this table.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the client-observed metrics, measured with tracing off.
// Every workload reports every one of them (the contract asks for that),
// so each is defined for all four stacks; the per-op-type latencies the
// issue listed are per-layer client.* metrics instead. The timed ones
// are reported at a quiet machine's speed (calibrate.go) and carry the
// widest bound the contract allows: their run-to-run spread on this
// sandbox is 3-9 % (README.md), and a bound is to be three times the
// spread.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"typical_op_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"device_bytes_per_op", "B", "lower", 0.06},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics of single layers, from the traced run. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// client (harness)
	{Name: "client.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.histread_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.create_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.remove_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.sync_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.histread_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.max_us", Unit: "us", Better: "lower"},
	{Name: "client.stall_s", Unit: "s", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	// s4rpc: client.op minus its s4rpc.backend child
	{Name: "s4rpc.read_self_us", Unit: "us", Better: "lower"},
	{Name: "s4rpc.write_self_us", Unit: "us", Better: "lower"},
	{Name: "s4rpc.sync_self_us", Unit: "us", Better: "lower"},
	{Name: "s4rpc.histread_self_us", Unit: "us", Better: "lower"},
	{Name: "s4rpc.self_share", Unit: "ratio", Better: "lower"},
	{Name: "s4rpc.req_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "s4rpc.resp_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "s4rpc.wire_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "s4rpc.handshake_bytes", Unit: "B", Better: "lower"},
	{Name: "s4rpc.retries", Unit: "count", Better: "lower"},
	{Name: "s4rpc.reconnects", Unit: "count", Better: "lower"},
	{Name: "s4rpc.busy_waits", Unit: "count", Better: "lower"},
	{Name: "s4rpc.throttle_waits", Unit: "count", Better: "lower"},
	// core: spans around s4rpc.Backend / s4fs.Backend methods, Stats deltas
	{Name: "core.read_us", Unit: "us", Better: "lower"},
	{Name: "core.write_us", Unit: "us", Better: "lower"},
	{Name: "core.sync_us", Unit: "us", Better: "lower"},
	{Name: "core.histread_us", Unit: "us", Better: "lower"},
	{Name: "core.self_share", Unit: "ratio", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.recon_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.walk_entries_per_histread", Unit: "count", Better: "lower"},
	{Name: "core.landmark_hits_per_histread", Unit: "count", Better: "higher"},
	{Name: "core.commit_batches_per_sync", Unit: "ratio", Better: "lower"},
	{Name: "core.syncs_coalesced", Unit: "count", Better: "higher"},
	{Name: "core.versions_per_op", Unit: "ratio", Better: "lower"},
	{Name: "core.audit_records_per_op", Unit: "ratio", Better: "lower"},
	{Name: "core.delta_blocks_per_write", Unit: "ratio", Better: "lower"},
	{Name: "core.delta_saved_bytes_per_write", Unit: "B", Better: "higher"},
	{Name: "core.keyframes_per_write", Unit: "ratio", Better: "lower"},
	{Name: "core.throttle_delay_s", Unit: "s", Better: "lower"},
	{Name: "core.hist_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	// core cleaner: spans around the harness's CleanOnce calls
	{Name: "core.cleaner_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.cleaner_share", Unit: "ratio", Better: "lower"},
	{Name: "core.cleaner_runs", Unit: "count", Better: "lower"},
	{Name: "core.cleaner_max_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cleaner_blocks_copied", Unit: "count", Better: "lower"},
	{Name: "core.cleaner_segments_freed", Unit: "count", Better: "higher"},
	{Name: "seglog.free_segments_end", Unit: "count", Better: "higher"},
	// core recovery (restart_deep)
	{Name: "core.open_replay_entries", Unit: "count", Better: "lower"},
	{Name: "core.open_index_loads", Unit: "count", Better: "higher"},
	{Name: "core.open_index_fallbacks", Unit: "count", Better: "lower"},
	{Name: "core.open_truncations", Unit: "count", Better: "lower"},
	{Name: "core.open_self_ms", Unit: "ms", Better: "lower"},
	// seglog: Stats deltas per op
	{Name: "seglog.appends_per_op", Unit: "ratio", Better: "lower"},
	{Name: "seglog.forces_per_op", Unit: "ratio", Better: "lower"},
	{Name: "seglog.vec_appends_per_op", Unit: "ratio", Better: "higher"},
	{Name: "seglog.flush_stalls", Unit: "count", Better: "lower"},
	{Name: "seglog.device_reads_per_op", Unit: "ratio", Better: "lower"},
	{Name: "seglog.vec_reads_per_op", Unit: "ratio", Better: "higher"},
	// disk: the benchmark's disk.Device wrapper
	{Name: "disk.writes_per_op", Unit: "ratio", Better: "lower"},
	{Name: "disk.write_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "disk.reads_per_op", Unit: "ratio", Better: "lower"},
	{Name: "disk.read_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "disk.write_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "disk.io_s", Unit: "s", Better: "lower"},
	{Name: "disk.share", Unit: "ratio", Better: "lower"},
	{Name: "disk.open_reads", Unit: "count", Better: "lower"},
	{Name: "disk.open_read_bytes", Unit: "B", Better: "lower"},
	{Name: "disk.open_io_ms", Unit: "ms", Better: "lower"},
	// s4fs and nfsv2 (nfs_postmark)
	{Name: "s4fs.op_us", Unit: "us", Better: "lower"},
	{Name: "s4fs.self_share", Unit: "ratio", Better: "lower"},
	{Name: "s4fs.backend_calls_per_op", Unit: "ratio", Better: "lower"},
	{Name: "s4fs.syncs_per_op", Unit: "ratio", Better: "lower"},
	{Name: "nfsv2.self_us", Unit: "us", Better: "lower"},
	{Name: "nfsv2.self_share", Unit: "ratio", Better: "lower"},
	// codec kernels, timed by direct calls (rpc_churn_history)
	{Name: "delta.encode_us_per_block", Unit: "us", Better: "lower"},
	{Name: "delta.apply_us_per_block", Unit: "us", Better: "lower"},
	{Name: "delta.bytes_per_block", Unit: "B", Better: "lower"},
	{Name: "journal.encode_sector_us", Unit: "us", Better: "lower"},
	{Name: "journal.decode_sector_us", Unit: "us", Better: "lower"},
	{Name: "audit.encode_block_us", Unit: "us", Better: "lower"},
	// tracing itself
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// outcome is everything one run produced.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	firstErr  error
	invalid   string     // why the numbers must not be used, if they must not
	spans     *spanStats // nil unless the run was traced
	tr        *tracer
	ops       int64 // measured ops, all clients
	// The timed metrics of each untraced slice, in order, and every slice's
	// slowdown.
	sliceOps, sliceTypical, sliceCPU, sliceSlow []float64
}

// typicalOp is the op-mix-weighted sum of each op type's median latency.
// Unlike the median of the mixture it moves when any op type does, in
// proportion to that type's share of the ops, and unlike the mean it
// ignores the scheduler's tail.
func typicalOp(byKind *[nKinds][]float64) float64 {
	var ops, typical float64
	for _, v := range byKind {
		ops += float64(len(v))
	}
	for _, v := range byKind {
		if len(v) > 0 {
			typical += median(v) * float64(len(v)) / ops
		}
	}
	return typical
}

// sliceMetrics computes ops/s, typical op latency and CPU per op of each
// slice of a phase, at a quiet machine's speed. traced selects the slices
// recorded with spans or without. A stub of a slice at the end of a phase
// is left out.
func sliceMetrics(p *phase, traced bool) (opsPerS, typical, cpuPerOp []float64) {
	lat := make([][nKinds][]float64, len(p.slices))
	for _, r := range p.recs {
		for k := range r.lat {
			for i, x := range r.lat[k] {
				if sl := int(r.sl[k][i]); sl < len(lat) {
					lat[sl][k] = append(lat[sl][k], x)
				}
			}
		}
	}
	for i, sl := range p.slices {
		if sl.traced != traced || sl.ops == 0 || (sl.dur < sliceLen/2 && len(p.slices) > 1) {
			continue
		}
		opsPerS = append(opsPerS, float64(sl.ops)/sl.dur.Seconds()*sl.slow)
		typical = append(typical, typicalOp(&lat[i])/sl.slow)
		cpuPerOp = append(cpuPerOp, float64(sl.cpu.Microseconds())/float64(sl.ops)/sl.slow)
	}
	return
}

// latencyMetrics fills the client.* metrics from every sample of a run.
func latencyMetrics(m map[string]float64, recs []*recorder) {
	var byKind [nKinds][]float64
	var ops int
	var maxUS, stallUS float64
	for _, r := range recs {
		for k := range r.lat {
			byKind[k] = append(byKind[k], r.lat[k]...)
			ops += len(r.lat[k])
		}
	}
	for k, v := range byKind {
		if len(v) == 0 {
			continue
		}
		p50 := median(v)
		name := "client." + kindNames[k]
		if opKind(k) == kOpen {
			m[name+"_p50_ms"] = p50 / 1e3
		} else {
			m[name+"_p50_us"] = p50
			m[name+"_p99_us"] = quantile(v, 0.99)
		}
		for _, x := range v {
			maxUS = max(maxUS, x)
			if x > 10*p50 {
				stallUS += x - 10*p50
			}
		}
	}
	m["client.max_us"], m["client.stall_s"] = maxUS, stallUS/1e6
	m["client.samples"] = float64(ops)
}

// requestPathOutcome turns a measured phase of an rpc or nfs workload
// into metrics: the end-to-end ones, and every per-layer one that comes
// from counters the wrappers and Drive.GetStats keep whether or not
// spans were recorded. The callers add what only their stack has.
func requestPathOutcome(e *env, p *phase, setupS float64, window time.Duration) *outcome {
	m := map[string]float64{}
	ops := float64(p.ops())
	var userBytes float64
	for _, r := range p.recs {
		userBytes += float64(r.userBytes)
	}
	opsPerS, typical, cpuPerOp := sliceMetrics(p, false)
	if len(opsPerS) == 0 { // a fixed-ops run traced throughout
		opsPerS, typical, cpuPerOp = sliceMetrics(p, true)
	}
	m["setup_s"] = setupS
	m["ops_per_s"] = median(opsPerS)
	m["typical_op_us"] = median(typical)
	m["cpu_us_per_op"] = median(cpuPerOp)
	latencyMetrics(m, p.recs)
	m["device_bytes_per_op"] = ratio(float64(p.dev.readBytes+p.dev.writeBytes), ops)
	m["peak_rss_mb"] = p.rssMB

	m["proc.allocs_per_op"] = ratio(float64(p.mem1.Mallocs-p.mem0.Mallocs), ops)
	m["proc.alloc_bytes_per_op"] = ratio(float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc), ops)
	m["proc.gc_pause_ms"] = float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6

	a, b := p.st0, p.st1
	d := func(x, y int64) float64 { return float64(y - x) }
	var histReads, writes, syncs float64
	for _, r := range p.recs {
		histReads += float64(len(r.lat[kHistRead]))
		writes += float64(len(r.lat[kWrite]))
		syncs += float64(len(r.lat[kSync]))
	}
	m["core.cache_hit_ratio"] = ratio(d(a.CacheHits, b.CacheHits), d(a.CacheHits, b.CacheHits)+d(a.CacheMisses, b.CacheMisses))
	m["core.recon_hit_ratio"] = ratio(d(a.ReconCacheHits, b.ReconCacheHits), d(a.ReconCacheHits, b.ReconCacheHits)+d(a.ReconCacheMisses, b.ReconCacheMisses))
	m["core.walk_entries_per_histread"] = ratio(d(a.HistoryWalkEntries, b.HistoryWalkEntries), histReads)
	m["core.landmark_hits_per_histread"] = ratio(d(a.LandmarkHits, b.LandmarkHits), histReads)
	m["core.commit_batches_per_sync"] = ratio(d(a.CommitBatches, b.CommitBatches), syncs)
	m["core.syncs_coalesced"] = d(a.SyncsCoalesced, b.SyncsCoalesced)
	m["core.versions_per_op"] = ratio(d(a.VersionsMade, b.VersionsMade), ops)
	m["core.audit_records_per_op"] = ratio(d(a.AuditRecords, b.AuditRecords), ops)
	m["core.delta_blocks_per_write"] = ratio(d(a.DeltaBlocksWritten, b.DeltaBlocksWritten), writes)
	m["core.delta_saved_bytes_per_write"] = ratio(d(a.DeltaBytesSaved, b.DeltaBytesSaved), writes)
	m["core.keyframes_per_write"] = ratio(d(a.ChainKeyframes, b.ChainKeyframes), writes)
	m["core.throttle_delay_s"] = (b.ThrottleDelays - a.ThrottleDelays).Seconds()
	// History kept per byte the clients overwrote inside one detection
	// window: the run is time-bounded, so the pool is set against a
	// window's worth of writes, not the whole run's.
	windowOps := float64(window / opTick)
	m["core.hist_bytes_per_user_byte"] = ratio(float64(b.HistoryBlocks)*types.BlockSize, userBytes*windowOps/ops)

	m["seglog.free_segments_end"] = float64(b.FreeSegments)
	m["seglog.appends_per_op"] = ratio(d(a.LogAppends, b.LogAppends), ops)
	m["seglog.forces_per_op"] = ratio(d(a.DeviceForces, b.DeviceForces), ops)
	m["seglog.vec_appends_per_op"] = ratio(d(a.VecAppends, b.VecAppends), ops)
	m["seglog.flush_stalls"] = d(a.FlushStalls, b.FlushStalls)
	m["seglog.device_reads_per_op"] = ratio(d(a.DeviceReads, b.DeviceReads), ops)
	m["seglog.vec_reads_per_op"] = ratio(d(a.VecReads, b.VecReads), ops)

	m["disk.writes_per_op"] = ratio(float64(p.dev.writes), ops)
	m["disk.write_bytes_per_op"] = ratio(float64(p.dev.writeBytes), ops)
	m["disk.reads_per_op"] = ratio(float64(p.dev.reads), ops)
	m["disk.read_bytes_per_op"] = ratio(float64(p.dev.readBytes), ops)
	m["disk.write_bytes_per_user_byte"] = ratio(float64(p.dev.writeBytes), userBytes)
	m["disk.io_s"] = float64(p.dev.ioNanos) / 1e9

	m["core.cleaner_busy_s"] = p.clean.busy.Seconds()
	m["core.cleaner_share"] = ratio(p.clean.busy.Seconds(), p.wall.Seconds())
	m["core.cleaner_runs"] = float64(p.clean.runs)
	m["core.cleaner_max_pause_ms"] = float64(p.clean.maxPause.Microseconds()) / 1e3
	m["core.cleaner_blocks_copied"] = float64(p.clean.copied)
	m["core.cleaner_segments_freed"] = float64(p.clean.freed)
	var slows []float64
	for _, sl := range p.slices {
		slows = append(slows, sl.slow)
	}
	e.mu.Lock()
	out := &outcome{metrics: m, ops: p.ops(), tr: e.tr, sliceOps: opsPerS, sliceTypical: typical, sliceCPU: cpuPerOp, sliceSlow: slows,
		attempted: e.done.Load() + e.checks, failed: e.failed, firstErr: e.firstErr, invalid: e.invalid}
	e.mu.Unlock()
	if m["core.throttle_delay_s"] != 0 {
		out.invalid = "the drive throttled a client: the run is mis-sized, not slow"
	}
	if e.aborted.Load() {
		out.invalid = "the run stalled and was aborted"
	}

	if e.cfg.trace {
		sp := analyze(e.tr.spans)
		out.spans = &sp
		m["trace.spans"] = float64(sp.n)
		if on, _, _ := sliceMetrics(p, true); len(on) > 0 && len(opsPerS) > 0 {
			m["trace.overhead_pct"] = 100 * (1 - median(on)/median(opsPerS))
		}
		m["disk.share"] = ratio(sp.diskUnder[spanClient], sp.total[spanClient])
	}
	return out
}
