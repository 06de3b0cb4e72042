package main

import (
	"sort"
)

// layerMetric is one per-layer figure: where it is measured, its unit, the
// end-to-end metric it should move, and the workloads where its layer does
// most (heavy) and little (light) of the work. A layer a workload bypasses
// reports 0 there.
type layerMetric struct {
	name   string
	unit   string
	better string
	moves  string
	heavy  string
	light  string
	value  func(p *phase) float64
}

// endToEndMetrics are the gated user-visible figures of an untraced run,
// in the order BENCHMARK.json lists them. The read p50, the read and write
// p99 and the CPU per operation are computed too, for the run record and
// the per-layer output, but spread too much from run to run to gate (see
// README.md).
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_amp", "ratio"},
	{"space_amp", "ratio"},
	{"heap_mb", "MB"},
}

// gated keeps the end-to-end metrics BENCHMARK.json lists.
func gated(all map[string]metricValue) map[string]metricValue {
	out := make(map[string]metricValue, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		out[m.name] = all[m.name]
	}
	return out
}

// overhead is the tracing overhead on an end-to-end figure: the traced
// phase's value minus the untraced phase's, on the same deployment.
func overhead(name, unit, better string) layerMetric {
	return layerMetric{"trace.overhead." + name, unit, better, "none", "all", "none", func(p *phase) float64 {
		return p.traced[name].Value - p.untraced[name].Value
	}}
}

// untraced reports a user-visible figure of the untraced phase that is
// not gated end to end.
func untraced(name, unit string) layerMetric {
	return layerMetric{"request." + name, unit, "lower", "itself", "all", "none", func(p *phase) float64 {
		return p.untraced[name].Value
	}}
}

func p50(s *samples) float64  { return s.summary().P50 }
func p99(s *samples) float64  { return s.summary().P99 }
func mean(s *samples) float64 { return s.summary().Mean }

func (p *phase) d(name string) float64     { return delta(p.before, p.after, name) }
func (p *phase) end(name string) float64   { return p.after.get(name) }
func (p *phase) dmean(name string) float64 { return deltaMean(p.before, p.after, name) }

// readRoundTrips counts storage round trips: single reads and scans count
// one each, a batched read one per extent group.
func (p *phase) readRoundTrips() float64 {
	return p.d("storage.read_ops") - p.d("storage.batch_locs") + p.d("storage.batch_round_trips")
}

var layerMetrics = []layerMetric{
	// bg3 API: the benchmark's timed calls.
	{"bg3.neighbors_us.p50", "us", "lower", "read_p50_ms", "follow-read", "sharded-txn", func(p *phase) float64 { return p50(p.tr.durations("bg3.Neighbors")) }},
	{"bg3.neighbors_us.p99", "us", "lower", "read_p99_ms", "follow-read", "sharded-txn", func(p *phase) float64 { return p99(p.tr.durations("bg3.Neighbors")) }},
	{"bg3.write_call_ms.p99", "ms", "lower", "write_p99_ms", "sharded-txn", "follow-read", func(p *phase) float64 {
		return p99(p.tr.durations("bg3.AddEdge", "bg3.ApplyBatch.single", "bg3.ApplyBatch.multi")) / 1e3
	}},
	{"bg3.snapshot_open_us.p99", "us", "lower", "read_p99_ms", "risk-ingest", "follow-read", func(p *phase) float64 { return p99(p.tr.durations("bg3.Snapshot", "bg3.ShardedDB.Snapshot")) }},
	{"bg3.snapshot_held_ms.p99", "ms", "lower", "read_p99_ms", "risk-ingest", "follow-read", func(p *phase) float64 { return p99(p.tr.durations("bg3.Snapshot.held")) / 1e3 }},

	// graph: traversals over graph.Reader.
	{"graph.neighbors_calls_per_traversal", "count", "lower", "read_p50_ms", "risk-ingest", "follow-read", func(p *phase) float64 { return mean(p.tr.get("graph.neighbors_per_traversal")) }},
	{"graph.traversal_self_us.p50", "us", "lower", "read_p50_ms", "risk-ingest", "follow-read", func(p *phase) float64 { return p50(p.self("graph.KHopBudget")) }},
	{"graph.edges_per_read", "count", "higher", "read_p50_ms", "risk-ingest", "follow-read", func(p *phase) float64 { return mean(p.tr.get("graph.edges_per_read")) }},

	// storage: counters of the deployment's stores, plus the probe.
	{"storage.read_round_trips", "count", "lower", "read_ios_per_op", "follow-read", "sharded-txn", func(p *phase) float64 { return p.readRoundTrips() }},
	{"storage.read_ios_per_op", "count", "lower", "read_p99_ms", "follow-read", "sharded-txn", func(p *phase) float64 {
		return ratio(p.readRoundTrips(), float64(p.load.read.len()))
	}},
	{"storage.locs_per_round_trip", "count", "higher", "read_ios_per_op", "follow-read", "sharded-txn", func(p *phase) float64 {
		return ratio(p.d("storage.batch_locs"), p.d("storage.batch_round_trips"))
	}},
	{"storage.bytes_written", "bytes", "lower", "write_amp", "sharded-txn", "follow-read", func(p *phase) float64 { return p.d("storage.bytes_written") }},
	{"storage.append_ms.p50", "ms", "lower", "write_p50_ms", "all", "none", func(p *phase) float64 { return p.probe.appendMS }},
	{"storage.read_ms.p50", "ms", "lower", "read_p50_ms", "all", "none", func(p *phase) float64 { return p.probe.readMS }},

	// bwtree: page cache, fan-out, materialization, edge blocks.
	{"bwtree.cache_hit_ratio", "ratio", "higher", "read_p99_ms", "follow-read", "sharded-txn", func(p *phase) float64 {
		h := p.d("bwtree.cache_hits")
		return ratio(h, h+p.d("bwtree.cache_misses"))
	}},
	{"bwtree.read_fanout.mean", "count", "lower", "read_ios_per_op", "follow-read", "sharded-txn", func(p *phase) float64 { return p.dmean("bwtree.read_fanout") }},
	{"bwtree.read_fanout.p99", "count", "lower", "read_p99_ms", "follow-read", "sharded-txn", func(p *phase) float64 { return p.end("bwtree.read_fanout.p99") }},
	{"bwtree.materialize_us.p99", "us", "lower", "read_p99_ms", "follow-read", "sharded-txn", func(p *phase) float64 { return p.end("bwtree.materialize_us.p99") }},
	{"bwtree.evictions", "count", "lower", "read_p99_ms", "follow-read", "risk-ingest", func(p *phase) float64 { return p.d("bwtree.cache_evictions") }},
	{"bwtree.readahead_hit_ratio", "ratio", "higher", "read_ios_per_op", "follow-read", "sharded-txn", func(p *phase) float64 {
		return ratio(p.d("bwtree.readahead_hits"), p.d("bwtree.readahead_issued"))
	}},
	{"bwtree.edge_block_hit_ratio", "ratio", "higher", "throughput_ops_s", "follow-read", "sharded-txn", func(p *phase) float64 {
		h := p.d("bwtree.block_hits")
		return ratio(h, h+p.d("bwtree.block_fallbacks"))
	}},
	{"bwtree.edge_block_builds", "count", "lower", "setup_s", "follow-read", "sharded-txn", func(p *phase) float64 { return p.end("bwtree.block_builds") }},

	// forest: tree count and vertex migrations since open.
	{"forest.trees", "count", "lower", "setup_s", "risk-ingest", "follow-read", func(p *phase) float64 { return p.end("forest.trees") }},
	{"forest.migrations", "count", "lower", "write_p99_ms", "risk-ingest", "follow-read", func(p *phase) float64 { return p.end("forest.migrations") }},
	{"forest.init_keys", "count", "lower", "setup_s", "risk-ingest", "follow-read", func(p *phase) float64 { return p.end("forest.init_keys") }},

	// wal: group commit and its pipeline.
	{"wal.group_size.mean", "count", "higher", "write_p50_ms", "risk-ingest", "follow-read", func(p *phase) float64 { return p.dmean("wal.group_size") }},
	{"wal.append_ms.p99", "ms", "lower", "write_p99_ms", "risk-ingest", "follow-read", func(p *phase) float64 { return p.end("wal.append_us.p99") / 1e3 }},
	{"wal.commit_ms.p99", "ms", "lower", "write_p99_ms", "risk-ingest", "follow-read", func(p *phase) float64 { return p.end("wal.commit_us.p99") / 1e3 }},
	{"wal.inflight.mean", "count", "higher", "write_p50_ms", "sharded-txn", "follow-read", func(p *phase) float64 { return p.dmean("wal.inflight_groups") }},

	// mvcc: snapshot pins and the history they hold.
	{"mvcc.pins", "count", "lower", "read_p99_ms", "risk-ingest", "follow-read", func(p *phase) float64 { return p.d("mvcc.pins_total") }},
	{"mvcc.epoch_lag.max", "count", "lower", "heap_mb", "risk-ingest", "follow-read", func(p *phase) float64 { return p.maxima["mvcc.epoch_lag"] }},
	{"mvcc.retained_bytes.max", "bytes", "lower", "heap_mb", "risk-ingest", "follow-read", func(p *phase) float64 { return p.maxima["bwtree.retained_bytes"] }},

	// gc: the benchmark's timed RunGC calls and the reclaimer's counters.
	{"gc.run_ms.p50", "ms", "lower", "write_p99_ms", "risk-ingest", "follow-read", func(p *phase) float64 { return p50(p.tr.durations("bg3.RunGC")) / 1e3 }},
	{"gc.bytes_moved", "bytes", "lower", "write_amp", "risk-ingest", "follow-read", func(p *phase) float64 { return p.d("gc.bytes_moved") }},
	{"gc.write_amp", "ratio", "lower", "write_amp", "risk-ingest", "follow-read", func(p *phase) float64 {
		return ratio(p.d("storage.gc_bytes_moved"), p.d("storage.gc_bytes_reclaimed"))
	}},
	{"gc.pin_deferred", "count", "lower", "space_amp", "risk-ingest", "follow-read", func(p *phase) float64 { return p.d("gc.pin_deferred") }},
	{"gc.block_pinned", "count", "lower", "space_amp", "risk-ingest", "follow-read", func(p *phase) float64 { return p.d("gc.block_pinned") }},

	// replication: the RO replica tailing the WAL.
	{"replication.replica_lag_p99_ms", "ms", "lower", "read_p99_ms", "risk-ingest", "sharded-txn", func(p *phase) float64 { return p99(p.tr.get("replication.lag_ms")) }},
	{"replication.applied_lsn_lag.max", "count", "lower", "cpu_us_per_op", "risk-ingest", "sharded-txn", func(p *phase) float64 { return p.maxima["replication.applied_lsn_lag"] }},
	{"replication.resyncs", "count", "lower", "cpu_us_per_op", "risk-ingest", "sharded-txn", func(p *phase) float64 { return p.d("replication.resyncs") }},
	{"replication.checkpoints", "count", "lower", "cpu_us_per_op", "risk-ingest", "sharded-txn", func(p *phase) float64 { return p.d("wal.checkpoints") }},

	// Go runtime over the phase.
	{"runtime.alloc_bytes_per_op", "bytes", "lower", "cpu_us_per_op", "follow-read", "none", func(p *phase) float64 {
		return ratio(float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc), float64(p.load.completed()))
	}},
	{"runtime.gc_pause_us.p99", "us", "lower", "read_p99_ms", "follow-read", "none", func(p *phase) float64 { return p99(p.gcPauses()) }},
	{"runtime.gc_cycles", "count", "lower", "cpu_us_per_op", "follow-read", "none", func(p *phase) float64 { return float64(p.mem1.NumGC - p.mem0.NumGC) }},

	// load generator: validity of the run, not the system.
	{"loadgen.late_ms.p99", "ms", "lower", "none", "open loop", "closed loop", func(p *phase) float64 { return p99(&p.load.late) }},
	{"loadgen.inflight.max", "count", "lower", "none", "open loop", "closed loop", func(p *phase) float64 { return float64(p.load.maxFlight.Load()) }},
	{"loadgen.refused", "count", "lower", "none", "open loop", "closed loop", func(p *phase) float64 { return float64(p.load.refused.Load()) }},
	{"loadgen.error_rate", "ratio", "lower", "none", "all", "none", func(p *phase) float64 {
		return ratio(float64(p.load.failed.Load()), float64(p.load.attempted.Load()))
	}},

	// Request level: figures measured untraced but too unsteady to gate,
	// and the tracing overhead.
	untraced("read_p50_ms", "ms"),
	untraced("read_p99_ms", "ms"),
	untraced("write_p99_ms", "ms"),
	untraced("cpu_us_per_op", "us"),
	overhead("throughput_ops_s", "1/s", "higher"),
	overhead("read_p50_ms", "ms", "lower"),
	overhead("read_p99_ms", "ms", "lower"),
	overhead("write_p50_ms", "ms", "lower"),
	overhead("write_p99_ms", "ms", "lower"),
	overhead("cpu_us_per_op", "us", "lower"),
}

// shardLayerMetrics cover the shard router, 2PC and scatter-gather. Only
// sharded-txn exercises that layer, so only its runs report them.
var shardLayerMetrics = []layerMetric{
	{"shard.batch_fanout.mean", "count", "lower", "write_p99_ms", "sharded-txn", "bypassed elsewhere", func(p *phase) float64 { return p.dmean("shard.batch_fanout") }},
	{"shard.txns", "count", "lower", "write_p99_ms", "sharded-txn", "bypassed elsewhere", func(p *phase) float64 { return p.d("shard.txns") }},
	{"shard.txn_aborts", "count", "lower", "throughput_ops_s", "sharded-txn", "bypassed elsewhere", func(p *phase) float64 { return p.d("shard.txn_aborts") }},
	{"shard.write_ms.single.p99", "ms", "lower", "write_p99_ms", "sharded-txn", "bypassed elsewhere", func(p *phase) float64 { return p99(p.tr.durations("bg3.ApplyBatch.single")) / 1e3 }},
	{"shard.write_ms.multi.p99", "ms", "lower", "write_p99_ms", "sharded-txn", "bypassed elsewhere", func(p *phase) float64 { return p99(p.tr.durations("bg3.ApplyBatch.multi")) / 1e3 }},
	{"shard.txn_decide_ms.p99", "ms", "lower", "write_p99_ms", "sharded-txn", "bypassed elsewhere", func(p *phase) float64 { return p99(p.tr.durations("shard.txn.prepared-decided")) / 1e3 }},
	{"shard.scatter_reads_per_hop", "count", "lower", "read_p99_ms", "sharded-txn", "bypassed elsewhere", func(p *phase) float64 {
		return ratio(p.d("shard.scatter_shard_reads"), p.d("shard.scatter_hops"))
	}},
	{"shard.snapshot_open_us.p99", "us", "lower", "read_p99_ms", "sharded-txn", "bypassed elsewhere", func(p *phase) float64 { return p99(p.tr.durations("bg3.ShardedDB.Snapshot")) }},
}

// self returns the self times, in microseconds, of the spans named name.
func (p *phase) self(name string) *samples {
	if s := p.selfTimes[name]; s != nil {
		return s
	}
	return &samples{}
}

// gcPauses returns the phase's Go GC pauses in microseconds (the runtime
// keeps the last 256).
func (p *phase) gcPauses() *samples {
	out := &samples{}
	n := p.mem1.NumGC - p.mem0.NumGC
	for i := uint32(0); i < n && i < 256; i++ {
		idx := (p.mem1.NumGC - 1 - i) % 256
		out.v = append(out.v, float64(p.mem1.PauseNs[idx])/1e3)
	}
	return out
}

// layers computes every per-layer metric of a traced phase, plus the
// workload's own.
func (p *phase) layers(extra []layerMetric) map[string]metricValue {
	out := make(map[string]metricValue, len(layerMetrics)+len(extra))
	for _, l := range append(layerMetrics[:len(layerMetrics):len(layerMetrics)], extra...) {
		out[l.name] = metricValue{l.value(p), l.unit}
	}
	return out
}

// layerDoc lists each per-layer metric with what it should move, for the
// run record.
func layerDoc(extra []layerMetric) []map[string]string {
	var out []map[string]string
	for _, l := range append(layerMetrics[:len(layerMetrics):len(layerMetrics)], extra...) {
		out = append(out, map[string]string{"name": l.name, "unit": l.unit, "moves": l.moves, "heavy": l.heavy, "light": l.light})
	}
	sort.Slice(out, func(i, j int) bool { return out[i]["name"] < out[j]["name"] })
	return out
}
