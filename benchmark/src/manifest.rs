//! The benchmark's contract: workload names, metric names with unit,
//! direction and regression bound.  `BENCHMARK.json` at the repository root
//! is generated from these tables (`--emit-manifest`) and `--check` fails
//! when the committed file and the tables differ, so a metric can never be
//! emitted under a name the manifest does not declare, or the reverse.

/// How long one driver run measures (`--seconds` default).
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "astro_capture",
        why: "capture-heavy: execute+finish+commit of the 26-operator astronomy workflow under FullBoth; engine, encoder, codec-encode, kv-put work, every query layer idle",
    },
    WorkloadDecl {
        name: "astro_query",
        why: "indexed lookups: the paper's Fig. 5 queries over a cache-resident FullBoth store; DAG traversal, kv-get, CellSet insert/union work, scan/decode/join do none",
    },
    WorkloadDecl {
        name: "micro_scan",
        why: "mismatched-direction scans: batched backward queries over a forward-only store larger than the entry caches; scan_slices, block decode and the join work, indexed arms idle",
    },
    WorkloadDecl {
        name: "daemon_mixed",
        why: "writes beside reads through the durable 2-shard daemon: wire codec, admission lanes, shard rendezvous, WAL, compaction; single-cell and region lookups, all three containers",
    },
];

pub struct MetricDecl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Bounds are set from `out/aa_report.txt` and the ten-seed spreads recorded
/// in README.md.  This sandbox's speed wanders by +-10 % over seconds to
/// minutes (a bare spin loop shows +-6 %), so every timing carries the
/// widest bound the contract allows; the counts carry tight ones.
pub const END_TO_END: [MetricDecl; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "ops/s", "higher", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("op_p90_ms", "ms", "lower", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("disk_overhead_x", "x", "lower", 0.01),
];

pub const PER_LAYER: [MetricDecl; 61] = [
    layer("bench.trace_overhead_frac", "frac", "lower"),
    layer("bench.harness_self_frac", "frac", "lower"),
    layer("engine.executor.nocapture_run_ms", "ms", "lower"),
    layer("engine.executor.pairs_emitted", "count", "lower"),
    layer("engine.executor.capture_overhead_x", "x", "lower"),
    layer("engine.paths.plan_us", "us", "lower"),
    layer("core.runtime.execute_ms", "ms", "lower"),
    layer("core.capture.finish_capture_ms", "ms", "lower"),
    layer("core.capture.commit_capture_ms", "ms", "lower"),
    layer("core.capture.async_run_ms", "ms", "lower"),
    layer("core.capture.async_drain_ms", "ms", "lower"),
    layer("core.encoder.encode_pairs_per_s", "1/s", "higher"),
    layer("core.datastore.store_batch_pairs_per_s", "1/s", "higher"),
    layer("core.datastore.finish_ingest_ms", "ms", "lower"),
    layer("core.datastore.lookup_indexed_us", "us", "lower"),
    layer("core.datastore.entries_fetched_per_query", "count", "lower"),
    layer("core.datastore.lookup_scan_ms", "ms", "lower"),
    layer("core.datastore.scanned_entries_per_batch", "count", "lower"),
    layer("core.query.query_p50_us", "us", "lower"),
    layer("core.query.cold_first_query_ms", "ms", "lower"),
    layer("core.query.steps_stored", "count", "lower"),
    layer("core.query.steps_mapping", "count", "lower"),
    layer("core.query.steps_reexec", "count", "lower"),
    layer("core.query.steps_scanned", "count", "lower"),
    layer("core.query.cache_hit_frac", "frac", "higher"),
    layer(
        "array.cellset.insert_sorted_mcells_per_s",
        "Mcells/s",
        "higher",
    ),
    layer("array.cellset.union_mcells_per_s", "Mcells/s", "higher"),
    layer(
        "array.cellset.intersect_sorted_mcells_per_s",
        "Mcells/s",
        "higher",
    ),
    layer("array.cellset.densify_us", "us", "lower"),
    layer("array.cellset.answer_bytes_per_cell", "B/cell", "lower"),
    layer("store.codec.encode_mcells_per_s", "Mcells/s", "higher"),
    layer(
        "store.codec.decode_block_mcells_per_s",
        "Mcells/s",
        "higher",
    ),
    layer("store.kv.put_batch_mb_per_s", "MB/s", "higher"),
    layer("store.kv.merge_append_mb_per_s", "MB/s", "higher"),
    layer("store.kv.bytes_written_per_pair", "B", "lower"),
    layer("store.kv.get_us", "us", "lower"),
    layer("store.kv.scan_mb_per_s", "MB/s", "higher"),
    layer("store.kv.sync_ms", "ms", "lower"),
    layer("store.kv.compact_ms", "ms", "lower"),
    layer("store.kv.compact_bytes_folded", "B", "higher"),
    layer("store.rtree.bulk_load_ms", "ms", "lower"),
    layer("store.rtree.query_point_us", "us", "lower"),
    layer("store.wal.append_sync_ms", "ms", "lower"),
    layer("store.wal.wal_bytes", "B", "lower"),
    layer("store.wal.recover_dir_ms", "ms", "lower"),
    layer("server.protocol.encode_request_mb_per_s", "MB/s", "higher"),
    layer("server.protocol.decode_request_mb_per_s", "MB/s", "higher"),
    layer("server.protocol.encode_response_mb_per_s", "MB/s", "higher"),
    layer("server.protocol.decode_response_mb_per_s", "MB/s", "higher"),
    layer("server.protocol.bytes_per_pair", "B", "lower"),
    layer("server.protocol.bytes_per_lookup_query", "B", "lower"),
    layer("server.protocol.answer_containers_sparse", "count", "lower"),
    layer("server.protocol.answer_containers_runs", "count", "lower"),
    layer("server.protocol.answer_containers_dense", "count", "lower"),
    layer("server.client.store_batch_p50_ms", "ms", "lower"),
    layer("server.client.lookup_p50_ms", "ms", "lower"),
    layer("server.client.lookup_p99_ms", "ms", "lower"),
    layer("server.client.finish_session_p50_ms", "ms", "lower"),
    layer("server.client.single_lookup_rtt_us", "us", "lower"),
    layer("server.client.shed_batches", "count", "lower"),
    layer("server.client.commits", "count", "higher"),
];

/// Per-layer metrics that are exact counts: the same seed must reproduce
/// them bit for bit (`repeat.sh` asserts it, with `disk_overhead_x`).
pub const EXACT_COUNTS: [&str; 13] = [
    "disk_overhead_x",
    "engine.executor.pairs_emitted",
    "core.datastore.entries_fetched_per_query",
    "core.datastore.scanned_entries_per_batch",
    "core.query.steps_stored",
    "core.query.steps_mapping",
    "core.query.steps_reexec",
    "core.query.steps_scanned",
    "store.kv.bytes_written_per_pair",
    "store.wal.wal_bytes",
    "server.protocol.answer_containers_sparse",
    "server.protocol.answer_containers_runs",
    "server.protocol.answer_containers_dense",
];

/// Names are limited to letters, digits, `_`, `.` and `-`, start with a
/// letter or digit, and are at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}\n",
            w.name,
            w.why,
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better,
            m.bound,
            if i + 1 == END_TO_END.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better,
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn declarations_respect_the_contract_limits() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{}",
                m.name
            );
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for name in EXACT_COUNTS {
            assert!(
                END_TO_END
                    .iter()
                    .chain(PER_LAYER.iter())
                    .any(|m| m.name == name),
                "{name}"
            );
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
