//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the same names (a test checks
//! the two agree).

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the deployment sees, each with a regression bound in
/// `BENCHMARK.json`. Two more are printed with these but carry no bound:
/// `fail_frac` travels in the result line's `attempted`/`failed` counts,
/// because on a correct program it is always zero; `lat_p99_us` sits on
/// the compaction cliff of `db-write` and its run-to-run spread on the
/// recording host is wider than any bound the benchmark may declare.
pub const END_TO_END: &[MetricDef] = &[
    m("req_per_s", "1/s", "higher"),
    m("lat_p50_us", "us", "lower"),
    m("lat_p95_us", "us", "lower"),
    m("cpu_us_per_req", "us", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Single layers, from the traced repetition. Names are the crates'.
pub const PER_LAYER: &[MetricDef] = &[
    m("harness.open_ns_per_req", "ns", "lower"),
    m("harness.run_ns_per_req", "ns", "lower"),
    m("harness.poll_ns_per_req", "ns", "lower"),
    m("harness.verify_ns_per_req", "ns", "lower"),
    m("harness.unattributed_share", "frac", "lower"),
    m("harness.trace_overhead_frac", "frac", "lower"),
    m("harness.host_speed", "ratio", "higher"),
    m("kernel.delivered_per_req", "count", "lower"),
    m("kernel.run_ns_per_delivery", "ns", "lower"),
    m("kernel.virt_cycles_per_req", "cycles", "lower"),
    m("kernel.virt_req_per_s", "1/s", "higher"),
    m("kernel.cache_hit_ratio", "frac", "higher"),
    m("kernel.cache_evictions_per_req", "count", "lower"),
    m("kernel.cache_fill_frac", "frac", "lower"),
    m("kernel.drops_per_req", "count", "lower"),
    m("kernel.eps_created_per_req", "count", "lower"),
    m("kernel.eps_exited_per_req", "count", "lower"),
    m("kernel.ctx_switches_per_req", "count", "lower"),
    m("kernel.kmem_pages_per_session", "pages", "lower"),
    m("kernel.probe.deliver_ns", "ns", "lower"),
    m("kernel.rounds_per_req", "count", "lower"),
    m("kernel.worker_wakeups_per_req", "count", "lower"),
    m("kernel.xshard_msgs_per_req", "count", "lower"),
    m("kernel.xshard_subround_frac", "frac", "higher"),
    m("kernel.xshard_batch_mean", "count", "higher"),
    m("kernel.shard_busy_ns_per_req", "ns", "lower"),
    m("kernel.busiest_shard_share", "frac", "lower"),
    m("kernel.coord_ns_per_req", "ns", "lower"),
    m("kernel.probe.pool_round_ns", "ns", "lower"),
    m("kernel.tuner_actions", "count", "lower"),
    m("kernel.steals", "count", "lower"),
    m("kernel.cache_resizes", "count", "lower"),
    m("labels.probe.leq_ns", "ns", "lower"),
    m("labels.probe.lub_ns", "ns", "lower"),
    m("labels.probe.glb_ns", "ns", "lower"),
    m("labels.entries_p50", "count", "lower"),
    m("labels.entries_max", "count", "lower"),
    m("labels.clones_per_req", "count", "lower"),
    m("net.probe.http_parse_ns", "ns", "lower"),
    m("net.req_bytes", "bytes", "lower"),
    m("net.resp_bytes", "bytes", "lower"),
    m("net.lane_imbalance", "ratio", "lower"),
    m("net.est_share", "frac", "lower"),
    m("okws.cold_login_frac", "frac", "lower"),
    m("okws.sessions_live", "count", "lower"),
    m("db.reads_per_req", "count", "lower"),
    m("db.writes_per_req", "count", "lower"),
    m("db.probe.select_ns", "ns", "lower"),
    m("db.probe.insert_ns", "ns", "lower"),
    m("db.rows_final", "count", "lower"),
    m("db.est_share", "frac", "lower"),
    m("store.syncs_per_write", "count", "lower"),
    m("store.wal_bytes_per_write", "bytes", "lower"),
    m("store.probe.append_commit_ns", "ns", "lower"),
    m("store.probe.recover_ms", "ms", "lower"),
    m("store.est_share", "frac", "lower"),
    m("cluster.frames_per_req", "count", "lower"),
    m("cluster.wire_bytes_per_req", "bytes", "lower"),
    m("cluster.forwards_per_req", "count", "lower"),
    m("cluster.pump_ns_per_req", "ns", "lower"),
    m("cluster.probe.encode_ns", "ns", "lower"),
    m("cluster.probe.decode_ns", "ns", "lower"),
    m("cluster.probe.conn_roundtrip_ns", "ns", "lower"),
    m("cluster.est_share", "frac", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    /// `BENCHMARK.json` sits at the repo root, outside this package; the
    /// check runs wherever the root is present (every checkout).
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(|e| {
                    let field = |f: &str| e.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::specs().iter().map(|s| s.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
