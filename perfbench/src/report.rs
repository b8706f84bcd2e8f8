//! Metric names, the result line, and the machine fingerprint.

/// End-to-end metrics, reported by every untraced run:
/// `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_tail_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, reported by every traced run:
/// `(name, unit, better)`. A metric that does not apply to a workload
/// reads 0 there (README.md lists which apply where).
pub const PER_LAYER: [(&str, &str, &str); 31] = [
    ("simq-query.parse_us", "us", "lower"),
    ("simq-query.plan_us", "us", "lower"),
    ("simq-query.plan_cache_hit_ratio", "ratio", "higher"),
    ("simq-query.exec_us", "us", "lower"),
    ("simq-query.result_rows_per_op", "count", "higher"),
    ("simq-series.prep_us", "us", "lower"),
    ("simq-series.verify_us", "us", "lower"),
    ("simq-series.exact_calls_per_op", "count", "lower"),
    ("simq-series.coefficients_per_op", "count", "lower"),
    ("simq-series.verify_yield", "ratio", "higher"),
    ("simq-index.descent_us", "us", "lower"),
    ("simq-index.nodes_per_op", "count", "lower"),
    ("simq-index.leaves_per_op", "count", "lower"),
    ("simq-index.entries_per_op", "count", "lower"),
    ("simq-index.ns_per_entry", "ns", "lower"),
    ("simq-index.candidates_per_op", "count", "lower"),
    ("simq-index.candidate_yield", "ratio", "higher"),
    ("simq-storage.filter_us", "us", "lower"),
    ("simq-storage.filter_dismissed_per_op", "count", "higher"),
    ("simq-storage.filter_dismiss_ratio", "ratio", "higher"),
    ("simq-storage.scan_rows_per_op", "count", "lower"),
    ("simq-server.encode_us", "us", "lower"),
    ("simq-server.decode_us", "us", "lower"),
    ("simq-server.bytes_per_op", "bytes", "lower"),
    ("trace.other_us", "us", "lower"),
    ("trace.traced_latency_us", "us", "lower"),
    ("trace.untraced_latency_us", "us", "lower"),
    ("trace.overhead_us", "us", "lower"),
    ("trace.split_ops", "count", "higher"),
    ("trace.replay_mismatches", "count", "lower"),
    ("error_ratio", "ratio", "lower"),
];

/// Figures only `serve_rw` produces: its write path, WAL, ladder and
/// wire overhead. `serve_rw` is not among the workloads BENCHMARK.json
/// lists, so these are printed as notes, not in the result line.
pub const SERVE_RW_ONLY: [(&str, &str, &str); 14] = [
    ("simq-index.nodes_built_per_row", "count", "lower"),
    ("simq-storage.wal_syncs_per_row", "count", "lower"),
    ("simq-storage.wal_bytes_per_row", "bytes", "lower"),
    ("simq-storage.wal_bytes_per_user_byte", "ratio", "lower"),
    ("simq-storage.rows_per_group_commit", "count", "higher"),
    ("simq-storage.insert_mem_us", "us", "lower"),
    ("simq-storage.insert_durable_us", "us", "lower"),
    ("simq-server.overhead_us", "us", "lower"),
    ("simq-server.write_interference_ratio", "ratio", "lower"),
    ("simq-server.connect_us", "us", "lower"),
    ("simq-server.generator_late_ms", "ms", "lower"),
    ("simq-server.write_p50_us", "us", "lower"),
    ("simq-server.write_tail_us", "us", "lower"),
    ("simq-server.max_rate_ops_per_s", "1/s", "higher"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Checked ops whose answer differed from the oracle (plus, on
    /// `serve_rw`, acknowledged rows missing after shutdown).
    pub wrong: u64,
    /// Checked ops.
    pub checked: u64,
    /// Measured values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    /// Failed ops plus wrong answers over ops attempted.
    pub fn error_ratio(&self) -> f64 {
        crate::stats::ratio(
            (self.failed + self.wrong) as f64,
            self.attempted.max(1) as f64,
        )
    }

    /// True when no op failed and every checked answer agreed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong == 0
    }

    /// The result line: `correct`, `attempted`, `failed` (failed ops
    /// plus wrong answers) and every metric of `names` (0 where not
    /// recorded).
    pub fn json(&self, names: &[(&str, &str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit, _)| {
                let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed + self.wrong,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, CPU model, rustc version and git commit.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={}",
        env!("PERFBENCH_RUSTC"),
        git_commit()
    )
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}
