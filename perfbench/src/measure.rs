//! Measurement plumbing shared by every workload: the metric tables,
//! order statistics, peak RSS, and the one-line JSON result.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, measured with tracing off. Every
/// workload reports every one of them (the result format requires it),
/// so each has a definition that holds on batch and streaming runs
/// alike; see `NOTES.md`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("link_s", "s"),
    ("ingest_events_per_s", "1/s"),
    ("precision", "ratio"),
    ("recall", "ratio"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p99_ms", "ms"),
    ("query_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)` of the traced run. A layer a
/// workload never calls reports 0 (for example `lsh.*` on `batch-cab`).
const PER_LAYER: &[(&str, &str)] = &[
    ("core.history_build_s", "s"),
    ("core.score_s", "s"),
    ("core.record_pair_comparisons", "count"),
    ("core.score_ns_per_comparison", "ns"),
    ("core.edge_yield", "ratio"),
    ("core.match_s", "s"),
    ("core.threshold_s", "s"),
    ("lsh.signature_s", "s"),
    ("lsh.candidates_s", "s"),
    ("lsh.candidate_pairs", "count"),
    ("lsh.pruning_ratio", "ratio"),
    ("lsh.truth_in_candidates_ratio", "ratio"),
    ("source.wire_parse_s", "s"),
    ("source.blocked_producer_s", "s"),
    ("source.queue_high_watermark", "count"),
    ("source.late_events", "count"),
    ("source.malformed_lines", "count"),
    ("source.pump_overhead_s", "s"),
    ("source.rate_last_quarter_ratio", "ratio"),
    ("engine.ingest_batch_s", "s"),
    ("engine.refresh_s", "s"),
    ("engine.tick_max_ms", "ms"),
    ("engine.direct_1x1_events_per_s", "1/s"),
    ("engine.bin_s", "s"),
    ("engine.apply_s", "s"),
    ("engine.expire_s", "s"),
    ("engine.lsh_s", "s"),
    ("engine.rescore_s", "s"),
    ("engine.edge_merge_s", "s"),
    ("engine.match_s", "s"),
    ("engine.threshold_s", "s"),
    ("engine.tick_s", "s"),
    ("engine.score_kernel_ns_per_window", "ns"),
    ("engine.dirty_visit_ratio", "ratio"),
    ("engine.edges_patched", "count"),
    ("engine.matching_region_size", "count"),
    ("engine.em_warm_iters", "count"),
    ("engine.steal_events", "count"),
    ("engine.worker_busy_skew", "ratio"),
    ("engine.candidate_pairs", "count"),
    ("engine.live_edges", "count"),
    ("engine.tracked_entities", "count"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.epochs_published", "count"),
    ("serve.client_p99_us", "us"),
    ("serve.query_gen_late_ms", "ms"),
    ("ckpt.count", "count"),
    ("ckpt.bytes_per_checkpoint", "bytes"),
    ("ckpt.write_p50_ms", "ms"),
    ("ckpt.write_max_ms", "ms"),
    ("ckpt.wall_share", "ratio"),
    ("ckpt.recover_s", "s"),
    ("ckpt.recover_mb_per_s", "MB/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
];

/// How many times each run repeats its set-up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// What one benchmark run reports.
pub struct Outcome {
    /// Every correctness gate held.
    pub correct: bool,
    /// Operations attempted: queries sent, events handed to the system,
    /// link runs, recoveries.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Why a gate failed, one line each (printed to stderr).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            problems: Vec::new(),
        }
    }

    /// Records a metric; the name must be one of the two tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in END_TO_END or PER_LAYER"
        );
        self.metrics.insert(name, value);
    }

    /// Fails the correctness gate when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.problems.push(what());
        }
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn count_ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// The result line: every metric of the requested table, in table
    /// order. Per-layer metrics a workload did not touch read 0; a
    /// missing end-to-end metric is a bug in the benchmark.
    pub fn render(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let body: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Median of the samples (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of nanosecond samples, sorting them
/// in place.
pub fn quantile_ns(values: &mut [u64], q: f64) -> u64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Runs `iteration` until `budget` has elapsed and at least `min`
/// iterations have run, passing the iteration index.
pub fn repeat_for(budget: Duration, min: usize, mut iteration: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed() < budget {
        iteration(i);
        i += 1;
    }
}

/// Runs `setup` [`SETUP_REPS`] times, returning the last result and the
/// median wall time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous copy first so peak RSS holds one set of inputs.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), median(&times))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
