//! The batch workloads: `batch-cab` (brute-force `Slim::link` over the
//! dense taxi scenario, where the similarity kernel does nearly all the
//! work) and `batch-sm-lsh` (the sparse check-in scenario through the
//! LSH filter, where history build and LSH dominate instead).
//!
//! Each measured iteration links the datasets, publishes the links as
//! one epoch to a `LinkQueryServer`, and runs the open-loop reader
//! against it from the start of the link, so the serve path and
//! freshness (inputs handed over → links visible) are measured on
//! batch output too.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use slim_core::matching::greedy_max_matching;
use slim_core::threshold::select_threshold;
use slim_core::{
    EntityId, LinkageOutput, LinkageStats, LocationDataset, MatchingMethod, PreparedLinkage, Slim,
    SlimConfig,
};
use slim_datagen::Scenario;
use slim_lsh::{LshConfig, LshFilter};
use slim_stream::{EpochPointer, LinkQueryServer, LinkSnapshot};

use crate::measure::{median, repeat_for, timed_setup, Outcome};
use crate::reader::{ReadStats, Reader};

/// Which batch workload.
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Cab,
    SmLsh,
}

/// Cab at scale 0.25: 66 taxis over 6 days, ~44 + 44 entities and
/// ~95k records after sampling — about a second of brute-force scoring.
const CAB_SCALE: f64 = 0.25;
/// SM at scale 0.5: 15k users, ~10k + 10k entities and ~224k records.
const SM_SCALE: f64 = 0.5;
/// Share of entities present in both views (the paper's default).
pub const INTERSECTION: f64 = 0.5;

/// LSH filter settings for the check-in scenario: the paper's default
/// threshold and query step, with level-14 dominating cells for sparse
/// check-ins and a wide bucket space, so 10k entities per side do not
/// crowd into spurious collisions.
const SM_LSH: LshConfig = LshConfig {
    threshold: 0.6,
    step_windows: 48,
    spatial_level: 14,
    num_buckets: 1 << 20,
};

/// Independent two-view samples per run. One Cab sample has only ~22
/// truly common taxis, so its recall moves in steps of ~5% from seed to
/// seed; averaging over 16 samples makes the run's precision and recall
/// steady enough to bound. One SM sample already has ~5k common users.
fn samples_per_run(kind: Kind) -> usize {
    match kind {
        Kind::Cab => 16,
        Kind::SmLsh => 1,
    }
}

/// One generated two-view input.
struct Inputs {
    left: LocationDataset,
    right: LocationDataset,
    truth: HashMap<EntityId, EntityId>,
    slim: Slim,
    records: u64,
    /// Left entity ids the reader's `LINKS` queries cycle through.
    query_ids: Vec<u64>,
}

fn setup(kind: Kind, seed: u64) -> Vec<Inputs> {
    let inputs = (0..samples_per_run(kind) as u64)
        .map(|k| {
            // Distinct, reproducible sub-seeds per run seed.
            let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
            let scenario = match kind {
                Kind::Cab => Scenario::cab(CAB_SCALE, seed),
                Kind::SmLsh => Scenario::sm(SM_SCALE, seed),
            };
            let sample = scenario.sample(INTERSECTION, seed);
            Inputs {
                records: (sample.left.num_records() + sample.right.num_records()) as u64,
                query_ids: sample.left.entities_sorted().iter().map(|e| e.0).collect(),
                left: sample.left,
                right: sample.right,
                truth: sample.ground_truth,
                slim: Slim::new(SlimConfig::default()).expect("default config is valid"),
            }
        })
        .collect();
    // Server construction is part of set-up on every workload.
    drop(LinkQueryServer::bind("127.0.0.1:0", EpochPointer::new()).expect("bind query server"));
    inputs
}

/// The untraced pipeline: exactly the library's own entry points.
fn link(kind: Kind, inp: &Inputs) -> LinkageOutput {
    match kind {
        Kind::Cab => inp.slim.link(&inp.left, &inp.right),
        Kind::SmLsh => {
            let prepared = inp.slim.prepare(&inp.left, &inp.right);
            let filter = build_filter(&prepared, inp);
            prepared.link_with_candidates(&filter.candidates())
        }
    }
}

fn build_filter(prepared: &PreparedLinkage, inp: &Inputs) -> LshFilter {
    LshFilter::build(
        SM_LSH,
        &inp.left,
        &inp.right,
        prepared.left().scheme(),
        prepared.left().domain(),
    )
}

/// Per-layer times of one traced link, from spans around each public
/// call the untraced pipeline makes internally.
#[derive(Default, Clone, Copy)]
struct Layers {
    /// Wall of the whole traced pipeline, releases included.
    wall_s: f64,
    /// Each layer's span includes releasing what it built: freeing the
    /// histories and signatures is part of the pipeline's wall too.
    history_build_s: f64,
    signature_s: f64,
    candidates_s: f64,
    score_s: f64,
    match_s: f64,
    threshold_s: f64,
    candidate_pairs: u64,
    truth_in_candidates: u64,
    /// |L|·|R| over the datasets' entities, and the truly common pairs.
    entity_pairs: u64,
    truth: u64,
    edges: u64,
    stats: LinkageStats,
}

impl Layers {
    fn layers_s(&self) -> f64 {
        self.history_build_s
            + self.signature_s
            + self.candidates_s
            + self.score_s
            + self.match_s
            + self.threshold_s
    }
}

/// The traced pipeline: the same calls `link` makes, composed by hand
/// and timed one by one. Must produce a bit-identical output.
fn link_traced(kind: Kind, inp: &Inputs) -> (LinkageOutput, Layers) {
    let mut l = Layers::default();
    let start = Instant::now();
    let t = Instant::now();
    let prepared = inp.slim.prepare(&inp.left, &inp.right);
    l.history_build_s = t.elapsed().as_secs_f64();
    let candidates = match kind {
        Kind::Cab => prepared.all_pairs(),
        Kind::SmLsh => {
            let t = Instant::now();
            let filter = build_filter(&prepared, inp);
            l.signature_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let candidates = filter.candidates();
            l.candidates_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            drop(filter);
            l.signature_s += t.elapsed().as_secs_f64();
            candidates
        }
    };
    let t = Instant::now();
    let (edges, stats) = prepared.score_pairs(&candidates);
    l.score_s = t.elapsed().as_secs_f64();
    l.edges = edges.len() as u64;
    l.stats = stats;
    assert_eq!(
        inp.slim.config().matching_method,
        MatchingMethod::Greedy,
        "the traced pipeline composes the greedy matcher"
    );
    let t = Instant::now();
    let matching = greedy_max_matching(&edges);
    l.match_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let weights: Vec<f64> = matching.iter().map(|e| e.weight).collect();
    let threshold = select_threshold(&weights, inp.slim.config().threshold_method);
    let links = match &threshold {
        Some(th) => matching
            .iter()
            .filter(|e| e.weight >= th.threshold)
            .copied()
            .collect(),
        None => matching.clone(),
    };
    l.threshold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    drop(prepared);
    l.history_build_s += t.elapsed().as_secs_f64();
    let out = LinkageOutput {
        links,
        num_edges: edges.len(),
        matching,
        threshold,
        stats,
        elapsed: start.elapsed(),
    };
    l.wall_s = start.elapsed().as_secs_f64();
    // Counted after the clock stops: not part of the pipeline.
    l.candidate_pairs = candidates.len() as u64;
    l.truth_in_candidates = candidates
        .iter()
        .filter(|(u, v)| inp.truth.get(u) == Some(v))
        .count() as u64;
    l.entity_pairs = (inp.left.num_entities() * inp.right.num_entities()) as u64;
    l.truth = inp.truth.len() as u64;
    (out, l)
}

/// Everything observable of a linkage output except its wall time,
/// compared bit for bit (a threshold's expected metrics may be NaN).
fn same_output(a: &LinkageOutput, b: &LinkageOutput) -> bool {
    let bits = |o: &LinkageOutput| {
        o.threshold.map(|t| {
            [
                t.threshold,
                t.expected_precision,
                t.expected_recall,
                t.expected_f1,
            ]
            .map(f64::to_bits)
        })
    };
    a.links == b.links
        && a.matching == b.matching
        && a.num_edges == b.num_edges
        && bits(a) == bits(b)
        && a.stats == b.stats
}

pub fn run(kind: Kind, seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut o = Outcome::new();
    let (inputs, setup_s) = timed_setup(|| setup(kind, seed));
    o.set("setup_s", setup_s);

    let mut reference: Vec<Option<LinkageOutput>> = vec![None; inputs.len()];
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut traced: Vec<(f64, Layers)> = Vec::new();
    let mut reads = ReadStats::default();
    let mut server_hist = slim_telemetry::Histogram::new();
    // Every sample is linked at least once; the traced run needs an
    // untraced and a traced iteration at least.
    repeat_for(budget, inputs.len().max(2), |i| {
        let inp = &inputs[i % inputs.len()];
        // The traced run alternates untraced and traced iterations so
        // the tracing overhead is measured under the same conditions.
        let traced_iter = trace && i % 2 == 1;
        let epoch = EpochPointer::new();
        let server = LinkQueryServer::bind("127.0.0.1:0", epoch.clone()).expect("bind");
        let reader = Reader::start(server.local_addr(), inp.records, inp.query_ids.clone());
        let t0 = Instant::now();
        let (out, layers) = if traced_iter {
            let (out, layers) = link_traced(kind, inp);
            (out, Some(layers))
        } else {
            (link(kind, inp), None)
        };
        let wall_s = layers.map_or_else(|| t0.elapsed().as_secs_f64(), |l| l.wall_s);
        epoch.publish(Arc::new(LinkSnapshot {
            epoch: 1,
            events: inp.records,
            links: out.links.clone(),
            threshold: out.threshold.map(|t| t.threshold),
            frontier: None,
        }));
        let mut log = reader.finish();
        server_hist.merge(&server.report().query_latency);
        drop(server);

        // Every record is handed over when the link starts.
        reads.add(&mut o, i, &mut log, &[(inp.records, t0)]);
        o.count_ops(1, 0);
        match &reference[i % inputs.len()] {
            None => reference[i % inputs.len()] = Some(out.clone()),
            Some(r) => o.check(same_output(r, &out), || {
                format!("iteration {i}: output differs from the sample's first link")
            }),
        }
        eprintln!(
            "iteration {i}: {:.3} s{}",
            wall_s,
            if traced_iter { " (traced)" } else { "" }
        );
        match layers {
            Some(layers) => traced.push((wall_s, layers)),
            None => {
                walls.push(wall_s);
                rates.push(inp.records as f64 / wall_s);
            }
        }
    });
    let reference: Vec<LinkageOutput> = reference
        .into_iter()
        .map(|r| r.expect("every sample was linked"))
        .collect();
    // The hand-composed calls must reproduce the library pipeline. The
    // first iteration is always untraced, so check its sample once more
    // here (with 16 samples, alternation alone never traces the sample
    // an untraced iteration linked).
    let (composed, _) = link_traced(kind, &inputs[0]);
    o.check(same_output(&reference[0], &composed), || {
        "composed public calls differ from the library pipeline".into()
    });
    o.count_ops(1, 0);

    // Quality is the mean over the run's samples, each weighing the same.
    let quality: Vec<_> = inputs
        .iter()
        .zip(&reference)
        .map(|(inp, out)| slim_eval::evaluate_edges(&out.links, &inp.truth))
        .collect();
    let mean = |f: &dyn Fn(&slim_eval::LinkageMetrics) -> f64| {
        quality.iter().map(f).sum::<f64>() / quality.len() as f64
    };
    let link_s = median(&walls);
    o.set("link_s", link_s);
    o.set("ingest_events_per_s", median(&rates));
    o.set("precision", mean(&|q| q.precision));
    o.set("recall", mean(&|q| q.recall));
    reads.report(&mut o);
    o.set("serve.server_p50_us", server_hist.p50() as f64 / 1e3);
    o.set("serve.server_p99_us", server_hist.p99() as f64 / 1e3);
    o.set("serve.epochs_published", 1.0);
    if trace {
        report_layers(&mut o, kind, &traced, link_s);
    }
    o
}

fn report_layers(o: &mut Outcome, kind: Kind, traced: &[(f64, Layers)], untraced_s: f64) {
    let med =
        |f: &dyn Fn(&Layers) -> f64| median(&traced.iter().map(|(_, l)| f(l)).collect::<Vec<_>>());
    let wall = median(&traced.iter().map(|(w, _)| *w).collect::<Vec<_>>());
    let comparisons = |l: &Layers| l.stats.record_pair_comparisons.max(1) as f64;
    o.set("core.history_build_s", med(&|l| l.history_build_s));
    o.set("core.score_s", med(&|l| l.score_s));
    o.set("core.record_pair_comparisons", med(&comparisons));
    o.set(
        "core.score_ns_per_comparison",
        med(&|l| l.score_s * 1e9 / comparisons(l)),
    );
    o.set(
        "core.edge_yield",
        med(&|l| l.edges as f64 / l.stats.scored_entity_pairs.max(1) as f64),
    );
    o.set("core.match_s", med(&|l| l.match_s));
    o.set("core.threshold_s", med(&|l| l.threshold_s));
    if kind == Kind::SmLsh {
        o.set("lsh.signature_s", med(&|l| l.signature_s));
        o.set("lsh.candidates_s", med(&|l| l.candidates_s));
        o.set("lsh.candidate_pairs", med(&|l| l.candidate_pairs as f64));
        o.set(
            "lsh.pruning_ratio",
            med(&|l| l.candidate_pairs as f64 / l.entity_pairs.max(1) as f64),
        );
        o.set(
            "lsh.truth_in_candidates_ratio",
            med(&|l| l.truth_in_candidates as f64 / l.truth.max(1) as f64),
        );
    }
    o.set("trace.overhead_ratio", wall / untraced_s);
    o.set("trace.unattributed_s", med(&|l| l.wall_s - l.layers_s()));
}
