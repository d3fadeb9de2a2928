//! The streaming workloads over the SM check-in replay.
//!
//! * `stream-serve`: the replay, pre-rendered as CSV wire lines, is
//!   written by one generator thread as fast as one loopback connection
//!   accepts into `TcpLineSource` → `StreamEngine::drive`, while the
//!   open-loop reader queries a `LinkQueryServer` on the engine's
//!   epochs. No checkpointing.
//! * `stream-ckpt`: the same events and engine configuration through an
//!   in-process `CsvReplaySource` with checkpointing on, the same
//!   reader beside it; then `StreamEngine::recover` from the checkpoint
//!   directory and a resumed drive over the rest of the stream, which
//!   must end bit-identical to the unbroken run.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use slim_core::{EntityId, LinkageStats};
use slim_datagen::Scenario;
use slim_lsh::LshConfig;
use slim_stream::source::{format_event_line, parse_wire_line, SourcePoll};
use slim_stream::{
    merge_datasets, CsvReplaySource, DriveOptions, IngestReport, LinkQueryServer, LinkSnapshot,
    Side, StreamConfig, StreamEngine, StreamEvent, StreamLshConfig, StreamSource, StreamStats,
    TcpLineSource, TickPolicy, WireFormat,
};
use slim_telemetry::Histogram;

use crate::batch::INTERSECTION;
use crate::measure::{median, repeat_for, timed_setup, Outcome};
use crate::reader::{rate_last_quarter_ratio, ReadStats, Reader, ReaderLog};

/// Which streaming workload.
#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Serve,
    Ckpt,
}

/// SM at scale 0.25: ~5k + 5k users and ~112k check-in events over the
/// same ~26 days as the batch scenario — short enough for several
/// measured drives per run.
const STREAM_SCALE: f64 = 0.25;
/// Engine state shards and pool workers, sized for a 2-core host.
const SHARDS: usize = 2;
const WORKERS: usize = 2;
/// A checkpoint every this many consumed events, keeping the newest 2.
const CKPT_EVERY: u64 = 20_000;
const CKPT_KEEP: usize = 2;
/// Events per generator write.
const WIRE_CHUNK: usize = 256;

fn config(shards: usize, workers: usize, telemetry: bool) -> StreamConfig {
    StreamConfig {
        // Check-ins arrive ~1 per 2 days per entity: a 14-day sliding
        // window (1344 × 15 min) keeps entities above the min-records
        // filter while expiry still runs over the ~26-day replay. The
        // LSH ring (28 × 48 windows) spans the same 14 days.
        window_capacity: Some(1344),
        refresh_every: 0,
        num_shards: shards,
        num_workers: workers,
        telemetry,
        lsh: Some(StreamLshConfig {
            spans: 28,
            base: LshConfig {
                num_buckets: 1 << 20,
                threshold: 0.7,
                ..LshConfig::default()
            },
        }),
        ..StreamConfig::default()
    }
}

fn drive_options() -> DriveOptions {
    DriveOptions {
        queue_cap: 8_192,
        source_batch: 4_096,
        tick_policy: TickPolicy::Watermark { max_lag_secs: 0 },
        max_lag_secs: 0,
        ..DriveOptions::default()
    }
}

struct Inputs {
    events: Vec<StreamEvent>,
    /// `stream-serve` only: the wire bytes, one buffer per
    /// [`WIRE_CHUNK`] events.
    wire: Arc<Vec<Vec<u8>>>,
    truth: HashMap<EntityId, EntityId>,
    query_ids: Vec<u64>,
}

fn setup(kind: Kind, seed: u64) -> Inputs {
    let sample = Scenario::sm(STREAM_SCALE, seed).sample(INTERSECTION, seed);
    let mut events = merge_datasets(&sample.left, &sample.right);
    let mut wire = Vec::new();
    if kind == Kind::Serve {
        wire = events
            .chunks(WIRE_CHUNK)
            .map(|chunk| {
                let mut buf = Vec::with_capacity(chunk.len() * 48);
                for ev in chunk {
                    buf.extend_from_slice(format_event_line(ev).as_bytes());
                    buf.push(b'\n');
                }
                buf
            })
            .collect();
        // The wire format rounds coordinates, so what the engine is fed
        // (and what the oracle must replay) is the parsed lines.
        events = parse_wire(&wire);
    }
    let engine = StreamEngine::new(config(SHARDS, WORKERS, false)).expect("valid config");
    drop(LinkQueryServer::bind("127.0.0.1:0", engine.epoch_pointer()).expect("bind query server"));
    drop(engine);
    Inputs {
        query_ids: sample.left.entities_sorted().iter().map(|e| e.0).collect(),
        events,
        wire: Arc::new(wire),
        truth: sample.ground_truth,
    }
}

/// Parses rendered wire chunks back into events.
fn parse_wire(wire: &[Vec<u8>]) -> Vec<StreamEvent> {
    let mut events = Vec::new();
    for chunk in wire {
        let text = std::str::from_utf8(chunk).expect("rendered lines are UTF-8");
        for line in text.lines() {
            let ev = parse_wire_line(WireFormat::Csv, line).expect("rendered lines parse");
            events.extend(ev);
        }
    }
    events
}

/// A source wrapper stamping each batch it hands to the pump: the
/// hand-off clock of freshness. For the TCP feed this is when the
/// parsed lines reach the engine side, not when the generator's write
/// returned — under a writer that saturates the socket, the latter
/// measures how many megabytes the kernel's autotuned socket buffers
/// hold, not the system.
struct Stamped<S> {
    inner: S,
    handed: u64,
    log: Arc<Mutex<Vec<(u64, Instant)>>>,
}

impl<S> Stamped<S> {
    fn new(inner: S, log: &Arc<Mutex<Vec<(u64, Instant)>>>) -> Self {
        Self {
            inner,
            handed: 0,
            log: Arc::clone(log),
        }
    }
}

impl<S: StreamSource> StreamSource for Stamped<S> {
    fn next_batch(&mut self, max: usize) -> Result<SourcePoll, String> {
        let poll = self.inner.next_batch(max)?;
        if let SourcePoll::Batch(b) = &poll {
            self.handed += b.len() as u64;
            let mut log = self.log.lock().expect("hand-off log poisoned");
            log.push((self.handed, Instant::now()));
        }
        Ok(poll)
    }
}

/// What one measured drive produced.
struct Drive {
    engine: StreamEngine,
    report: IngestReport,
    wall_s: f64,
    handoff: Vec<(u64, Instant)>,
    start: Instant,
    reader: ReaderLog,
    served: Histogram,
}

/// One measured drive with the reader running beside it: ingest every
/// event, close with a refresh, and wait for the reader to see the
/// final epoch.
fn measured_drive(kind: Kind, inp: &Inputs, telemetry: bool, ckpt_dir: Option<&Path>) -> Drive {
    let mut engine = StreamEngine::new(config(SHARDS, WORKERS, telemetry)).expect("valid config");
    if let Some(dir) = ckpt_dir {
        engine.set_checkpoint_policy(dir.to_path_buf(), CKPT_EVERY, CKPT_KEEP);
    }
    let server = LinkQueryServer::bind("127.0.0.1:0", engine.epoch_pointer()).expect("bind");
    let total = inp.events.len() as u64;
    let reader = Reader::start(server.local_addr(), total, inp.query_ids.clone());
    let opts = drive_options();
    let log = Arc::new(Mutex::new(Vec::new()));
    let (report, start) = match kind {
        Kind::Serve => {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind the feed");
            let addr = listener.local_addr().expect("feed address");
            let (go, wait) = mpsc::channel::<()>();
            let wire = Arc::clone(&inp.wire);
            let writer = std::thread::Builder::new()
                .name("feed-writer".into())
                .spawn(move || {
                    let (mut sock, _) = listener.accept().expect("accept the engine");
                    wait.recv().expect("start signal");
                    for chunk in wire.iter() {
                        sock.write_all(chunk).expect("write the feed");
                    }
                })
                .expect("spawn the feed writer");
            let tcp = TcpLineSource::connect(&addr.to_string()).expect("connect the feed");
            let source = Stamped::new(tcp, &log);
            let t0 = Instant::now();
            go.send(()).expect("writer is waiting");
            let report = engine.drive(source, &opts).expect("drive");
            writer.join().expect("feed writer panicked");
            (report, t0)
        }
        Kind::Ckpt => {
            let source = Stamped::new(CsvReplaySource::from_events(inp.events.clone()), &log);
            let t0 = Instant::now();
            (engine.drive(source, &opts).expect("drive"), t0)
        }
    };
    engine.refresh();
    let wall_s = start.elapsed().as_secs_f64();
    let handoff = std::mem::take(&mut *log.lock().expect("hand-off log poisoned"));
    let reader = reader.finish();
    let served = server.report().query_latency;
    drop(server);
    Drive {
        engine,
        report,
        wall_s,
        handoff,
        start,
        reader,
        served,
    }
}

/// Everything observable about an engine's end state. Flow
/// observations (`blocked_producer_ns`, `queue_high_watermark`) measure
/// thread interleaving, not the stream, so they are zeroed.
#[derive(PartialEq, Debug)]
struct EndState {
    snapshot: LinkSnapshot,
    links: Vec<slim_core::Edge>,
    stats: StreamStats,
    scoring: LinkageStats,
    candidate_pairs: usize,
}

fn end_state(engine: &StreamEngine) -> EndState {
    let mut stats = *engine.stats();
    stats.blocked_producer_ns = 0;
    stats.queue_high_watermark = 0;
    EndState {
        snapshot: (*engine.epoch_pointer().load()).clone(),
        links: engine.links().to_vec(),
        stats,
        scoring: *engine.scoring_stats(),
        candidate_pairs: engine.num_candidate_pairs(),
    }
}

/// The single-threaded oracle and baseline: a 1-shard × 1-worker engine
/// fed directly with `ingest_batch` up to each tick point, then
/// `refresh`. Under the `Watermark` policy with no lag the drive ticks
/// whenever an event opens a new temporal window, after serving every
/// earlier event; its EOF hands over the tail, and the run closes with
/// one more refresh.
struct Direct {
    state: EndState,
    wall_s: f64,
    ingest_s: f64,
    refresh_s: f64,
    tick_max_s: f64,
}

fn direct_replay(events: &[StreamEvent]) -> Direct {
    let cfg = config(1, 1, false);
    let width = cfg.slim.window_width_secs;
    let mut engine = StreamEngine::new(cfg).expect("valid config");
    let origin = events.first().map_or(0, |e| e.time.secs());
    let window = |ev: &StreamEvent| (ev.time.secs() - origin).div_euclid(width);
    let mut ticks: Vec<usize> = (1..events.len())
        .filter(|&i| window(&events[i]) > window(&events[i - 1]))
        .collect();
    ticks.push(events.len());
    let (mut ingest_s, mut refresh_s, mut tick_max_s) = (0.0f64, 0.0f64, 0.0f64);
    let start = Instant::now();
    let mut fed = 0;
    for upto in ticks {
        let t = Instant::now();
        engine.ingest_batch(&events[fed..upto]);
        ingest_s += t.elapsed().as_secs_f64();
        fed = upto;
        let t = Instant::now();
        engine.refresh();
        let tick = t.elapsed().as_secs_f64();
        refresh_s += tick;
        tick_max_s = tick_max_s.max(tick);
    }
    Direct {
        wall_s: start.elapsed().as_secs_f64(),
        state: end_state(&engine),
        ingest_s,
        refresh_s,
        tick_max_s,
    }
}

/// Size in bytes of the newest checkpoint file in `dir` (file names
/// carry the zero-padded consumed count, so the newest sorts last).
fn newest_checkpoint_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".slim"))
        .max_by_key(|e| e.file_name())
        .and_then(|e| e.metadata().ok())
        .map_or(0, |m| m.len())
}

/// The engine's counters and state gauges at the end of a drive. The
/// counters include what the drive's `IngestReport` folded in.
struct Gauges {
    stats: StreamStats,
    candidate_pairs: usize,
    live_edges: usize,
    tracked_entities: usize,
}

impl Gauges {
    fn of(engine: &StreamEngine) -> Self {
        Self {
            stats: *engine.stats(),
            candidate_pairs: engine.num_candidate_pairs(),
            live_edges: engine.num_live_edges(),
            tracked_entities: engine.num_tracked_entities(Side::Left)
                + engine.num_tracked_entities(Side::Right),
        }
    }
}

/// Per-layer readings of one traced drive.
#[derive(Default)]
struct Layers {
    wall_s: f64,
    phases: HashMap<&'static str, f64>,
    kernel_ns_per_window: f64,
    rate_ratio: f64,
    ckpt_write_p50_s: f64,
    ckpt_write_max_s: f64,
    ckpt_write_sum_s: f64,
}

pub fn run(kind: Kind, seed: u64, budget: Duration, trace: bool, scratch: &Path) -> Outcome {
    let mut o = Outcome::new();
    let (inp, setup_s) = timed_setup(|| setup(kind, seed));
    o.set("setup_s", setup_s);
    let total = inp.events.len() as u64;

    let mut walls = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let mut reads = ReadStats::default();
    let mut served = Histogram::new();
    let mut recover_s = Vec::new();
    let mut recover_bytes = 0u64;
    let mut reference: Option<EndState> = None;
    let mut last: Option<Gauges> = None;
    repeat_for(budget, if trace { 2 } else { 1 }, |i| {
        let traced_iter = trace && i % 2 == 1;
        let dir = scratch.join(format!("ckpt-{i}"));
        let ckpt_dir = (kind == Kind::Ckpt).then(|| {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create the checkpoint directory");
            dir.as_path()
        });
        let mut d = measured_drive(kind, &inp, traced_iter, ckpt_dir);

        let r = &d.report;
        let lost = total.saturating_sub(r.events_delivered) + r.late_events + r.malformed_lines;
        o.count_ops(total, lost);
        o.check(lost == 0, || {
            format!("iteration {i}: {lost} events lost, late or malformed")
        });
        reads.add(&mut o, i, &mut d.reader, &d.handoff);
        served.merge(&d.served);

        let state = end_state(&d.engine);
        o.check(state.snapshot.links == state.links, || {
            format!("iteration {i}: the last served epoch is not the engine's links")
        });
        if let Some(dir) = ckpt_dir {
            // Crash recovery: restore the newest checkpoint, resume the
            // same source past its consumed prefix, and compare.
            recover_bytes = newest_checkpoint_bytes(dir);
            let t = Instant::now();
            let recovered = StreamEngine::recover(config(SHARDS, WORKERS, false), dir);
            recover_s.push(t.elapsed().as_secs_f64());
            o.count_ops(1, recovered.is_err() as u64);
            match recovered {
                Ok(mut engine) => {
                    let source = CsvReplaySource::from_events(inp.events.clone());
                    engine
                        .drive(source, &drive_options())
                        .expect("resumed drive");
                    engine.refresh();
                    o.check(end_state(&engine) == state, || {
                        format!("iteration {i}: recovered run differs from the unbroken run")
                    });
                }
                Err(e) => o.check(false, || format!("iteration {i}: recovery failed: {e}")),
            }
            let _ = std::fs::remove_dir_all(dir);
        }
        match &reference {
            None => reference = Some(state),
            Some(r) => o.check(*r == state, || {
                format!("iteration {i}: end state differs from iteration 0")
            }),
        }
        eprintln!(
            "iteration {i}: {:.3} s{}",
            d.wall_s,
            if traced_iter { " (traced)" } else { "" }
        );
        if traced_iter {
            traced.push(layers_of(&d));
        } else {
            walls.push(d.wall_s);
        }
        last = Some(Gauges::of(&d.engine));
    });
    let reference = reference.expect("at least one iteration");

    let link_s = median(&walls);
    let q = slim_eval::evaluate_edges(&reference.snapshot.links, &inp.truth);
    o.set("link_s", link_s);
    o.set("ingest_events_per_s", total as f64 / link_s);
    o.set("precision", q.precision);
    o.set("recall", q.recall);
    reads.report(&mut o);

    // The 1×1 oracle gates `stream-serve` on every run; only the traced
    // run reports its timings as the single-threaded baseline.
    let direct = (kind == Kind::Serve).then(|| direct_replay(&inp.events));
    if let Some(direct) = &direct {
        o.check(direct.state == reference, || {
            let (a, b) = (&direct.state, &reference);
            format!(
                "the last served epoch differs from the 1-shard × 1-worker direct replay \
                 (equal: snapshot {} links {} stats {} scoring {} candidates {})",
                a.snapshot == b.snapshot,
                a.links == b.links,
                a.stats == b.stats,
                a.scoring == b.scoring,
                a.candidate_pairs == b.candidate_pairs,
            )
        });
    }
    if trace {
        let g = last.as_ref().expect("at least one iteration");
        let stats = &g.stats;
        let t = traced.last().expect("the traced run has traced iterations");
        let med = |f: &dyn Fn(&Layers) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let traced_wall = med(&|l| l.wall_s);
        if let Some(direct) = &direct {
            let t0 = Instant::now();
            std::hint::black_box(parse_wire(&inp.wire));
            o.set("source.wire_parse_s", t0.elapsed().as_secs_f64());
            o.set("source.pump_overhead_s", traced_wall - direct.wall_s);
            o.set("engine.ingest_batch_s", direct.ingest_s);
            o.set("engine.refresh_s", direct.refresh_s);
            o.set("engine.tick_max_ms", direct.tick_max_s * 1e3);
            o.set(
                "engine.direct_1x1_events_per_s",
                total as f64 / direct.wall_s,
            );
        }
        o.set(
            "source.blocked_producer_s",
            stats.blocked_producer_ns as f64 / 1e9,
        );
        o.set(
            "source.queue_high_watermark",
            stats.queue_high_watermark as f64,
        );
        o.set("source.late_events", stats.late_events as f64);
        o.set("source.malformed_lines", stats.malformed_lines as f64);
        o.set("source.rate_last_quarter_ratio", med(&|l| l.rate_ratio));
        for (metric, phase) in PHASE_METRICS {
            o.set(
                metric,
                med(&|l| l.phases.get(phase).copied().unwrap_or(0.0)),
            );
        }
        o.set(
            "engine.score_kernel_ns_per_window",
            med(&|l| l.kernel_ns_per_window),
        );
        o.set(
            "engine.dirty_visit_ratio",
            stats.dirty_pairs_visited as f64 / stats.cached_pairs_at_ticks.max(1) as f64,
        );
        o.set("engine.edges_patched", stats.edges_patched as f64);
        o.set(
            "engine.matching_region_size",
            stats.matching_region_size as f64,
        );
        o.set("engine.em_warm_iters", stats.em_warm_iters as f64);
        o.set("engine.steal_events", stats.steal_events as f64);
        o.set(
            "engine.worker_busy_skew",
            stats.max_worker_busy_ns as f64 / stats.min_worker_busy_ns.max(1) as f64,
        );
        o.set("engine.candidate_pairs", g.candidate_pairs as f64);
        o.set("engine.live_edges", g.live_edges as f64);
        o.set("engine.tracked_entities", g.tracked_entities as f64);
        o.set("serve.server_p50_us", served.p50() as f64 / 1e3);
        o.set("serve.server_p99_us", served.p99() as f64 / 1e3);
        o.set("serve.epochs_published", stats.snapshots_published as f64);
        if kind == Kind::Ckpt {
            let rec = median(&recover_s);
            o.set("ckpt.count", stats.checkpoints_written as f64);
            o.set(
                "ckpt.bytes_per_checkpoint",
                stats.checkpoint_bytes as f64 / stats.checkpoints_written.max(1) as f64,
            );
            o.set("ckpt.write_p50_ms", med(&|l| l.ckpt_write_p50_s) * 1e3);
            o.set("ckpt.write_max_ms", med(&|l| l.ckpt_write_max_s) * 1e3);
            o.set("ckpt.wall_share", med(&|l| l.ckpt_write_sum_s / l.wall_s));
            o.set("ckpt.recover_s", rec);
            o.set("ckpt.recover_mb_per_s", recover_bytes as f64 / 1e6 / rec);
        }
        o.set("trace.overhead_ratio", traced_wall / link_s);
        // Engine-thread spans (ticks) plus the pool phases of ingest,
        // whose busy time is summed over workers and so divided by them.
        let ingest: f64 = ["phase.bin", "phase.apply", "phase.expire", "phase.lsh"]
            .iter()
            .map(|p| t.phases.get(p).copied().unwrap_or(0.0))
            .sum();
        let tick = t.phases.get("tick").copied().unwrap_or(0.0);
        o.set(
            "trace.unattributed_s",
            t.wall_s - tick - ingest / WORKERS as f64,
        );
    }
    o
}

/// Per-layer metric ← `phase_histograms()` series (summed span time).
const PHASE_METRICS: [(&str, &str); 9] = [
    ("engine.bin_s", "phase.bin"),
    ("engine.apply_s", "phase.apply"),
    ("engine.expire_s", "phase.expire"),
    ("engine.lsh_s", "phase.lsh"),
    ("engine.rescore_s", "phase.rescore"),
    ("engine.edge_merge_s", "phase.edge_merge"),
    ("engine.match_s", "phase.match"),
    ("engine.threshold_s", "phase.threshold"),
    ("engine.tick_s", "tick"),
];

fn layers_of(d: &Drive) -> Layers {
    let phases = d
        .engine
        .phase_histograms()
        .into_iter()
        .map(|(name, h)| (name, h.sum() as f64 / 1e9))
        .collect();
    let kernel = d.engine.score_kernel_histogram();
    let ckpt = d.engine.checkpoint_write_histogram();
    Layers {
        wall_s: d.wall_s,
        phases,
        kernel_ns_per_window: kernel.sum() as f64 / kernel.count().max(1) as f64,
        rate_ratio: rate_last_quarter_ratio(&d.reader.epochs, d.start),
        ckpt_write_p50_s: ckpt.p50() as f64 / 1e9,
        ckpt_write_max_s: ckpt.max() as f64 / 1e9,
        ckpt_write_sum_s: ckpt.sum() as f64 / 1e9,
    }
}
