//! The open-loop link-query reader and the freshness computation.
//!
//! One reader thread per measured iteration sends `EPOCH` / `LINKS` /
//! `THRESHOLD` queries to a `LinkQueryServer` on a fixed schedule
//! (independent users: it never slows down because the server does)
//! and times each reply from the query's *scheduled* send time, so a
//! stall is charged to every query it delays. `EPOCH` replies double as
//! the visibility probe for freshness.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::measure::{median, quantile_ns, Outcome};

/// Query rate of the reader: far below the server's capacity (tens of
/// thousands of queries per second on loopback), so latency measures
/// the read path beside ingest rather than a saturated server.
const QUERY_RATE_HZ: f64 = 2_000.0;

/// How long the reader waits for the final epoch after the writer side
/// has finished before it gives up and counts the run as failed.
const FINAL_EPOCH_GRACE: Duration = Duration::from_secs(5);

/// What one reader observed.
#[derive(Default)]
pub struct ReaderLog {
    /// Per query: reply time minus scheduled send time, nanoseconds.
    pub latency_ns: Vec<u64>,
    /// Per query: actual send time minus scheduled send time.
    pub late_ns: Vec<u64>,
    /// `(reply time, events)` of every `EPOCH` reply, in order.
    pub epochs: Vec<(Instant, u64)>,
    /// Queries without an `OK` reply (an `ERR`, a malformed reply, or a
    /// dead connection).
    pub failed: u64,
    /// The reader saw an epoch covering every event.
    pub saw_final: bool,
}

/// A running reader; [`Reader::finish`] stops it and returns its log.
pub struct Reader {
    done: Arc<AtomicBool>,
    handle: JoinHandle<ReaderLog>,
}

impl Reader {
    /// Connects to `addr` and starts querying. The reader stops once an
    /// `EPOCH` reply reports `final_events` events, or
    /// [`FINAL_EPOCH_GRACE`] after [`Reader::finish`] is called.
    /// `entities` are the ids `LINKS` queries cycle through.
    pub fn start(addr: SocketAddr, final_events: u64, entities: Vec<u64>) -> Self {
        let conn = TcpStream::connect(addr).expect("connect the query reader");
        conn.set_nodelay(true).expect("disable Nagle on the reader");
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let handle = std::thread::Builder::new()
            .name("query-reader".into())
            .spawn(move || run(conn, final_events, &entities, &flag))
            .expect("spawn the query reader");
        Self { done, handle }
    }

    /// Signals that no further epochs will be published and joins.
    pub fn finish(self) -> ReaderLog {
        self.done.store(true, Ordering::SeqCst);
        self.handle.join().expect("query reader panicked")
    }
}

fn run(conn: TcpStream, final_events: u64, entities: &[u64], done: &AtomicBool) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut reader = BufReader::new(conn.try_clone().expect("clone reader socket"));
    let mut writer = conn;
    let period = Duration::from_secs_f64(1.0 / QUERY_RATE_HZ);
    let start = Instant::now();
    let mut done_at: Option<Instant> = None;
    let mut line = String::new();
    for k in 0u32.. {
        let due = start + period * k;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        // Every other query is an EPOCH probe: ~1 ms visibility resolution.
        let query = match k % 4 {
            0 | 2 => "EPOCH\n".to_string(),
            1 => format!("LINKS {}\n", entities[(k as usize / 4) % entities.len()]),
            _ => "THRESHOLD\n".to_string(),
        };
        let ok = writer.write_all(query.as_bytes()).is_ok() && {
            line.clear();
            matches!(reader.read_line(&mut line), Ok(n) if n > 0) && line.starts_with("OK")
        };
        let replied = Instant::now();
        if !ok {
            log.failed += 1;
            break;
        }
        if query.starts_with("LINKS") {
            let rows: usize = line[2..].trim().parse().unwrap_or(0);
            let mut row = String::new();
            for _ in 0..rows {
                row.clear();
                if reader.read_line(&mut row).unwrap_or(0) == 0 {
                    log.failed += 1;
                    return log;
                }
            }
        }
        log.latency_ns.push((replied - due).as_nanos() as u64);
        log.late_ns.push((sent - due).as_nanos() as u64);
        if query.starts_with("EPOCH") {
            let events = line
                .split_whitespace()
                .find_map(|t| t.strip_prefix("events="))
                .and_then(|v| v.parse::<u64>().ok());
            match events {
                Some(events) => {
                    log.epochs.push((replied, events));
                    if events >= final_events {
                        log.saw_final = true;
                        return log;
                    }
                }
                None => log.failed += 1,
            }
        }
        if done.load(Ordering::SeqCst) {
            let at = *done_at.get_or_insert(replied);
            if replied - at > FINAL_EPOCH_GRACE {
                return log;
            }
        }
    }
    log
}

/// The reader-side metrics of a run. Percentiles are taken per measured
/// iteration and the run reports their median, so one iteration hit by
/// a burst of host noise does not set the run's tail.
#[derive(Default)]
pub struct ReadStats {
    fresh_p50: Vec<f64>,
    fresh_p99: Vec<f64>,
    query_p50: Vec<f64>,
    query_p99: Vec<f64>,
    late_p99: Vec<f64>,
}

impl ReadStats {
    /// Folds in one iteration: its reader log, and the hand-off log of
    /// the events it fed (see [`freshness_ns`]). Counts the queries as
    /// attempted operations and fails the run if the reader never saw
    /// the final epoch.
    pub fn add(
        &mut self,
        o: &mut Outcome,
        i: usize,
        log: &mut ReaderLog,
        handoff: &[(u64, Instant)],
    ) {
        o.count_ops(log.latency_ns.len() as u64 + log.failed, log.failed);
        o.check(log.saw_final, || {
            format!("iteration {i}: the reader never saw the final epoch")
        });
        let mut fresh = Vec::new();
        freshness_ns(handoff, &log.epochs, &mut fresh);
        if !fresh.is_empty() {
            self.fresh_p50
                .push(quantile_ns(&mut fresh, 0.50) as f64 / 1e6);
            self.fresh_p99
                .push(quantile_ns(&mut fresh, 0.99) as f64 / 1e6);
        }
        if !log.latency_ns.is_empty() {
            self.query_p50
                .push(quantile_ns(&mut log.latency_ns, 0.50) as f64 / 1e3);
            self.query_p99
                .push(quantile_ns(&mut log.latency_ns, 0.99) as f64 / 1e3);
            self.late_p99
                .push(quantile_ns(&mut log.late_ns, 0.99) as f64 / 1e6);
        }
    }

    /// Sets the freshness and query metrics and the generator's lateness.
    /// The client-side p99 is a per-layer metric: on a 2-core shared
    /// host its run-to-run spread is far wider than any bound a
    /// regression check could use.
    pub fn report(&self, o: &mut Outcome) {
        o.set("freshness_p50_ms", median(&self.fresh_p50));
        o.set("freshness_p99_ms", median(&self.fresh_p99));
        o.set("query_p50_us", median(&self.query_p50));
        o.set("serve.client_p99_us", median(&self.query_p99));
        o.set("serve.query_gen_late_ms", median(&self.late_p99));
    }
}

/// Freshness samples in nanoseconds, one per event: from the hand-off
/// of the chunk holding event `i` to the first `EPOCH` reply whose
/// epoch covers it (`events > i`). `handoff` holds `(events handed off
/// so far, time)` per chunk, in order. Events no observed epoch covers
/// are skipped (the run then fails on `saw_final`).
fn freshness_ns(handoff: &[(u64, Instant)], epochs: &[(Instant, u64)], out: &mut Vec<u64>) {
    let mut next_epoch = 0;
    let mut first = 0u64;
    for &(upto, handed) in handoff {
        for i in first..upto {
            while next_epoch < epochs.len() && epochs[next_epoch].1 <= i {
                next_epoch += 1;
            }
            let Some(&(seen, _)) = epochs.get(next_epoch) else {
                return;
            };
            out.push(seen.saturating_duration_since(handed).as_nanos() as u64);
        }
        first = upto;
    }
}

/// Events per second over the last quarter of a stream divided by the
/// same over the first quarter: 1 when per-event cost stays flat as
/// state grows, below 1 when ingest slows down over the run. Progress
/// is read from the `EPOCH` replies — how many events the served
/// epochs cover, and when — so it is the engine's rate, not how fast
/// socket buffers absorb the feed.
pub fn rate_last_quarter_ratio(epochs: &[(Instant, u64)], start: Instant) -> f64 {
    let Some(&(_, total)) = epochs.last() else {
        return 0.0;
    };
    let reached = |events: u64| {
        epochs
            .iter()
            .find(|(_, seen)| *seen >= events)
            .map(|(t, _)| *t)
            .expect("the last epoch covers every event")
    };
    let quarter = (total / 4) as f64;
    let first = quarter / (reached(total / 4) - start).as_secs_f64();
    let last = quarter / (reached(total) - reached(total - total / 4)).as_secs_f64();
    last / first
}
