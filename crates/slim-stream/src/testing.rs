//! Deterministic test doubles for the ingestion front-end, shared by
//! unit tests, the integration suites (`tests/ingest_equivalence.rs`),
//! and the bench smoke paths.
//!
//! The two flakiness sources a streaming harness usually drags into CI
//! are **sleeps** (to "let the producer catch up") and the **wall
//! clock** (rate pacing). Neither appears here: [`ScriptedSource`]
//! replays an exact script of batches, stalls, EOF, and errors, and
//! [`VirtualClock`] is an explicitly advanced clock that plugs into
//! [`crate::source::SyntheticSource`]'s rate control.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use crate::event::StreamEvent;
use crate::source::channel::Sender;
use crate::source::{Clock, ConnMessage, FanIn, SourcePoll, StreamSource};

/// One step of a [`ScriptedSource`] script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptStep {
    /// Deliver these events (in this delivery order) as one batch.
    Batch(Vec<StreamEvent>),
    /// Report [`SourcePoll::Pending`] for this many polls.
    Stall(u32),
    /// Fail the stream with this error.
    Error(String),
}

/// A source that replays a fixed script: batches are delivered exactly
/// as written (split only when a poll asks for fewer events), stalls
/// surface as `Pending` the scripted number of times, and the script's
/// end is EOF. Completely deterministic — the delivered sequence never
/// depends on thread timing.
#[derive(Debug)]
pub struct ScriptedSource {
    steps: std::collections::VecDeque<ScriptStep>,
    /// Remainder of a batch a smaller `max` split.
    carry: Vec<StreamEvent>,
}

impl ScriptedSource {
    /// A source replaying `steps` in order.
    pub fn new(steps: Vec<ScriptStep>) -> Self {
        Self {
            steps: steps.into(),
            carry: Vec::new(),
        }
    }
}

/// Shorthand: delivers `events` in batches of `batch` with no stalls.
pub fn script(events: Vec<StreamEvent>, batch: usize) -> ScriptedSource {
    ScriptedSource::new(
        events
            .chunks(batch.max(1))
            .map(|c| ScriptStep::Batch(c.to_vec()))
            .collect(),
    )
}

impl StreamSource for ScriptedSource {
    fn next_batch(&mut self, max: usize) -> Result<SourcePoll, String> {
        let max = max.max(1);
        loop {
            if !self.carry.is_empty() {
                let n = self.carry.len().min(max);
                let rest = self.carry.split_off(n);
                let batch = std::mem::replace(&mut self.carry, rest);
                return Ok(SourcePoll::Batch(batch));
            }
            match self.steps.front_mut() {
                None => return Ok(SourcePoll::End),
                Some(ScriptStep::Stall(n)) => {
                    if *n == 0 {
                        self.steps.pop_front();
                        continue;
                    }
                    *n -= 1;
                    return Ok(SourcePoll::Pending);
                }
                Some(ScriptStep::Error(_)) => {
                    let Some(ScriptStep::Error(e)) = self.steps.pop_front() else {
                        unreachable!("checked above");
                    };
                    return Err(e);
                }
                Some(ScriptStep::Batch(_)) => {
                    let Some(ScriptStep::Batch(events)) = self.steps.pop_front() else {
                        unreachable!("checked above");
                    };
                    if events.is_empty() {
                        continue;
                    }
                    self.carry = events;
                }
            }
        }
    }
}

/// A deterministic multi-connection fan-in tier: stages of scripted
/// connections, each playing its own [`ScriptStep`] schedule on its own
/// thread through the shared MPSC channel — the test double for
/// [`crate::source::TcpIngestTier`] behind the same
/// [`crate::source::FanIn`] seam.
///
/// Within a stage every connection `Join`s before any of them delivers
/// an event (an internal barrier), so the frontier merge knows all
/// participants up front; stages run strictly one after another (the
/// next spawns only when every thread of the current one has finished),
/// so a later stage's `Join`s are enqueued after *all* of an earlier
/// stage's messages — mid-stream joins and leaves exercise churn
/// without manufacturing nondeterministic lateness. Within a stage,
/// thread interleaving is deliberately free: that schedule freedom is
/// exactly what the equivalence property tests quantify over.
///
/// Step semantics per connection: `Batch` delivers its events in order,
/// `Stall` yields the thread that many times (schedule perturbation,
/// not wall-time), and `Error` kills the connection — it leaves
/// immediately, the remaining steps unplayed (death churn; never a
/// drive failure).
#[derive(Debug)]
pub struct ScriptedConnections {
    /// `stages[s][c]` = the script of stage `s`'s connection `c`.
    /// Connection ids are assigned globally in stage-then-index order.
    stages: Vec<Vec<Vec<ScriptStep>>>,
}

impl ScriptedConnections {
    /// A tier playing `stages` sequentially, each stage's connections
    /// concurrently.
    pub fn new(stages: Vec<Vec<Vec<ScriptStep>>>) -> Self {
        Self { stages }
    }

    /// A tier with every connection live at once.
    pub fn single_stage(conns: Vec<Vec<ScriptStep>>) -> Self {
        Self::new(vec![conns])
    }
}

impl FanIn for ScriptedConnections {
    fn run(self, tx: Sender<ConnMessage>) -> Result<(), String> {
        let mut next_conn = 0u64;
        for stage in self.stages {
            if stage.is_empty() {
                continue;
            }
            let base = next_conn;
            next_conn += stage.len() as u64;
            let all_joined = Barrier::new(stage.len());
            std::thread::scope(|scope| {
                for (i, steps) in stage.into_iter().enumerate() {
                    let tx = tx.clone();
                    let all_joined = &all_joined;
                    scope.spawn(move || play_connection(base + i as u64, steps, &tx, all_joined));
                }
            });
        }
        Ok(())
    }
}

/// One scripted connection's life: `Join`, barrier, the script, then
/// `Leave`. Send failures mean the receiver (the drive) is gone — the
/// barrier is still honored so sibling threads cannot deadlock.
fn play_connection(
    conn: u64,
    steps: Vec<ScriptStep>,
    tx: &Sender<ConnMessage>,
    all_joined: &Barrier,
) {
    let joined = tx.send(ConnMessage::Join { conn }).is_ok();
    all_joined.wait();
    if !joined {
        return;
    }
    for step in steps {
        match step {
            ScriptStep::Batch(events) => {
                let batch = events
                    .into_iter()
                    .map(|event| ConnMessage::Event { conn, event });
                if tx.send_all(batch).is_err() {
                    return;
                }
            }
            ScriptStep::Stall(n) => {
                for _ in 0..n {
                    std::thread::yield_now();
                }
            }
            // The connection dies mid-script: everything after is lost,
            // but the Leave below still reports the departure (a real
            // reader thread does the same on an IO error).
            ScriptStep::Error(_) => break,
        }
    }
    let _ = tx.send(ConnMessage::Leave {
        conn,
        malformed_lines: 0,
    });
}

/// A deterministic fault-injection plan for the crash/recover harness:
/// instead of killing real processes (slow, racy, unportable), a drive
/// with a plan installed via
/// [`crate::StreamEngine::set_fault_plan`] simulates the failure at an
/// exact, repeatable point in the accepted-event sequence — so CI
/// exercises crash recovery sleep-free and bit-reproducibly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Abort the drive (as a crash would) immediately after accepting
    /// this many events from the source. The drive returns an error;
    /// the engine is left mid-ingest like a killed process's heap —
    /// recovery must come from the checkpoint directory.
    pub kill_at_event: Option<u64>,
    /// Truncate the **last checkpoint written before the kill** to this
    /// many bytes (a torn write: the crash hit mid-`write`). Requires
    /// `kill_at_event`.
    pub torn_write_after: Option<u64>,
    /// Flip one bit at this byte offset in the last checkpoint written
    /// before the kill (media corruption under an intact length).
    /// Requires `kill_at_event`.
    pub bit_flip_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that kills the drive after `n` accepted events, with
    /// intact checkpoints.
    pub fn kill_at(n: u64) -> Self {
        Self {
            kill_at_event: Some(n),
            ..Self::default()
        }
    }
}

/// Writes a checkpoint of an engine fresh out of
/// [`crate::StreamEngine::recover`] — its restored state plus the pump
/// state its next drive would resume from — into the engine's
/// checkpoint policy directory (install one first with
/// [`crate::StreamEngine::set_checkpoint_policy`]). The format's
/// fixed-point check: the new file must equal the one recovered from,
/// byte for byte. Errors when the engine holds no recovered state or
/// has no policy.
pub fn checkpoint_recovered(engine: &mut crate::StreamEngine) -> Result<(), String> {
    engine.checkpoint_resume_point()
}

/// A manually advanced monotone clock for rate-control tests. Cloning
/// shares the underlying time, so a test can hold one handle while the
/// source owns another.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now_ns: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.now_ns.fetch_add(ns, Ordering::SeqCst);
    }

    /// Advances the clock by `ms` milliseconds.
    pub fn advance_ms(&self, ms: u64) {
        self.advance_ns(ms * 1_000_000);
    }
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Side;
    use geocell::LatLng;
    use slim_core::{EntityId, Timestamp};

    fn ev(t: i64) -> StreamEvent {
        StreamEvent::new(
            Side::Left,
            EntityId(1),
            LatLng::from_degrees(0.0, 0.0),
            Timestamp(t),
        )
    }

    #[test]
    fn script_replays_batches_stalls_and_eof() {
        let mut src = ScriptedSource::new(vec![
            ScriptStep::Batch(vec![ev(1), ev(2), ev(3)]),
            ScriptStep::Stall(2),
            ScriptStep::Batch(vec![ev(4)]),
        ]);
        // A smaller `max` splits the batch; the remainder carries over.
        assert_eq!(
            src.next_batch(2).unwrap(),
            SourcePoll::Batch(vec![ev(1), ev(2)])
        );
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::Batch(vec![ev(3)]));
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::Pending);
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::Pending);
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::Batch(vec![ev(4)]));
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::End);
        assert_eq!(src.next_batch(2).unwrap(), SourcePoll::End);
    }

    #[test]
    fn scripted_error_fails_the_stream() {
        let mut src = ScriptedSource::new(vec![ScriptStep::Error("boom".into())]);
        assert_eq!(src.next_batch(1).unwrap_err(), "boom");
    }

    /// The fan-in protocol invariants the equivalence tests lean on:
    /// per-connection Join→events→Leave bracketing in channel FIFO
    /// order, all of a stage's Joins before any of its events, stage
    /// barriers (later Joins after all earlier messages), and `Error`
    /// as death churn (early Leave, remaining steps lost).
    #[test]
    fn scripted_connections_honor_the_protocol_order() {
        use crate::source::channel;

        let stage0 = vec![
            vec![
                ScriptStep::Batch(vec![ev(10), ev(20)]),
                ScriptStep::Stall(3),
                ScriptStep::Batch(vec![ev(30)]),
            ],
            vec![
                ScriptStep::Batch(vec![ev(15)]),
                ScriptStep::Error("dies".into()),
                ScriptStep::Batch(vec![ev(99)]), // never delivered
            ],
        ];
        let stage1 = vec![vec![ScriptStep::Batch(vec![ev(40)])]];
        let tier = ScriptedConnections::new(vec![stage0, stage1]);
        let (tx, rx) = channel::bounded::<ConnMessage>(8);
        let producer = std::thread::spawn(move || tier.run(tx));
        let mut msgs = Vec::new();
        let mut buf = Vec::new();
        while rx.recv_many(&mut buf, 16) {
            msgs.append(&mut buf);
        }
        producer.join().unwrap().unwrap();

        let pos = |pred: &dyn Fn(&ConnMessage) -> bool| msgs.iter().position(pred);
        let join_of = |c: u64| pos(&move |m| matches!(m, ConnMessage::Join { conn } if *conn == c));
        let leave_of =
            |c: u64| pos(&move |m| matches!(m, ConnMessage::Leave { conn, .. } if *conn == c));
        let first_event =
            pos(&|m| matches!(m, ConnMessage::Event { .. })).expect("events delivered");
        // Stage 0: both joins precede any event.
        assert!(join_of(0).unwrap() < first_event);
        assert!(join_of(1).unwrap() < first_event);
        // Stage barrier: conn 2 joins only after both stage-0 leaves.
        assert!(join_of(2).unwrap() > leave_of(0).unwrap());
        assert!(join_of(2).unwrap() > leave_of(1).unwrap());
        // Death churn: conn 1 left early, its post-error event is lost.
        let times: Vec<i64> = msgs
            .iter()
            .filter_map(|m| match m {
                ConnMessage::Event { event, .. } => Some(event.time.secs()),
                _ => None,
            })
            .collect();
        assert!(!times.contains(&99), "post-death events must be lost");
        let mut sorted = times;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 15, 20, 30, 40]);
    }

    #[test]
    fn virtual_clock_advances_on_demand() {
        let clock = VirtualClock::new();
        let handle = clock.clone();
        assert_eq!(clock.now_ns(), 0);
        handle.advance_ms(3);
        assert_eq!(clock.now_ns(), 3_000_000);
    }
}
