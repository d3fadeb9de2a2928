//! Crash-safe checkpointing: the durable on-disk image of a running
//! engine, written at a configurable event cadence and read back by
//! [`crate::StreamEngine::recover`] into a state whose every subsequent
//! observable — published epochs, served links, stats, finalized
//! output — is **bit-identical to an unbroken run**.
//!
//! # File format
//!
//! A checkpoint file is a magic header followed by CRC-framed sections:
//!
//! ```text
//! "SLIMCKPT" | version u32
//! [tag u32 | len u64 | crc32 u32 | payload]   META   (cadence + config fingerprint)
//! [tag u32 | len u64 | crc32 u32 | payload]   ENGINE (links, matcher, df, threshold…)
//! [tag u32 | len u64 | crc32 u32 | payload]   SHARDS (histories, rings, caches…)
//! [tag u32 | len u64 | crc32 u32 | payload]   PUMP   (reorder buffer, ticker, offset)
//! [tag u32 | len u64 | crc32 u32 | (empty)]   END
//! ```
//!
//! All integers are little-endian; floats travel as IEEE-754 bit
//! patterns (`to_bits`/`from_bits`), so recovery reproduces them
//! exactly. Every frame's CRC-32 (IEEE polynomial) is verified *before*
//! its payload is parsed, so a torn or bit-flipped file is rejected
//! with an error — never a panic — and the loader falls back to the
//! next-older file.
//!
//! # Write path
//!
//! The engine encodes the image straight from its live state into one
//! output buffer that it reuses across the checkpoints of a drive. Shard state is not
//! copied into an intermediate dump: for each collection the encoder
//! gathers keys with references (`(entity, store)`, `(pair, &map)`)
//! across shards, sorts only the keys into the canonical global order,
//! and writes every item from its own map — arena histories straight
//! from their column slices. Frames are written in place: the 16-byte
//! header is reserved, the payload appended behind it, and the length
//! patched in; a second pass ([`seal_frames`]) fills in each CRC with a
//! slice-by-8 table CRC-32. Decoding goes the other way, into
//! [`CheckpointState`], which recovery redistributes over the shards.
//!
//! # Atomic writes
//!
//! A checkpoint is written to a `.slim.tmp` sibling, fsynced, then
//! renamed into place (`ckpt-<consumed-events, zero-padded>.slim` — the
//! padding makes lexical order equal numeric order), followed by a
//! best-effort directory fsync. A failed write removes its temp file; a
//! crash mid-write leaves at worst a stale temp file, which the next
//! successful checkpoint's pruning deletes, never a half-renamed
//! checkpoint. A crash mid-*fsync* can leave a torn frame, which the
//! CRC catches at load.
//!
//! # Sharding
//!
//! Checkpoints are **shard-agnostic**: per-shard state is written in
//! one global canonical order (sorted by entity, pair, or `(side,
//! entity)` key), the scheduling counters that depend on the shard and
//! worker layout are recorded as zero, and recovery redistributes the
//! state by the deterministic entity hash
//! ([`crate::shard::entity_shard`]). The same consumed stream yields
//! the same file on every shard and worker count, and a checkpoint
//! written by a 4-shard engine recovers bit-identically on a 1-shard
//! one and vice versa.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use geocell::{CellId, LatLng};
use slim_core::gmm::{Component, Gmm2};
use slim_core::{Edge, EntityId, LinkageStats, Timestamp, WindowIdx};

use crate::adjacency::PairKey;
use crate::config::StreamConfig;
use crate::engine::StreamStats;
use crate::event::{Side, StreamEvent};
use crate::lsh::{RingDump, SpanRing};
use crate::shard::{BinnedEvent, EngineShard};
use crate::store::{HistoryDump, HistoryStore};
use crate::testing::FaultPlan;

/// File magic: the first 8 bytes of every checkpoint.
pub(crate) const MAGIC: &[u8; 8] = b"SLIMCKPT";
/// Format version; bumped on any wire-layout change.
pub(crate) const VERSION: u32 = 1;

const TAG_META: u32 = 1;
const TAG_ENGINE: u32 = 2;
const TAG_SHARDS: u32 = 3;
const TAG_PUMP: u32 = 4;
const TAG_END: u32 = 5;

/// Suffix of the temp file a checkpoint is written to before its rename.
const TMP_SUFFIX: &str = ".slim.tmp";

/// When and where the engine checkpoints, set via
/// [`crate::StreamEngine::set_checkpoint_policy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory checkpoint files are written into (created on first
    /// write if absent).
    pub dir: PathBuf,
    /// Write a checkpoint every `every` consumed events (> 0).
    pub every: u64,
    /// Retain the newest `keep` checkpoints; older ones are pruned
    /// after each successful write.
    pub keep: usize,
}

// ---------------------------------------------------------------------
// Checkpointed state
// ---------------------------------------------------------------------

/// Everything a checkpoint persists, as [`decode`] returns it to
/// [`crate::StreamEngine::recover`].
#[derive(Debug, Clone)]
pub(crate) struct CheckpointState {
    pub(crate) meta: MetaDump,
    pub(crate) engine: EngineDump,
    pub(crate) shards: ShardsDump,
    pub(crate) pump: ResumeState,
}

/// Header section: the resume offset and the configuration fingerprint
/// recovery validates against.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetaDump {
    /// Source events consumed (accepted prefix) at checkpoint time —
    /// the pump skips exactly this many arrivals on resume.
    pub(crate) consumed: u64,
    pub(crate) fingerprint: ConfigFingerprint,
}

/// The configuration parameters that shape checkpointed state. A
/// recovery under a config with a different fingerprint is an error —
/// the serialized windows, bins, and rings would be meaningless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ConfigFingerprint {
    pub(crate) window_width_secs: i64,
    pub(crate) spatial_level: u8,
    pub(crate) min_records: u64,
    pub(crate) window_capacity: Option<u32>,
    pub(crate) lsh: Option<LshFingerprint>,
}

/// The LSH geometry half of the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LshFingerprint {
    pub(crate) spans: u64,
    pub(crate) step_windows: u32,
    pub(crate) spatial_level: u8,
    pub(crate) threshold_bits: u64,
    pub(crate) num_buckets: u64,
}

impl ConfigFingerprint {
    /// The fingerprint of `cfg`.
    pub(crate) fn of(cfg: &StreamConfig) -> Self {
        Self {
            window_width_secs: cfg.slim.window_width_secs,
            spatial_level: cfg.slim.spatial_level,
            min_records: cfg.slim.min_records as u64,
            window_capacity: cfg.window_capacity,
            lsh: cfg.lsh.map(|l| LshFingerprint {
                spans: l.spans as u64,
                step_windows: l.base.step_windows,
                spatial_level: l.base.spatial_level,
                threshold_bits: l.base.threshold.to_bits(),
                num_buckets: l.base.num_buckets,
            }),
        }
    }

    /// Errors unless `cfg` fingerprints identically to this checkpoint.
    pub(crate) fn check(&self, cfg: &StreamConfig) -> Result<(), String> {
        let now = Self::of(cfg);
        if *self == now {
            Ok(())
        } else {
            Err(format!(
                "checkpoint was written under a different configuration \
                 (checkpoint {self:?}, requested {now:?})"
            ))
        }
    }
}

/// Engine-global state: the barrier outputs and warm state that cannot
/// be rederived from the shard dumps.
#[derive(Debug, Clone)]
pub(crate) struct EngineDump {
    /// Window-scheme origin (`None` if no event was ever ingested).
    pub(crate) origin: Option<i64>,
    /// Highest appended window + 1.
    pub(crate) domain: u32,
    /// Expiry watermark (first retained window).
    pub(crate) watermark: WindowIdx,
    /// Windows already expired (strictly below).
    pub(crate) expired_below: WindowIdx,
    /// Events since the last automatic refresh tick.
    pub(crate) events_since_refresh: u64,
    pub(crate) stats: StreamStats,
    pub(crate) scoring: LinkageStats,
    /// The links of the last refresh (== the published snapshot's).
    pub(crate) links: Vec<Edge>,
    /// The published epoch's event count.
    pub(crate) epoch_events: u64,
    /// The published epoch's stop threshold.
    pub(crate) epoch_threshold: Option<f64>,
    /// The published epoch's watermark frontier.
    pub(crate) epoch_frontier: Option<i64>,
    /// The incremental matcher's full edge set (its caches lag the
    /// shard `edges` caches by the unconsumed deltas, so it must travel
    /// separately).
    pub(crate) matcher_edges: Vec<Edge>,
    /// The threshold fitter's warm-start seed.
    pub(crate) warm_seed: Option<Gmm2>,
    /// Per-side document-frequency statistics.
    pub(crate) df: [DfDump; 2],
}

/// One side's df-stats as sorted parallel entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct DfDump {
    pub(crate) entries: Vec<(WindowIdx, CellId, u32)>,
    pub(crate) total_bins: u64,
    pub(crate) num_entities: u64,
}

/// Per-shard state as decoded from a checkpoint: globally sorted
/// collections (by entity, pair, or `(side, entity)` key), in the
/// layout the encoder writes straight from the shards. Recovery
/// redistributes it over however many shards it runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardsDump {
    /// Per-side mobility histories (columnar arena contents).
    pub(crate) histories: [Vec<(EntityId, HistoryDump)>; 2],
    /// Per-side min-records pending buffers.
    pub(crate) pending: [Vec<(EntityId, Vec<BinnedEvent>)>; 2],
    /// Per-side live-event retention buffers (sliding-window mode).
    pub(crate) live_events: [Vec<(EntityId, Vec<BinnedEvent>)>; 2],
    /// Per-side activated entities.
    pub(crate) active: [Vec<EntityId>; 2],
    /// Per-side dirty window marks.
    pub(crate) dirty: [Vec<(EntityId, Vec<WindowIdx>)>; 2],
    /// Per-side dead (fully expired) entities.
    pub(crate) dead: [Vec<EntityId>; 2],
    /// LSH ring signatures, sorted by `(side, entity)`.
    pub(crate) rings: Vec<RingDump>,
    /// Cached `(pair, window)` score contributions. These deliberately
    /// lag drifting idf, so they are restored verbatim — never
    /// recomputed.
    pub(crate) cache: Vec<(PairKey, Vec<(WindowIdx, f64)>)>,
    /// Pairs whose cache is not yet complete.
    pub(crate) fresh: Vec<PairKey>,
    /// Last emitted edge weight per pair.
    pub(crate) edges: Vec<(PairKey, f64)>,
    /// Edge deltas queued but not yet consumed by a tick.
    pub(crate) edge_deltas: Vec<(PairKey, Option<f64>)>,
}

/// The pump-side state a resumed drive needs: the reorder buffer, the
/// ticker, and the accepted-prefix offset. Also the handoff value
/// [`crate::StreamEngine::take_resume_state`] gives the pump.
#[derive(Debug, Clone)]
pub(crate) struct ResumeState {
    /// Source events consumed at checkpoint time.
    pub(crate) consumed: u64,
    /// Reorder-buffer watermark high point.
    pub(crate) reorder_max_seen: Option<i64>,
    /// Events held in the reorder buffer, in canonical key order.
    pub(crate) reorder_held: Vec<StreamEvent>,
    /// Arrivals already rejected as late.
    pub(crate) reorder_late: u64,
    /// The tick scheduler's state.
    pub(crate) ticker: TickerDump,
}

/// A [`crate::source::pump`] ticker's serialized state. The scheme
/// origin travels with the event-time variants: a recovered ticker
/// that re-anchored lazily at its first *post-resume* event would seal
/// windows at shifted boundaries and break bit-identity.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TickerDump {
    /// Count-based ticks (stateless — cadence lives on the engine).
    EveryN,
    /// Event-time interval ticks.
    EventTime {
        interval: i64,
        origin: Option<i64>,
        last_cell: Option<WindowIdx>,
    },
    /// Watermark window-sealing ticks.
    Watermark {
        width: i64,
        origin: Option<i64>,
        sealed_below: WindowIdx,
        pending: Vec<StreamEvent>,
    },
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE)
// ---------------------------------------------------------------------

/// The reflected IEEE polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time: `CRC_TABLES[0]` is
/// the classic byte-at-a-time table, and `CRC_TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, so eight table reads advance
/// the register over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ CRC_POLY
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`,
/// eight bytes per step (slice-by-8).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Wire primitives
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_opt<T>(out: &mut Vec<u8>, v: &Option<T>, f: impl Fn(&mut Vec<u8>, &T)) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            f(out, x);
        }
    }
}

fn put_vec<T>(out: &mut Vec<u8>, items: &[T], f: impl Fn(&mut Vec<u8>, &T)) {
    put_u64(out, items.len() as u64);
    for it in items {
        f(out, it);
    }
}

/// Bounds-checked little-endian reader over a frame payload. Every
/// overrun is an `Err`, never a panic — the corruption-tolerance
/// contract of the loader.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated payload: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt<T>(&mut self, f: impl Fn(&mut Self) -> Result<T, String>) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            t => Err(format!("invalid option tag {t}")),
        }
    }

    fn vec<T>(&mut self, f: impl Fn(&mut Self) -> Result<T, String>) -> Result<Vec<T>, String> {
        let n = self.u64()? as usize;
        // Every element costs at least one byte on the wire, so a
        // length beyond the remaining payload is corrupt — reject it
        // before attempting the allocation.
        if n > self.remaining() {
            return Err(format!("corrupt vec length {n} exceeds payload"));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(f(self)?);
        }
        Ok(v)
    }

    fn done(&self) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(format!("{} trailing bytes in payload", self.remaining()))
        }
    }
}

// ---------------------------------------------------------------------
// Composite encodings
// ---------------------------------------------------------------------

fn put_side(out: &mut Vec<u8>, s: Side) {
    put_u8(
        out,
        match s {
            Side::Left => 0,
            Side::Right => 1,
        },
    );
}

fn dec_side(d: &mut Dec) -> Result<Side, String> {
    match d.u8()? {
        0 => Ok(Side::Left),
        1 => Ok(Side::Right),
        t => Err(format!("invalid side tag {t}")),
    }
}

fn put_event(out: &mut Vec<u8>, ev: &StreamEvent) {
    put_side(out, ev.side);
    put_u64(out, ev.entity.0);
    put_f64(out, ev.location.lat_rad());
    put_f64(out, ev.location.lng_rad());
    put_i64(out, ev.time.secs());
    put_f64(out, ev.accuracy_m);
}

fn dec_event(d: &mut Dec) -> Result<StreamEvent, String> {
    let side = dec_side(d)?;
    let entity = EntityId(d.u64()?);
    let lat = d.f64()?;
    let lng = d.f64()?;
    let time = Timestamp(d.i64()?);
    let accuracy_m = d.f64()?;
    Ok(StreamEvent {
        side,
        entity,
        location: LatLng::from_radians(lat, lng),
        time,
        accuracy_m,
    })
}

fn put_edge(out: &mut Vec<u8>, e: &Edge) {
    put_u64(out, e.left.0);
    put_u64(out, e.right.0);
    put_f64(out, e.weight);
}

fn dec_edge(d: &mut Dec) -> Result<Edge, String> {
    Ok(Edge {
        left: EntityId(d.u64()?),
        right: EntityId(d.u64()?),
        weight: d.f64()?,
    })
}

fn put_pair(out: &mut Vec<u8>, p: &PairKey) {
    put_u64(out, p.0 .0);
    put_u64(out, p.1 .0);
}

fn dec_pair(d: &mut Dec) -> Result<PairKey, String> {
    Ok((EntityId(d.u64()?), EntityId(d.u64()?)))
}

fn put_cell(out: &mut Vec<u8>, c: &CellId) {
    put_u64(out, c.to_u64());
}

/// Decodes a cell id. The CRC has already vouched for the bytes, so
/// invalid bits can only mean a writer bug — but return an error
/// rather than panicking all the same.
fn dec_cell(d: &mut Dec) -> Result<CellId, String> {
    let raw = d.u64()?;
    CellId::try_from_u64(raw).ok_or_else(|| format!("invalid cell id {raw:#x}"))
}

fn put_gmm(out: &mut Vec<u8>, g: &Gmm2) {
    for c in [&g.low, &g.high] {
        put_f64(out, c.weight);
        put_f64(out, c.mean);
        put_f64(out, c.std_dev);
    }
    put_f64(out, g.avg_log_likelihood);
    put_u32(out, g.iterations);
}

fn dec_gmm(d: &mut Dec) -> Result<Gmm2, String> {
    let comp = |d: &mut Dec| -> Result<Component, String> {
        Ok(Component {
            weight: d.f64()?,
            mean: d.f64()?,
            std_dev: d.f64()?,
        })
    };
    let low = comp(d)?;
    let high = comp(d)?;
    Ok(Gmm2 {
        low,
        high,
        avg_log_likelihood: d.f64()?,
        iterations: d.u32()?,
    })
}

fn put_binned(out: &mut Vec<u8>, b: &BinnedEvent) {
    put_side(out, b.side);
    put_u64(out, b.entity.0);
    put_u32(out, b.w);
    put_vec(out, &b.cells, put_cell);
    put_vec(out, &b.lsh_cells, put_cell);
}

fn dec_binned(d: &mut Dec) -> Result<BinnedEvent, String> {
    Ok(BinnedEvent {
        side: dec_side(d)?,
        entity: EntityId(d.u64()?),
        w: d.u32()?,
        cells: d.vec(dec_cell)?,
        lsh_cells: d.vec(dec_cell)?,
    })
}

/// One entity's history in the canonical [`HistoryDump`] column layout,
/// written straight from the store: arena column slices as they are,
/// or the legacy per-window bins walked in the same order.
fn put_history(out: &mut Vec<u8>, store: &HistoryStore, e: EntityId) {
    match store {
        HistoryStore::Arena(arena) => {
            let v = arena.view(e).expect("listed entity is live");
            put_vec(out, v.wins, |o, w| put_u32(o, *w));
            put_vec(out, v.cells, put_cell);
            put_vec(out, v.counts, |o, n| put_u32(o, *n));
            let records = arena.window_records(e).expect("listed entity is live");
            put_vec(out, records, |o, (w, n)| {
                put_u32(o, *w);
                put_u32(o, *n);
            });
        }
        HistoryStore::Legacy(map) => {
            let h = &map[&e];
            let bins = || {
                h.windows()
                    .flat_map(|w| h.bins_in(w).iter().map(move |b| (w, b)))
            };
            let n = bins().count() as u64;
            put_u64(out, n);
            bins().for_each(|(w, _)| put_u32(out, w));
            put_u64(out, n);
            bins().for_each(|(_, (c, _))| put_cell(out, c));
            put_u64(out, n);
            bins().for_each(|(_, (_, count))| put_u32(out, *count));
            put_u64(out, h.window_record_counts().count() as u64);
            for (w, n) in h.window_record_counts() {
                put_u32(out, w);
                put_u32(out, n);
            }
        }
    }
}

fn dec_history(d: &mut Dec) -> Result<HistoryDump, String> {
    Ok(HistoryDump {
        wins: d.vec(|d| d.u32())?,
        cells: d.vec(dec_cell)?,
        counts: d.vec(|d| d.u32())?,
        window_records: d.vec(|d| Ok((d.u32()?, d.u32()?)))?,
    })
}

/// One entity's ring in the [`RingDump`] layout, written from the live
/// ring (slot maps iterate in `(window, cell)` order).
fn put_ring(out: &mut Vec<u8>, (side, entity): (Side, EntityId), ring: &SpanRing) {
    put_side(out, side);
    put_u64(out, entity.0);
    put_vec(out, ring.slots(), |o, slot| {
        put_u64(o, slot.len() as u64);
        for (&(w, c), &n) in slot {
            put_u32(o, w);
            put_cell(o, &c);
            put_u32(o, n);
        }
    });
    put_vec(out, ring.owners(), |o, own| {
        put_opt(o, own, |o, w| put_u32(o, *w));
    });
    put_vec(out, ring.sig(), |o, s| put_opt(o, s, put_cell));
}

fn dec_ring(d: &mut Dec) -> Result<RingDump, String> {
    Ok(RingDump {
        side: dec_side(d)?,
        entity: EntityId(d.u64()?),
        slots: d.vec(|d| d.vec(|d| Ok((d.u32()?, dec_cell(d)?, d.u32()?))))?,
        owners: d.vec(|d| d.opt(|d| d.u32()))?,
        sig: d.vec(|d| d.opt(dec_cell))?,
    })
}

fn put_ticker(out: &mut Vec<u8>, t: &TickerDump) {
    match t {
        TickerDump::EveryN => put_u8(out, 0),
        TickerDump::EventTime {
            interval,
            origin,
            last_cell,
        } => {
            put_u8(out, 1);
            put_i64(out, *interval);
            put_opt(out, origin, |o, v| put_i64(o, *v));
            put_opt(out, last_cell, |o, v| put_u32(o, *v));
        }
        TickerDump::Watermark {
            width,
            origin,
            sealed_below,
            pending,
        } => {
            put_u8(out, 2);
            put_i64(out, *width);
            put_opt(out, origin, |o, v| put_i64(o, *v));
            put_u32(out, *sealed_below);
            put_vec(out, pending, put_event);
        }
    }
}

fn dec_ticker(d: &mut Dec) -> Result<TickerDump, String> {
    match d.u8()? {
        0 => Ok(TickerDump::EveryN),
        1 => Ok(TickerDump::EventTime {
            interval: d.i64()?,
            origin: d.opt(|d| d.i64())?,
            last_cell: d.opt(|d| d.u32())?,
        }),
        2 => Ok(TickerDump::Watermark {
            width: d.i64()?,
            origin: d.opt(|d| d.i64())?,
            sealed_below: d.u32()?,
            pending: d.vec(dec_event)?,
        }),
        t => Err(format!("invalid ticker tag {t}")),
    }
}

/// Destructures so adding a [`StreamStats`] field is a compile error
/// here until the wire layout (and [`VERSION`]) is updated.
fn put_stats(out: &mut Vec<u8>, s: &StreamStats) {
    let StreamStats {
        events,
        late_dropped,
        ticks,
        rescored_windows,
        dirty_pairs_visited,
        cached_pairs_at_ticks,
        retired_pairs,
        evicted_windows,
        edges_patched,
        matching_region_size,
        em_warm_iters,
        blocked_producer_ns,
        queue_high_watermark,
        late_events,
        demoted_entities,
        demoted_records,
        arena_compactions,
        steal_events,
        max_worker_busy_ns,
        min_worker_busy_ns,
        malformed_lines,
        connections_served,
        idle_evictions,
        snapshots_published,
        queries_served,
        checkpoints_written,
        checkpoints_rejected,
        checkpoint_bytes,
    } = *s;
    for v in [
        events,
        late_dropped,
        ticks,
        rescored_windows,
        dirty_pairs_visited,
        cached_pairs_at_ticks,
        retired_pairs,
        evicted_windows,
        edges_patched,
        matching_region_size,
        em_warm_iters,
        blocked_producer_ns,
        queue_high_watermark,
        late_events,
        demoted_entities,
        demoted_records,
        arena_compactions,
        steal_events,
        max_worker_busy_ns,
        min_worker_busy_ns,
        malformed_lines,
        connections_served,
        idle_evictions,
        snapshots_published,
        queries_served,
        checkpoints_written,
        checkpoints_rejected,
        checkpoint_bytes,
    ] {
        put_u64(out, v);
    }
}

fn dec_stats(d: &mut Dec) -> Result<StreamStats, String> {
    Ok(StreamStats {
        events: d.u64()?,
        late_dropped: d.u64()?,
        ticks: d.u64()?,
        rescored_windows: d.u64()?,
        dirty_pairs_visited: d.u64()?,
        cached_pairs_at_ticks: d.u64()?,
        retired_pairs: d.u64()?,
        evicted_windows: d.u64()?,
        edges_patched: d.u64()?,
        matching_region_size: d.u64()?,
        em_warm_iters: d.u64()?,
        blocked_producer_ns: d.u64()?,
        queue_high_watermark: d.u64()?,
        late_events: d.u64()?,
        demoted_entities: d.u64()?,
        demoted_records: d.u64()?,
        arena_compactions: d.u64()?,
        steal_events: d.u64()?,
        max_worker_busy_ns: d.u64()?,
        min_worker_busy_ns: d.u64()?,
        malformed_lines: d.u64()?,
        connections_served: d.u64()?,
        idle_evictions: d.u64()?,
        snapshots_published: d.u64()?,
        queries_served: d.u64()?,
        checkpoints_written: d.u64()?,
        checkpoints_rejected: d.u64()?,
        checkpoint_bytes: d.u64()?,
    })
}

fn put_scoring(out: &mut Vec<u8>, s: &LinkageStats) {
    let LinkageStats {
        scored_entity_pairs,
        bin_pair_comparisons,
        record_pair_comparisons,
        alibi_pairs,
    } = *s;
    for v in [
        scored_entity_pairs,
        bin_pair_comparisons,
        record_pair_comparisons,
        alibi_pairs,
    ] {
        put_u64(out, v);
    }
}

fn dec_scoring(d: &mut Dec) -> Result<LinkageStats, String> {
    Ok(LinkageStats {
        scored_entity_pairs: d.u64()?,
        bin_pair_comparisons: d.u64()?,
        record_pair_comparisons: d.u64()?,
        alibi_pairs: d.u64()?,
    })
}

fn put_df(out: &mut Vec<u8>, df: &DfDump) {
    put_vec(out, &df.entries, |o, (w, c, n)| {
        put_u32(o, *w);
        put_cell(o, c);
        put_u32(o, *n);
    });
    put_u64(out, df.total_bins);
    put_u64(out, df.num_entities);
}

fn dec_df(d: &mut Dec) -> Result<DfDump, String> {
    Ok(DfDump {
        entries: d.vec(|d| Ok((d.u32()?, dec_cell(d)?, d.u32()?)))?,
        total_bins: d.u64()?,
        num_entities: d.u64()?,
    })
}

// ---------------------------------------------------------------------
// Section codecs
// ---------------------------------------------------------------------

fn put_meta(out: &mut Vec<u8>, m: &MetaDump) {
    put_u64(out, m.consumed);
    let f = &m.fingerprint;
    put_i64(out, f.window_width_secs);
    put_u8(out, f.spatial_level);
    put_u64(out, f.min_records);
    put_opt(out, &f.window_capacity, |o, v| put_u32(o, *v));
    put_opt(out, &f.lsh, |o, l| {
        put_u64(o, l.spans);
        put_u32(o, l.step_windows);
        put_u8(o, l.spatial_level);
        put_u64(o, l.threshold_bits);
        put_u64(o, l.num_buckets);
    });
}

fn decode_meta(payload: &[u8]) -> Result<MetaDump, String> {
    let mut d = Dec::new(payload);
    let consumed = d.u64()?;
    let fingerprint = ConfigFingerprint {
        window_width_secs: d.i64()?,
        spatial_level: d.u8()?,
        min_records: d.u64()?,
        window_capacity: d.opt(|d| d.u32())?,
        lsh: d.opt(|d| {
            Ok(LshFingerprint {
                spans: d.u64()?,
                step_windows: d.u32()?,
                spatial_level: d.u8()?,
                threshold_bits: d.u64()?,
                num_buckets: d.u64()?,
            })
        })?,
    };
    d.done()?;
    Ok(MetaDump {
        consumed,
        fingerprint,
    })
}

fn put_engine(out: &mut Vec<u8>, e: &EngineDump) {
    put_opt(out, &e.origin, |o, v| put_i64(o, *v));
    put_u32(out, e.domain);
    put_u32(out, e.watermark);
    put_u32(out, e.expired_below);
    put_u64(out, e.events_since_refresh);
    put_stats(out, &e.stats);
    put_scoring(out, &e.scoring);
    put_vec(out, &e.links, put_edge);
    put_u64(out, e.epoch_events);
    put_opt(out, &e.epoch_threshold, |o, v| put_f64(o, *v));
    put_opt(out, &e.epoch_frontier, |o, v| put_i64(o, *v));
    put_vec(out, &e.matcher_edges, put_edge);
    put_opt(out, &e.warm_seed, put_gmm);
    put_df(out, &e.df[0]);
    put_df(out, &e.df[1]);
}

fn decode_engine(payload: &[u8]) -> Result<EngineDump, String> {
    let mut d = Dec::new(payload);
    let e = EngineDump {
        origin: d.opt(|d| d.i64())?,
        domain: d.u32()?,
        watermark: d.u32()?,
        expired_below: d.u32()?,
        events_since_refresh: d.u64()?,
        stats: dec_stats(&mut d)?,
        scoring: dec_scoring(&mut d)?,
        links: d.vec(dec_edge)?,
        epoch_events: d.u64()?,
        epoch_threshold: d.opt(|d| d.f64())?,
        epoch_frontier: d.opt(|d| d.i64())?,
        matcher_edges: d.vec(dec_edge)?,
        warm_seed: d.opt(dec_gmm)?,
        df: [dec_df(&mut d)?, dec_df(&mut d)?],
    };
    d.done()?;
    Ok(e)
}

/// Writes `items` as a length-prefixed vec in ascending key order. Keys
/// are unique across shards (an entity lives on its home shard, a pair
/// on its owner's), so the order is total and the bytes do not depend
/// on how the items were spread over shards.
fn put_sorted<K: Ord + Copy, V>(
    out: &mut Vec<u8>,
    items: impl Iterator<Item = (K, V)>,
    mut put: impl FnMut(&mut Vec<u8>, K, V),
) {
    let mut items: Vec<(K, V)> = items.collect();
    items.sort_unstable_by_key(|&(k, _)| k);
    put_u64(out, items.len() as u64);
    for (k, v) in items {
        put(out, k, v);
    }
}

/// The SHARDS payload, written straight from live shard state: for each
/// collection, gather `(key, where-to-find-it)` across shards, sort the
/// keys into the canonical global order, and serialize every item from
/// its own map. The [`ShardsDump`] decode target mirrors this layout.
fn put_shards(out: &mut Vec<u8>, shards: &[EngineShard]) {
    for i in 0..2 {
        put_sorted(
            out,
            shards.iter().flat_map(|sh| {
                let store = &sh.histories[i];
                store.entity_ids().into_iter().map(move |e| (e, store))
            }),
            |o, e, store| {
                put_u64(o, e.0);
                put_history(o, store, e);
            },
        );
        let put_events = |o: &mut Vec<u8>, e: EntityId, evs: &Vec<BinnedEvent>| {
            put_u64(o, e.0);
            put_vec(o, evs, put_binned);
        };
        put_sorted(
            out,
            shards
                .iter()
                .flat_map(|sh| &sh.pending[i])
                .map(|(&e, evs)| (e, evs)),
            put_events,
        );
        put_sorted(
            out,
            shards
                .iter()
                .flat_map(|sh| &sh.live_events[i])
                .map(|(&e, evs)| (e, evs)),
            put_events,
        );
        put_sorted(
            out,
            shards.iter().flat_map(|sh| &sh.active[i]).map(|&e| (e, ())),
            |o, e, ()| put_u64(o, e.0),
        );
        put_sorted(
            out,
            shards
                .iter()
                .flat_map(|sh| &sh.dirty[i])
                .map(|(&e, ws)| (e, ws)),
            |o, e, ws| {
                put_u64(o, e.0);
                put_u64(o, ws.len() as u64);
                for &w in ws {
                    put_u32(o, w);
                }
            },
        );
        put_sorted(
            out,
            shards.iter().flat_map(|sh| &sh.dead[i]).map(|&e| (e, ())),
            |o, e, ()| put_u64(o, e.0),
        );
    }
    put_sorted(
        out,
        shards
            .iter()
            .flat_map(|sh| sh.rings.iter())
            .map(|(&key, ring)| (key, ring)),
        put_ring,
    );
    put_sorted(
        out,
        shards.iter().flat_map(|sh| &sh.cache).map(|(&p, m)| (p, m)),
        |o, p, wins| {
            put_pair(o, &p);
            put_u64(o, wins.len() as u64);
            for (&w, &v) in wins {
                put_u32(o, w);
                put_f64(o, v);
            }
        },
    );
    put_sorted(
        out,
        shards.iter().flat_map(|sh| &sh.fresh).map(|&p| (p, ())),
        |o, p, ()| put_pair(o, &p),
    );
    put_sorted(
        out,
        shards
            .iter()
            .flat_map(|sh| &sh.edges)
            .map(|(&p, &w)| (p, w)),
        |o, p, w| {
            put_pair(o, &p);
            put_f64(o, w);
        },
    );
    put_sorted(
        out,
        shards
            .iter()
            .flat_map(|sh| &sh.edge_deltas)
            .map(|(&p, &w)| (p, w)),
        |o, p, w| {
            put_pair(o, &p);
            put_opt(o, &w, |o, v| put_f64(o, *v));
        },
    );
}

fn decode_shards(payload: &[u8]) -> Result<ShardsDump, String> {
    let mut d = Dec::new(payload);
    let mut s = ShardsDump::default();
    for side in 0..2 {
        s.histories[side] = d.vec(|d| Ok((EntityId(d.u64()?), dec_history(d)?)))?;
        s.pending[side] = d.vec(|d| Ok((EntityId(d.u64()?), d.vec(dec_binned)?)))?;
        s.live_events[side] = d.vec(|d| Ok((EntityId(d.u64()?), d.vec(dec_binned)?)))?;
        s.active[side] = d.vec(|d| Ok(EntityId(d.u64()?)))?;
        s.dirty[side] = d.vec(|d| Ok((EntityId(d.u64()?), d.vec(|d| d.u32())?)))?;
        s.dead[side] = d.vec(|d| Ok(EntityId(d.u64()?)))?;
    }
    s.rings = d.vec(dec_ring)?;
    s.cache = d.vec(|d| Ok((dec_pair(d)?, d.vec(|d| Ok((d.u32()?, d.f64()?)))?)))?;
    s.fresh = d.vec(dec_pair)?;
    s.edges = d.vec(|d| Ok((dec_pair(d)?, d.f64()?)))?;
    s.edge_deltas = d.vec(|d| Ok((dec_pair(d)?, d.opt(|d| d.f64())?)))?;
    d.done()?;
    Ok(s)
}

fn put_pump(out: &mut Vec<u8>, p: &ResumeState) {
    put_u64(out, p.consumed);
    put_opt(out, &p.reorder_max_seen, |o, v| put_i64(o, *v));
    put_vec(out, &p.reorder_held, put_event);
    put_u64(out, p.reorder_late);
    put_ticker(out, &p.ticker);
}

fn decode_pump(payload: &[u8]) -> Result<ResumeState, String> {
    let mut d = Dec::new(payload);
    let p = ResumeState {
        consumed: d.u64()?,
        reorder_max_seen: d.opt(|d| d.i64())?,
        reorder_held: d.vec(dec_event)?,
        reorder_late: d.u64()?,
        ticker: dec_ticker(&mut d)?,
    };
    d.done()?;
    Ok(p)
}

// ---------------------------------------------------------------------
// Whole-file codec
// ---------------------------------------------------------------------

/// Bytes of a frame header: tag u32, payload length u64, CRC-32 u32.
const FRAME_HEADER: usize = 16;
/// Bytes before the first frame: magic plus version.
const FILE_HEADER: usize = MAGIC.len() + 4;

/// Writes one frame in place: reserves its header, lets `payload`
/// append the payload straight into `out`, then patches the length. The
/// CRC slot stays zero until [`seal_frames`].
fn put_frame(out: &mut Vec<u8>, tag: u32, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    put_u32(out, tag);
    out.extend_from_slice(&[0; FRAME_HEADER - 4]);
    payload(out);
    let len = (out.len() - start - FRAME_HEADER) as u64;
    out[start + 4..start + 12].copy_from_slice(&len.to_le_bytes());
}

/// Serializes a complete checkpoint image into `out` (cleared first),
/// walking the shards directly rather than through a [`ShardsDump`].
/// Every frame's CRC slot is left zero: [`seal_frames`] must run before
/// the image is valid. The two halves are separate so the write path
/// can time them apart.
pub(crate) fn encode_frames(
    out: &mut Vec<u8>,
    meta: &MetaDump,
    engine: &EngineDump,
    shards: &[EngineShard],
    pump: &ResumeState,
) {
    out.clear();
    out.extend_from_slice(MAGIC);
    put_u32(out, VERSION);
    put_frame(out, TAG_META, |o| put_meta(o, meta));
    put_frame(out, TAG_ENGINE, |o| put_engine(o, engine));
    put_frame(out, TAG_SHARDS, |o| put_shards(o, shards));
    put_frame(out, TAG_PUMP, |o| put_pump(o, pump));
    put_frame(out, TAG_END, |_| {});
}

/// Fills in the CRC-32 of every frame of an [`encode_frames`] image,
/// walking the frames by their length fields.
pub(crate) fn seal_frames(image: &mut [u8]) {
    let mut at = FILE_HEADER;
    while at < image.len() {
        let len = u64::from_le_bytes(image[at + 4..at + 12].try_into().unwrap()) as usize;
        let payload = at + FRAME_HEADER;
        let crc = crc32(&image[payload..payload + len]);
        image[at + 12..payload].copy_from_slice(&crc.to_le_bytes());
        at = payload + len;
    }
}

/// Parses and validates a checkpoint file image. Strict: bad magic or
/// version, any frame CRC mismatch, a missing or duplicated section, a
/// missing END frame, or trailing bytes are all errors — and *never*
/// panics, whatever the input.
pub(crate) fn decode(bytes: &[u8]) -> Result<CheckpointState, String> {
    let mut d = Dec::new(bytes);
    if d.take(MAGIC.len())? != MAGIC {
        return Err("bad magic: not a checkpoint file".into());
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(format!(
            "unsupported checkpoint version {version} (expected {VERSION})"
        ));
    }
    let mut meta = None;
    let mut engine = None;
    let mut shards = None;
    let mut pump = None;
    loop {
        let tag = d.u32()?;
        let len = d.u64()? as usize;
        let crc = d.u32()?;
        let payload = d.take(len)?;
        if crc32(payload) != crc {
            return Err(format!("CRC mismatch in frame tag {tag}"));
        }
        match tag {
            TAG_END => {
                if len != 0 {
                    return Err("non-empty END frame".into());
                }
                break;
            }
            TAG_META if meta.is_none() => meta = Some(decode_meta(payload)?),
            TAG_ENGINE if engine.is_none() => engine = Some(decode_engine(payload)?),
            TAG_SHARDS if shards.is_none() => shards = Some(decode_shards(payload)?),
            TAG_PUMP if pump.is_none() => pump = Some(decode_pump(payload)?),
            TAG_META | TAG_ENGINE | TAG_SHARDS | TAG_PUMP => {
                return Err(format!("duplicate frame tag {tag}"));
            }
            _ => return Err(format!("unknown frame tag {tag}")),
        }
    }
    d.done()?;
    Ok(CheckpointState {
        meta: meta.ok_or("missing META frame")?,
        engine: engine.ok_or("missing ENGINE frame")?,
        shards: shards.ok_or("missing SHARDS frame")?,
        pump: pump.ok_or("missing PUMP frame")?,
    })
}

// ---------------------------------------------------------------------
// File management
// ---------------------------------------------------------------------

/// The file name of the checkpoint taken after `consumed` events.
/// Zero-padded so lexical order is numeric order.
pub(crate) fn checkpoint_file_name(consumed: u64) -> String {
    format!("ckpt-{consumed:020}.slim")
}

/// Checkpoint files in `dir`, sorted oldest → newest. Non-checkpoint
/// names (including temp files) are ignored; a missing directory is an
/// empty list.
pub(crate) fn list_checkpoints(dir: &Path) -> Vec<PathBuf> {
    list_named(dir, ".slim")
}

/// Files in `dir` named `ckpt-*<suffix>`, sorted by name (empty for a
/// missing directory).
fn list_named(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(suffix))
        })
        .collect();
    files.sort();
    files
}

/// Applies a deterministic corruption from `plan` to an encoded image:
/// a torn write truncates, a bit flip XORs one bit (clamped into
/// range). The fault-injection half of the crash/recover harness.
pub(crate) fn apply_fault(bytes: &mut Vec<u8>, plan: &FaultPlan) {
    if let Some(n) = plan.torn_write_after {
        bytes.truncate(n as usize);
    }
    if let Some(off) = plan.bit_flip_at {
        if !bytes.is_empty() {
            let i = (off as usize).min(bytes.len() - 1);
            bytes[i] ^= 0x01;
        }
    }
}

/// Atomically installs `bytes` as the checkpoint for `consumed` events:
/// temp file in the same directory, fsync, rename, best-effort
/// directory fsync. Returns the installed size in bytes. On failure the
/// temp file is removed again.
pub(crate) fn write_atomic(dir: &Path, consumed: u64, bytes: &[u8]) -> Result<u64, String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let final_path = dir.join(checkpoint_file_name(consumed));
    let tmp_path = dir.join(format!("{}{TMP_SUFFIX}", checkpoint_file_name(consumed)));
    let installed = fs::File::create(&tmp_path)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .map_err(|e| format!("writing {}: {e}", tmp_path.display()))
        .and_then(|()| {
            fs::rename(&tmp_path, &final_path)
                .map_err(|e| format!("installing {}: {e}", final_path.display()))
        });
    if let Err(e) = installed {
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    // Persist the rename itself; failure here only risks losing the
    // *newest* checkpoint to a power cut, which recovery tolerates.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(bytes.len() as u64)
}

/// Prunes all but the newest `keep` checkpoints in `dir` (oldest
/// first), plus every stale temp file a crashed write left behind (the
/// engine is the directory's only writer, and its own temp file is
/// renamed away before pruning runs). Returns how many files were
/// removed.
pub(crate) fn prune_old(dir: &Path, keep: usize) -> u64 {
    let files = list_checkpoints(dir);
    let excess = files.len().saturating_sub(keep.max(1));
    let stale = list_named(dir, TMP_SUFFIX);
    files[..excess]
        .iter()
        .chain(&stale)
        .filter(|path| fs::remove_file(path).is_ok())
        .count() as u64
}

/// Loads the newest checkpoint in `dir` that passes validation,
/// falling back file by file toward older ones. Returns the state and
/// the number of rejected (torn / corrupt / unreadable) newer files.
/// Errors only when no file validates.
pub(crate) fn load_latest(dir: &Path) -> Result<(CheckpointState, u64), String> {
    let files = list_checkpoints(dir);
    if files.is_empty() {
        return Err(format!("no checkpoints in {}", dir.display()));
    }
    let mut rejected = 0u64;
    for path in files.iter().rev() {
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(_) => {
                rejected += 1;
                continue;
            }
        };
        match decode(&bytes) {
            Ok(state) => return Ok((state, rejected)),
            Err(_) => rejected += 1,
        }
    }
    Err(format!(
        "all {} checkpoint files in {} failed validation",
        files.len(),
        dir.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StorageMode;
    use crate::StreamEngine;

    /// The bit-at-a-time CRC-32 the table version must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    fn cell() -> CellId {
        CellId::from_latlng(LatLng::from_degrees(41.0, 29.0), 12)
    }

    fn binned(side: Side, entity: u64, w: WindowIdx) -> BinnedEvent {
        BinnedEvent {
            side,
            entity: EntityId(entity),
            w,
            cells: vec![cell()],
            lsh_cells: Vec::new(),
        }
    }

    /// Shard state with every collection non-empty, spread over
    /// `n` shards by entity id (pairs by their left entity) — any
    /// spread must encode to the same bytes.
    fn sample_shards(n: usize) -> Vec<EngineShard> {
        let mut shards: Vec<EngineShard> = (0..n)
            .map(|_| EngineShard::new(StorageMode::Arena, true))
            .collect();
        let home = |e: u64| e as usize % n;
        let c = cell();
        for (e, wins) in [(7u64, vec![0, 1]), (2, vec![1])] {
            let counts: Vec<u32> = wins.iter().map(|&w| w + 1).collect();
            shards[home(e)].histories[0].restore_entity(
                EntityId(e),
                HistoryDump {
                    cells: vec![c; wins.len()],
                    window_records: wins.iter().copied().zip(counts.iter().copied()).collect(),
                    wins,
                    counts,
                },
            );
        }
        shards[home(3)].histories[1].restore_entity(
            EntityId(3),
            HistoryDump {
                wins: vec![0],
                cells: vec![c],
                counts: vec![1],
                window_records: vec![(0, 1)],
            },
        );
        for e in [9u64, 4] {
            shards[home(e)].pending[0].insert(EntityId(e), vec![binned(Side::Left, e, 1)]);
        }
        shards[home(7)].live_events[0].insert(EntityId(7), vec![binned(Side::Left, 7, 0)]);
        for e in [7u64, 2] {
            shards[home(e)].active[0].insert(EntityId(e));
        }
        shards[home(3)].active[1].insert(EntityId(3));
        shards[home(7)].dirty[0].insert(EntityId(7), [0, 1].into());
        shards[home(5)].dead[1].insert(EntityId(5));
        for (side, e) in [(Side::Right, 3u64), (Side::Left, 7)] {
            shards[home(e)].rings.restore(RingDump {
                side,
                entity: EntityId(e),
                slots: vec![vec![(0, c, 2)], Vec::new()],
                owners: vec![Some(0), None],
                sig: vec![Some(c), None],
            });
        }
        for (l, r) in [(7u64, 3u64), (2, 3)] {
            let pair = (EntityId(l), EntityId(r));
            let sh = &mut shards[home(l)];
            sh.cache.insert(pair, [(0, 0.5), (1, 0.25)].into());
            sh.fresh.insert(pair);
            sh.edges.insert(pair, 0.75);
            sh.edge_deltas.insert(pair, (l == 7).then_some(0.8));
        }
        shards
    }

    fn sample_pump() -> ResumeState {
        let ev = StreamEvent::new(
            Side::Left,
            EntityId(7),
            LatLng::from_degrees(41.0, 29.0),
            Timestamp(1234),
        );
        ResumeState {
            consumed: 42,
            reorder_max_seen: Some(1234),
            reorder_held: vec![ev],
            reorder_late: 1,
            ticker: TickerDump::Watermark {
                width: 3600,
                origin: Some(1000),
                sealed_below: 2,
                pending: vec![ev],
            },
        }
    }

    /// A complete, sealed image of [`sample_shards`] plus engine-global
    /// and pump state.
    fn sample_image(num_shards: usize) -> Vec<u8> {
        let edge = Edge {
            left: EntityId(7),
            right: EntityId(3),
            weight: 0.75,
        };
        let meta = MetaDump {
            consumed: 42,
            fingerprint: ConfigFingerprint::of(&StreamConfig::default()),
        };
        let engine = EngineDump {
            origin: Some(1000),
            domain: 5,
            watermark: 2,
            expired_below: 1,
            events_since_refresh: 3,
            stats: StreamStats {
                events: 42,
                ticks: 2,
                snapshots_published: 2,
                ..StreamStats::default()
            },
            scoring: LinkageStats {
                scored_entity_pairs: 9,
                ..LinkageStats::default()
            },
            links: vec![edge],
            epoch_events: 40,
            epoch_threshold: Some(0.5),
            epoch_frontier: Some(999),
            matcher_edges: vec![edge],
            warm_seed: Some(Gmm2 {
                low: Component {
                    weight: 0.4,
                    mean: 0.1,
                    std_dev: 0.05,
                },
                high: Component {
                    weight: 0.6,
                    mean: 0.8,
                    std_dev: 0.1,
                },
                avg_log_likelihood: -1.25,
                iterations: 17,
            }),
            df: [
                DfDump {
                    entries: vec![(0, cell(), 3)],
                    total_bins: 3,
                    num_entities: 1,
                },
                DfDump::default(),
            ],
        };
        let mut image = Vec::new();
        encode_frames(
            &mut image,
            &meta,
            &engine,
            &sample_shards(num_shards),
            &sample_pump(),
        );
        seal_frames(&mut image);
        image
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("slim-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_crc_matches_bitwise_reference() {
        let buf: Vec<u8> = (0..9000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
        for start in 0..8 {
            let s = &buf[start..];
            assert_eq!(crc32(s), crc32_bitwise(s), "multi-KB at start {start}");
        }
    }

    #[test]
    fn frames_are_sealed_in_place() {
        let image = sample_image(1);
        let mut at = FILE_HEADER;
        let mut tags = Vec::new();
        while at < image.len() {
            let tag = u32::from_le_bytes(image[at..at + 4].try_into().unwrap());
            let len = u64::from_le_bytes(image[at + 4..at + 12].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(image[at + 12..at + 16].try_into().unwrap());
            let payload = &image[at + FRAME_HEADER..at + FRAME_HEADER + len];
            assert_eq!(crc, crc32_bitwise(payload), "frame tag {tag}");
            tags.push(tag);
            at += FRAME_HEADER + len;
        }
        assert_eq!(tags, [TAG_META, TAG_ENGINE, TAG_SHARDS, TAG_PUMP, TAG_END]);
    }

    #[test]
    fn encoding_is_shard_agnostic() {
        let one = sample_image(1);
        for n in [2, 3, 5] {
            assert_eq!(sample_image(n), one, "{n} shards");
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let image = sample_image(2);
        let state = decode(&image).expect("round trip");
        assert_eq!(state.meta.consumed, 42);
        assert_eq!(state.pump.reorder_held.len(), 1);
        let s = &state.shards;
        let ids = |v: &[(EntityId, HistoryDump)]| v.iter().map(|(e, _)| e.0).collect::<Vec<_>>();
        assert_eq!(ids(&s.histories[0]), [2, 7], "canonical entity order");
        assert_eq!(s.histories[0][1].1.wins, [0, 1]);
        assert_eq!(s.histories[0][1].1.window_records, [(0, 1), (1, 2)]);
        assert_eq!(
            s.pending[0].iter().map(|(e, _)| e.0).collect::<Vec<_>>(),
            [4, 9]
        );
        assert_eq!(s.live_events[0].len(), 1);
        assert_eq!(
            s.active,
            [vec![EntityId(2), EntityId(7)], vec![EntityId(3)]]
        );
        assert_eq!(s.dirty[0], [(EntityId(7), vec![0, 1])]);
        assert_eq!(s.dead[1], [EntityId(5)]);
        let rings: Vec<_> = s.rings.iter().map(|r| (r.side, r.entity.0)).collect();
        assert_eq!(rings, [(Side::Left, 7), (Side::Right, 3)]);
        assert_eq!(s.rings[0].slots[0], [(0, cell(), 2)]);
        assert_eq!(s.cache[1].1, [(0, 0.5), (1, 0.25)]);
        assert_eq!(s.fresh.len(), 2);
        assert_eq!(s.edges[0], ((EntityId(2), EntityId(3)), 0.75));
        assert_eq!(s.edge_deltas[0].1, None);
        assert_eq!(s.edge_deltas[1].1, Some(0.8));

        // Recovered into engines of any shard count, the state encodes
        // back to the very same bytes.
        let dir = temp_dir("rt");
        write_atomic(&dir, 42, &image).unwrap();
        for shards in [1, 4] {
            let cfg = StreamConfig {
                num_shards: shards,
                ..StreamConfig::default()
            };
            let mut engine = StreamEngine::recover(cfg, &dir).expect("recover");
            let pump = engine.take_resume_state().expect("resume state");
            assert_eq!(engine.checkpoint_image(&pump), image, "{shards} shards");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_harmless() {
        let bytes = sample_image(1);
        // Flip one bit at a sample of offsets across the file: decode
        // must reject (Err) — never silently accept a changed file.
        for off in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[off] ^= 0x10;
            assert!(
                decode(&corrupt).is_err(),
                "bit flip at offset {off} decoded successfully"
            );
        }
    }

    #[test]
    fn truncation_at_any_length_is_an_error_not_a_panic() {
        let bytes = sample_image(1);
        for len in (0..bytes.len()).step_by(11) {
            assert!(decode(&bytes[..len]).is_err(), "truncated to {len}");
        }
        assert!(decode(&[]).is_err(), "zero-length");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_image(1);
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn fingerprint_detects_config_drift() {
        let base = StreamConfig::default();
        let fp = ConfigFingerprint::of(&base);
        assert!(fp.check(&base).is_ok());
        let mut other = base;
        other.slim.window_width_secs += 1;
        assert!(fp.check(&other).is_err());
        // Shard/worker counts are *not* fingerprinted: checkpoints are
        // shard-agnostic.
        let mut sharded = base;
        sharded.num_shards = 7;
        sharded.num_workers = 3;
        assert!(fp.check(&sharded).is_ok());
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_str().unwrap().to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn atomic_write_lists_and_prunes_in_order() {
        let dir = temp_dir("gc");
        let bytes = sample_image(1);
        for consumed in [100u64, 300, 200, 400] {
            write_atomic(&dir, consumed, &bytes).unwrap();
        }
        let listed: Vec<String> = list_checkpoints(&dir)
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(
            listed,
            vec![
                checkpoint_file_name(100),
                checkpoint_file_name(200),
                checkpoint_file_name(300),
                checkpoint_file_name(400),
            ],
            "lexical order is numeric order"
        );
        assert_eq!(prune_old(&dir, 2), 2, "two oldest pruned");
        // Newest K survive, and no temp files are left behind.
        assert_eq!(
            names(&dir),
            vec![checkpoint_file_name(300), checkpoint_file_name(400)],
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pruning_removes_stale_temp_files() {
        let dir = temp_dir("tmp");
        let bytes = sample_image(1);
        for consumed in [100u64, 200] {
            write_atomic(&dir, consumed, &bytes).unwrap();
        }
        // Temp files a crashed write left behind, older and newer than
        // the installed checkpoints, plus an unrelated file.
        for name in [
            format!("{}{TMP_SUFFIX}", checkpoint_file_name(50)),
            format!("{}{TMP_SUFFIX}", checkpoint_file_name(300)),
            "notes.tmp".to_string(),
        ] {
            fs::write(dir.join(name), &bytes[..bytes.len() / 2]).unwrap();
        }
        assert_eq!(prune_old(&dir, 2), 2, "both stale temp files removed");
        assert_eq!(
            names(&dir),
            vec![
                checkpoint_file_name(100),
                checkpoint_file_name(200),
                "notes.tmp".to_string(),
            ],
            "valid checkpoints and foreign files stay"
        );
        let (state, rejected) = load_latest(&dir).expect("checkpoints still load");
        assert_eq!((state.meta.consumed, rejected), (42, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_no_temp_file() {
        let dir = temp_dir("fail");
        // A directory squatting on the final name makes the rename fail
        // after the temp file was written and synced.
        fs::create_dir_all(dir.join(checkpoint_file_name(100)).join("occupied")).unwrap();
        assert!(write_atomic(&dir, 100, &sample_image(1)).is_err());
        assert_eq!(names(&dir), vec![checkpoint_file_name(100)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_falls_back_past_corruption() {
        let dir = temp_dir("fb");
        let good = sample_image(1);
        write_atomic(&dir, 100, &good).unwrap();
        // Newest checkpoint: torn mid-frame.
        let mut torn = good.clone();
        let plan = FaultPlan {
            torn_write_after: Some(torn.len() as u64 / 2),
            ..FaultPlan::default()
        };
        apply_fault(&mut torn, &plan);
        write_atomic(&dir, 200, &torn).unwrap();
        // Even newer: bit-flipped.
        let mut flipped = good.clone();
        let flip_plan = FaultPlan {
            bit_flip_at: Some(flipped.len() as u64 - 30),
            ..FaultPlan::default()
        };
        apply_fault(&mut flipped, &flip_plan);
        write_atomic(&dir, 300, &flipped).unwrap();
        // And a zero-length file.
        write_atomic(&dir, 400, &[]).unwrap();

        let (state, rejected) = load_latest(&dir).expect("fallback finds the good one");
        assert_eq!(state.meta.consumed, 42);
        assert_eq!(rejected, 3, "three newer files rejected");

        // All-corrupt directory: an error, not a panic.
        fs::remove_file(dir.join(checkpoint_file_name(100))).unwrap();
        assert!(load_latest(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_error() {
        let dir = std::env::temp_dir().join("slim-ckpt-definitely-absent");
        assert!(load_latest(&dir).is_err());
        assert!(list_checkpoints(&dir).is_empty());
    }
}
