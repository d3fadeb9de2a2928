//! Mobility histories: the paper's summary representation.
//!
//! A mobility history distributes an entity's records over *time-location
//! bins*: the leaf temporal windows each hold the set of spatial grid
//! cells (at a configured level) the entity visited in that window,
//! together with record counts. The paper (§2.3, Fig. 1) also keeps
//! aggregate counts at the internal nodes of a tree over the windows;
//! here only the leaves are stored, and a range aggregate such as the
//! *dominating grid cell* of a span of windows (§4) is summed from them
//! on demand — the LSH signatures on the hot path are built from records
//! instead. A [`HistorySet`] owns all histories of one dataset plus the
//! dataset-level statistics the similarity score needs: average history
//! size (for BM25-style length normalization) and per-bin document
//! frequencies (for the IDF award).

use std::collections::{BTreeMap, HashMap};

use geocell::CellId;

use crate::dataset::LocationDataset;
use crate::df::DfStats;
use crate::record::EntityId;
use crate::window::{WindowIdx, WindowScheme};

/// Sorted `(cell, count)` vector — one window's bins, or a sum of them.
pub type CellCounts = Vec<(CellId, u32)>;

/// Merges `src` into `dst`, summing counts; both must be sorted by cell id
/// and `dst` remains sorted.
pub fn merge_counts(dst: &mut CellCounts, src: &[(CellId, u32)]) {
    if src.is_empty() {
        return;
    }
    if dst.is_empty() {
        dst.extend_from_slice(src);
        return;
    }
    let mut merged = Vec::with_capacity(dst.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < src.len() {
        match dst[i].0.cmp(&src[j].0) {
            std::cmp::Ordering::Less => {
                merged.push(dst[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(src[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push((dst[i].0, dst[i].1 + src[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&dst[i..]);
    merged.extend_from_slice(&src[j..]);
    *dst = merged;
}

/// Picks the dominating cell of an aggregate, coarsened to `level`: the
/// coarsened cell with the highest summed count, ties broken towards the
/// smallest cell id.
pub fn dominating_of(counts: &[(CellId, u32)], level: u8) -> Option<CellId> {
    let mut agg: HashMap<CellId, u32> = HashMap::new();
    for &(cell, count) in counts {
        let key = if cell.level() > level {
            cell.parent(level)
        } else {
            cell
        };
        *agg.entry(key).or_insert(0) += count;
    }
    agg.into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(cell, _)| cell)
}

/// The grid cells one record maps to at the given level.
///
/// Point records map to one cell. Region records (paper §2.1) are copied
/// into every cell their disc touches; the disc is approximated by its
/// center plus eight compass points on the boundary, which covers all
/// touched cells exactly while the region diameter is below ~3 cell
/// widths — GPS accuracy discs versus city-block cells in practice.
pub fn record_cells(r: &crate::record::Record, level: u8) -> Vec<CellId> {
    let center = CellId::from_latlng(r.location, level);
    if !r.is_region() {
        return vec![center];
    }
    let mut cells = Vec::with_capacity(9);
    cells.push(center);
    for k in 0..8 {
        let bearing = k as f64 * std::f64::consts::TAU / 8.0;
        cells.push(CellId::from_latlng(
            r.location.offset(r.accuracy_m, bearing),
            level,
        ));
    }
    cells.sort_unstable();
    cells.dedup();
    cells
}

/// One entity's mobility history.
#[derive(Debug, Clone)]
pub struct MobilityHistory {
    entity: EntityId,
    /// Bins of every non-empty window: window index → sorted `(cell,
    /// record count)`. Range aggregates are summed from these.
    leaves: BTreeMap<WindowIdx, CellCounts>,
    /// Total number of time-location bins (`|H_u|` in the paper).
    num_bins: usize,
    /// Total number of records aggregated.
    num_records: u32,
    /// Records per window. Differs from the bin-count sum for region
    /// records (one record, several cells); incremental eviction needs
    /// the true per-window record count to unwind `num_records`.
    window_records: BTreeMap<WindowIdx, u32>,
}

impl MobilityHistory {
    /// Builds a history from records, binning with `scheme` at the given
    /// spatial `level`. `domain` is the total number of windows covered by
    /// the linkage run (shared across both datasets).
    pub fn build(
        entity: EntityId,
        records: &[crate::record::Record],
        scheme: &WindowScheme,
        level: u8,
        domain: u32,
    ) -> Self {
        let mut leaves: BTreeMap<WindowIdx, HashMap<CellId, u32>> = BTreeMap::new();
        let mut window_records: BTreeMap<WindowIdx, u32> = BTreeMap::new();
        let mut num_records = 0u32;
        for r in records {
            let w = scheme.window_of(r.time).min(domain.saturating_sub(1));
            for cell in record_cells(r, level) {
                *leaves.entry(w).or_default().entry(cell).or_insert(0) += 1;
            }
            *window_records.entry(w).or_insert(0) += 1;
            num_records += 1;
        }
        let leaves: BTreeMap<WindowIdx, CellCounts> = leaves
            .into_iter()
            .map(|(w, cells)| {
                let mut v: CellCounts = cells.into_iter().collect();
                v.sort_by_key(|&(c, _)| c);
                (w, v)
            })
            .collect();
        let num_bins = leaves.values().map(Vec::len).sum();
        Self {
            entity,
            leaves,
            num_bins,
            num_records,
            window_records,
        }
    }

    /// Rebuilds a history from externally maintained leaves — the
    /// materialization path of [`crate::arena::HistoryArena`]. `leaves`
    /// must hold sorted `(cell, count)` bins per window and
    /// `window_records` the true per-window record counts (they differ
    /// for region records). Counters are derived, so the result answers
    /// every query exactly like a history maintained by
    /// [`MobilityHistory::append`] / [`MobilityHistory::evict_window`]
    /// over the same content.
    pub fn from_leaves(
        entity: EntityId,
        leaves: BTreeMap<WindowIdx, CellCounts>,
        window_records: BTreeMap<WindowIdx, u32>,
    ) -> Self {
        let num_bins = leaves.values().map(Vec::len).sum();
        let num_records = window_records.values().sum();
        Self {
            entity,
            leaves,
            num_bins,
            num_records,
            window_records,
        }
    }

    /// An empty history ready for incremental [`MobilityHistory::append`]
    /// calls — the streaming entry point.
    pub fn empty(entity: EntityId) -> Self {
        Self {
            entity,
            leaves: BTreeMap::new(),
            num_bins: 0,
            num_records: 0,
            window_records: BTreeMap::new(),
        }
    }

    /// Appends one record's bins: `cells` must be the (sorted,
    /// deduplicated) [`record_cells`] output for the record, `w` its
    /// window. Returns the cells that created *new* bins in this history
    /// — the caller ([`HistorySet::append_record`]) uses them to maintain
    /// document frequencies incrementally.
    pub fn append(&mut self, w: WindowIdx, cells: &[CellId]) -> Vec<CellId> {
        let bins = self.leaves.entry(w).or_default();
        let mut new_bins = Vec::new();
        for &c in cells {
            match bins.binary_search_by_key(&c, |&(cell, _)| cell) {
                Ok(i) => bins[i].1 += 1,
                Err(i) => {
                    bins.insert(i, (c, 1));
                    new_bins.push(c);
                }
            }
        }
        self.num_bins += new_bins.len();
        self.num_records += 1;
        *self.window_records.entry(w).or_insert(0) += 1;
        new_bins
    }

    /// Drops every bin of window `w` (sliding-window expiry), unwinding
    /// the bin and record counters. Returns the removed bins so callers
    /// can unwind dataset-level statistics.
    pub fn evict_window(&mut self, w: WindowIdx) -> CellCounts {
        let Some(bins) = self.leaves.remove(&w) else {
            return CellCounts::new();
        };
        self.num_bins -= bins.len();
        self.num_records -= self.window_records.remove(&w).unwrap_or(0);
        bins
    }

    /// The entity this history belongs to.
    pub fn entity(&self) -> EntityId {
        self.entity
    }

    /// All non-empty windows, ascending.
    pub fn windows(&self) -> impl Iterator<Item = WindowIdx> + '_ {
        self.leaves.keys().copied()
    }

    /// The bins of one window (sorted by cell id); empty if the window has
    /// no records.
    pub fn bins_in(&self, w: WindowIdx) -> &[(CellId, u32)] {
        self.leaves.get(&w).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of time-location bins, `|H_u|`.
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// Number of records aggregated into this history.
    pub fn num_records(&self) -> u32 {
        self.num_records
    }

    /// Number of records in one window.
    pub fn records_in(&self, w: WindowIdx) -> u32 {
        self.bins_in(w).iter().map(|&(_, c)| c).sum()
    }

    /// The true per-window record counts, ascending by window. Differs
    /// from [`MobilityHistory::records_in`] for region records (one
    /// record lands in several cells); checkpoint serialization needs
    /// the exact counts so [`MobilityHistory::from_leaves`] round-trips.
    pub fn window_record_counts(&self) -> impl Iterator<Item = (WindowIdx, u32)> + '_ {
        self.window_records.iter().map(|(&w, &c)| (w, c))
    }

    /// Dominating grid cell over the window range `[lo, hi)`, coarsened to
    /// `level` (must be ≤ the history's bin level). `None` if no records.
    ///
    /// Sums the leaves in the range: the cost is linear in the bins it
    /// covers.
    pub fn dominating_cell(&self, lo: WindowIdx, hi: WindowIdx, level: u8) -> Option<CellId> {
        dominating_of(&self.range_counts(lo, hi), level)
    }

    /// The bins of every window in `[lo, hi)` summed per cell; empty for
    /// an empty range.
    fn range_counts(&self, lo: WindowIdx, hi: WindowIdx) -> CellCounts {
        let mut out = CellCounts::new();
        if lo < hi {
            for (_, bins) in self.leaves.range(lo..hi) {
                merge_counts(&mut out, bins);
            }
        }
        out
    }

    /// Number of non-empty windows.
    pub fn num_windows(&self) -> usize {
        self.leaves.len()
    }
}

/// All mobility histories of one dataset, plus dataset-level statistics.
#[derive(Debug, Clone)]
pub struct HistorySet {
    histories: HashMap<EntityId, MobilityHistory>,
    scheme: WindowScheme,
    spatial_level: u8,
    domain: u32,
    /// Document frequencies, total bins, entity count — kept in the
    /// shard-mergeable [`DfStats`] form so a sharded engine can maintain
    /// the same statistics as per-shard deltas (see [`crate::df`]).
    stats: DfStats,
}

impl HistorySet {
    /// Builds histories for every entity of `dataset`.
    ///
    /// `domain` must cover the whole linkage time span (use
    /// [`WindowScheme::num_windows`] on the max timestamp of *both*
    /// datasets so the two history sets agree).
    pub fn build(
        dataset: &LocationDataset,
        scheme: WindowScheme,
        spatial_level: u8,
        domain: u32,
    ) -> Self {
        let mut histories = HashMap::with_capacity(dataset.num_entities());
        let mut stats = DfStats::new();
        for e in dataset.entities() {
            let h =
                MobilityHistory::build(e, dataset.records_of(e), &scheme, spatial_level, domain);
            for w in h.windows().collect::<Vec<_>>() {
                for &(cell, _) in h.bins_in(w) {
                    stats.add_bin(w, cell);
                }
            }
            stats.add_entity();
            histories.insert(e, h);
        }
        Self {
            histories,
            scheme,
            spatial_level,
            domain,
            stats,
        }
    }

    /// An empty history set over a fixed scheme/level, ready for
    /// incremental [`HistorySet::append_record`] calls. The window
    /// domain grows with the appended records.
    ///
    /// This is the *single-map* incremental entry point, for library
    /// consumers maintaining one coherent set under updates; its unit
    /// tests pin the append/evict ↔ batch-build equivalence that the
    /// shared [`MobilityHistory`]/[`DfStats`] maintenance relies on.
    /// The sharded streaming engine uses the same primitives but owns
    /// its histories partitioned by entity hash, folding statistics
    /// through [`crate::df::DfDelta`]s and reassembling a set via
    /// [`HistorySet::from_parts`] only at finalization.
    pub fn new_incremental(scheme: WindowScheme, spatial_level: u8) -> Self {
        Self {
            histories: HashMap::new(),
            scheme,
            spatial_level,
            domain: 0,
            stats: DfStats::new(),
        }
    }

    /// Assembles a set from externally maintained parts — the sharded
    /// streaming engine's finalization path: each shard owns a disjoint
    /// slice of the histories, and `stats` is the barrier-merged
    /// [`DfStats`] over all of them. The caller is responsible for
    /// `stats` being consistent with `histories` (the engine maintains
    /// both from the same append/evict events); `num_entities` is
    /// asserted as a cheap consistency check.
    pub fn from_parts(
        scheme: WindowScheme,
        spatial_level: u8,
        domain: u32,
        histories: HashMap<EntityId, MobilityHistory>,
        stats: DfStats,
    ) -> Self {
        assert_eq!(
            stats.num_entities(),
            histories.len(),
            "DfStats entity count must match the assembled histories"
        );
        Self {
            histories,
            scheme,
            spatial_level,
            domain,
            stats,
        }
    }

    /// Appends one record to its entity's history (created on first
    /// touch), keeping document frequencies, total bin count, and the
    /// window domain exact. Returns the record's window index.
    ///
    /// An unbounded sequence of `append_record` calls over the records of
    /// a dataset produces a set identical to [`HistorySet::build`] on
    /// that dataset (same bins, statistics, and therefore scores) as long
    /// as no record precedes the scheme origin.
    pub fn append_record(&mut self, r: &crate::record::Record) -> WindowIdx {
        let cells = record_cells(r, self.spatial_level);
        let w = self.scheme.window_of(r.time);
        self.append_record_binned(r.entity, w, &cells);
        w
    }

    /// [`HistorySet::append_record`] with the spatial binning already
    /// done — the sharded streaming ingest path computes `cells` (the
    /// [`record_cells`] output at this set's spatial level) on worker
    /// threads and applies the appends serially.
    pub fn append_record_binned(&mut self, entity: EntityId, w: WindowIdx, cells: &[CellId]) {
        self.domain = self.domain.max(w + 1);
        let mut created = false;
        let h = self.histories.entry(entity).or_insert_with(|| {
            created = true;
            MobilityHistory::empty(entity)
        });
        let new_bins = h.append(w, cells);
        if created {
            self.stats.add_entity();
        }
        for c in new_bins {
            self.stats.add_bin(w, c);
        }
    }

    /// Evicts window `w` from one entity's history (sliding-window
    /// expiry), unwinding document frequencies and the total bin count.
    /// A history left empty is removed entirely, so `|U|` (and with it
    /// the idf scale) tracks the live window content. Returns the
    /// evicted bins.
    pub fn evict_entity_window(&mut self, entity: EntityId, w: WindowIdx) -> CellCounts {
        let Some(h) = self.histories.get_mut(&entity) else {
            return CellCounts::new();
        };
        let bins = h.evict_window(w);
        let emptied = h.num_records() == 0;
        for &(c, _) in &bins {
            self.stats.remove_bin(w, c);
        }
        if emptied {
            self.histories.remove(&entity);
            self.stats.remove_entity();
        }
        bins
    }

    /// The history of one entity.
    pub fn history(&self, e: EntityId) -> Option<&MobilityHistory> {
        self.histories.get(&e)
    }

    /// Iterator over all histories (arbitrary order).
    pub fn histories(&self) -> impl Iterator<Item = &MobilityHistory> {
        self.histories.values()
    }

    /// Entity ids, sorted for deterministic iteration.
    pub fn entities_sorted(&self) -> Vec<EntityId> {
        let mut v: Vec<_> = self.histories.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of entities, `|U|`.
    pub fn num_entities(&self) -> usize {
        self.histories.len()
    }

    /// The dataset-level statistics (df/idf, total bins, entity count)
    /// in their shard-mergeable form.
    pub fn df_stats(&self) -> &DfStats {
        &self.stats
    }

    /// Shared window scheme.
    pub fn scheme(&self) -> &WindowScheme {
        &self.scheme
    }

    /// Bin spatial level.
    pub fn spatial_level(&self) -> u8 {
        self.spatial_level
    }

    /// Total window domain.
    pub fn domain(&self) -> u32 {
        self.domain
    }

    /// Average bins per history (`Σ|H_u'| / |U|`, paper Eq. 2 denominator).
    pub fn avg_bins(&self) -> f64 {
        self.stats.avg_bins()
    }

    /// Inverse document frequency of a time-location bin (paper Eq. 3):
    /// `ln(|U| / df)` where `df` is the number of entities whose history
    /// contains the bin. Bins never seen get the maximal idf `ln(|U|)`.
    pub fn idf(&self, w: WindowIdx, cell: CellId) -> f64 {
        self.stats.idf(w, cell)
    }

    /// BM25-inspired length normalization `L(u, E)` (paper Eq. 2):
    /// `(1 − b) + b · |H_u| / avg_bins`.
    pub fn length_norm(&self, e: EntityId, b: f64) -> f64 {
        let bins = self.histories.get(&e).map(|h| h.num_bins()).unwrap_or(0);
        self.stats.length_norm_for(bins, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, Timestamp};
    use geocell::LatLng;

    const LEVEL: u8 = 12;

    fn rec(e: u64, t: i64, lat: f64, lng: f64) -> Record {
        Record::new(EntityId(e), LatLng::from_degrees(lat, lng), Timestamp(t))
    }

    fn scheme() -> WindowScheme {
        WindowScheme::new(Timestamp(0), 900)
    }

    fn cell(lng: f64, level: u8) -> CellId {
        CellId::from_latlng(LatLng::from_degrees(10.0, lng), level)
    }

    fn counts(v: &[(CellId, u32)]) -> CellCounts {
        let mut c = v.to_vec();
        c.sort_by_key(|&(id, _)| id);
        c
    }

    /// A history over the given leaves, one point record per counted bin.
    fn history_of(leaves: Vec<(WindowIdx, CellCounts)>) -> MobilityHistory {
        let window_records = leaves
            .iter()
            .map(|(w, c)| (*w, c.iter().map(|&(_, n)| n).sum()))
            .collect();
        MobilityHistory::from_leaves(EntityId(1), leaves.into_iter().collect(), window_records)
    }

    #[test]
    fn merge_counts_sums_and_sorts() {
        let a = cell(0.0, 12);
        let b = cell(1.0, 12);
        let c = cell(2.0, 12);
        let mut dst = counts(&[(a, 1), (c, 2)]);
        merge_counts(&mut dst, &counts(&[(a, 3), (b, 5)]));
        let expect = counts(&[(a, 4), (b, 5), (c, 2)]);
        assert_eq!(dst, expect);
    }

    #[test]
    fn merge_into_empty() {
        let a = cell(0.0, 12);
        let mut dst = CellCounts::new();
        merge_counts(&mut dst, &[(a, 7)]);
        assert_eq!(dst, vec![(a, 7)]);
    }

    #[test]
    fn range_counts_full_range_equals_total() {
        let a = cell(0.0, 12);
        let b = cell(1.0, 12);
        let h = history_of(vec![
            (0, counts(&[(a, 2)])),
            (3, counts(&[(a, 1), (b, 4)])),
            (7, counts(&[(b, 1)])),
        ]);
        assert_eq!(h.range_counts(0, 8), counts(&[(a, 3), (b, 5)]));
    }

    #[test]
    fn range_counts_partial_ranges() {
        let a = cell(0.0, 12);
        let b = cell(1.0, 12);
        let h = history_of(vec![(0, counts(&[(a, 2)])), (5, counts(&[(b, 3)]))]);
        assert_eq!(h.range_counts(0, 5), counts(&[(a, 2)]));
        assert_eq!(h.range_counts(5, 10), counts(&[(b, 3)]));
        assert_eq!(h.range_counts(1, 5), CellCounts::new());
        assert_eq!(h.range_counts(3, 3), CellCounts::new());
        assert_eq!(h.range_counts(6, 2), CellCounts::new(), "inverted range");
        assert_eq!(h.dominating_cell(6, 2, 12), None);
    }

    #[test]
    fn range_beyond_last_window_is_clamped() {
        let a = cell(0.0, 12);
        let h = history_of(vec![(2, counts(&[(a, 1)]))]);
        assert_eq!(h.range_counts(0, 100), counts(&[(a, 1)]));
        assert_eq!(h.dominating_cell(0, u32::MAX, 12), Some(a));
    }

    #[test]
    fn dominating_cell_picks_max_count() {
        let a = cell(0.0, 12);
        let b = cell(20.0, 12);
        let h = history_of(vec![
            (0, counts(&[(a, 3), (b, 1)])),
            (1, counts(&[(b, 1)])),
            (2, counts(&[(b, 2)])),
        ]);
        // Over the full range: b has 4, a has 3.
        assert_eq!(h.dominating_cell(0, 4, 12), Some(b));
        // Over just window 0: a dominates.
        assert_eq!(h.dominating_cell(0, 1, 12), Some(a));
        // Empty range.
        assert_eq!(h.dominating_cell(3, 4, 12), None);
    }

    #[test]
    fn dominating_cell_coarsens_level() {
        // Two nearby fine cells share a coarse parent; together they
        // out-count a distant cell.
        let fine1 = CellId::from_latlng(LatLng::from_degrees(10.0, 0.0), 16);
        // A sibling of fine1 under the same level-15 parent, guaranteeing a
        // shared ancestor at level 8.
        let fine2 = (0..4)
            .map(|k| fine1.parent(15).child(k))
            .find(|&c| c != fine1)
            .unwrap();
        let far = CellId::from_latlng(LatLng::from_degrees(10.0, 40.0), 16);
        let h = history_of(vec![(0, counts(&[(fine1, 2), (fine2, 2), (far, 3)]))]);
        // At level 16 `far` dominates (3 vs 2 each)…
        assert_eq!(h.dominating_cell(0, 2, 16), Some(far));
        // …but at level 8 the two nearby cells merge (4 > 3).
        let dom = h.dominating_cell(0, 2, 8).unwrap();
        assert_eq!(dom.level(), 8);
        assert!(dom.contains(fine1));
    }

    #[test]
    fn deterministic_tie_break() {
        let a = cell(0.0, 12);
        let b = cell(30.0, 12);
        let h = history_of(vec![(0, counts(&[(a, 2), (b, 2)]))]);
        let dom = h.dominating_cell(0, 1, 12).unwrap();
        assert_eq!(dom, a.min(b), "ties break to the smaller id");
    }

    #[test]
    fn history_bins_by_window_and_cell() {
        let records = vec![
            rec(1, 0, 37.0, -122.0),
            rec(1, 100, 37.0, -122.0),  // same window, same cell
            rec(1, 1000, 37.0, -122.0), // next window
            rec(1, 1000, 37.5, -121.5), // next window, different cell
        ];
        let h = MobilityHistory::build(EntityId(1), &records, &scheme(), LEVEL, 10);
        assert_eq!(h.num_records(), 4);
        assert_eq!(h.num_windows(), 2);
        assert_eq!(h.num_bins(), 3);
        assert_eq!(h.bins_in(0).len(), 1);
        assert_eq!(h.bins_in(0)[0].1, 2); // two records in the bin
        assert_eq!(h.bins_in(1).len(), 2);
        assert_eq!(h.records_in(1), 2);
    }

    #[test]
    fn empty_history() {
        let h = MobilityHistory::build(EntityId(7), &[], &scheme(), LEVEL, 4);
        assert_eq!(h.num_bins(), 0);
        assert_eq!(h.num_windows(), 0);
        assert!(h.dominating_cell(0, 4, LEVEL).is_none());
    }

    #[test]
    fn dominating_cell_from_built_history() {
        let records = vec![
            rec(1, 0, 37.0, -122.0),
            rec(1, 10, 37.0, -122.0),
            rec(1, 20, 10.0, 10.0),
            rec(1, 1000, 10.0, 10.0),
        ];
        let h = MobilityHistory::build(EntityId(1), &records, &scheme(), LEVEL, 10);
        let sf = CellId::from_latlng(LatLng::from_degrees(37.0, -122.0), LEVEL);
        let other = CellId::from_latlng(LatLng::from_degrees(10.0, 10.0), LEVEL);
        // Window 0 only: SF appears twice, other once.
        assert_eq!(h.dominating_cell(0, 1, LEVEL), Some(sf));
        // Full range: other has 2, sf has 2 → deterministic tie-break.
        let dom = h.dominating_cell(0, 10, LEVEL).unwrap();
        assert!(dom == sf.min(other));
    }

    #[test]
    fn history_set_idf() {
        // Three entities; two share a bin, one is alone in another.
        let ds = LocationDataset::from_records(vec![
            rec(1, 0, 37.0, -122.0),
            rec(2, 0, 37.0, -122.0),
            rec(3, 0, 10.0, 10.0),
        ]);
        let hs = HistorySet::build(&ds, scheme(), LEVEL, 4);
        let shared = CellId::from_latlng(LatLng::from_degrees(37.0, -122.0), LEVEL);
        let unique = CellId::from_latlng(LatLng::from_degrees(10.0, 10.0), LEVEL);
        let idf_shared = hs.idf(0, shared);
        let idf_unique = hs.idf(0, unique);
        assert!((idf_shared - (3.0f64 / 2.0).ln()).abs() < 1e-12);
        assert!((idf_unique - 3.0f64.ln()).abs() < 1e-12);
        assert!(idf_unique > idf_shared, "rarer bins must score higher");
    }

    #[test]
    fn idf_of_unseen_bin_is_max() {
        let ds = LocationDataset::from_records(vec![rec(1, 0, 37.0, -122.0)]);
        let hs = HistorySet::build(&ds, scheme(), LEVEL, 4);
        let unseen = CellId::from_latlng(LatLng::from_degrees(-30.0, 60.0), LEVEL);
        assert!((hs.idf(0, unseen) - 1.0f64.ln()).abs() < 1e-12); // |U|=1 → ln 1 = 0
    }

    #[test]
    fn length_norm_limits() {
        let ds = LocationDataset::from_records(vec![
            rec(1, 0, 37.0, -122.0),
            rec(2, 0, 37.1, -122.1),
            rec(2, 1000, 37.2, -122.2),
            rec(2, 2000, 37.3, -122.3),
        ]);
        let hs = HistorySet::build(&ds, scheme(), LEVEL, 10);
        // b = 0 → normalization disabled (always 1).
        assert!((hs.length_norm(EntityId(1), 0.0) - 1.0).abs() < 1e-12);
        assert!((hs.length_norm(EntityId(2), 0.0) - 1.0).abs() < 1e-12);
        // b = 1 → exactly relative size. avg bins = (1 + 3)/2 = 2.
        assert!((hs.length_norm(EntityId(1), 1.0) - 0.5).abs() < 1e-12);
        assert!((hs.length_norm(EntityId(2), 1.0) - 1.5).abs() < 1e-12);
        // Longer history ⇒ larger norm ⇒ smaller per-pair contribution.
        assert!(hs.length_norm(EntityId(2), 0.5) > hs.length_norm(EntityId(1), 0.5));
    }

    #[test]
    fn avg_bins_counts_bins_not_records() {
        let ds = LocationDataset::from_records(vec![
            rec(1, 0, 37.0, -122.0),
            rec(1, 1, 37.0, -122.0), // same bin, extra record
        ]);
        let hs = HistorySet::build(&ds, scheme(), LEVEL, 4);
        assert!((hs.avg_bins() - 1.0).abs() < 1e-12);
    }

    /// Incremental appends over a record stream must reproduce the
    /// batch-built set bit for bit: same bins, same document
    /// frequencies, same averages — the invariant `slim-stream` relies
    /// on for stream/batch equivalence.
    #[test]
    fn incremental_appends_match_batch_build() {
        let mut records = Vec::new();
        for e in 0..5u64 {
            for k in 0..20i64 {
                records.push(rec(
                    e,
                    k * 400,
                    37.0 + 0.01 * ((k % 5) as f64) + 0.1 * e as f64,
                    -122.0 - 0.02 * ((k % 3) as f64),
                ));
            }
        }
        // A region record exercises the multi-cell path.
        records.push(Record::with_accuracy(
            EntityId(2),
            LatLng::from_degrees(37.05, -122.01),
            Timestamp(3000),
            400.0,
        ));
        let ds = LocationDataset::from_records(records.clone());
        let sch = scheme();
        let domain = sch.num_windows(Timestamp(20 * 400));
        let batch = HistorySet::build(&ds, sch, 16, domain);

        let mut incr = HistorySet::new_incremental(sch, 16);
        for r in &records {
            incr.append_record(r);
        }

        assert_eq!(incr.num_entities(), batch.num_entities());
        assert!((incr.avg_bins() - batch.avg_bins()).abs() < 1e-12);
        for e in batch.entities_sorted() {
            let (hb, hi) = (batch.history(e).unwrap(), incr.history(e).unwrap());
            assert_eq!(hb.num_bins(), hi.num_bins(), "{e}");
            assert_eq!(hb.num_records(), hi.num_records(), "{e}");
            for w in hb.windows() {
                assert_eq!(hb.bins_in(w), hi.bins_in(w), "{e} window {w}");
                // Document frequencies agree bin by bin.
                for &(c, _) in hb.bins_in(w) {
                    assert!((batch.idf(w, c) - incr.idf(w, c)).abs() < 1e-12);
                }
            }
            // Dominating-cell queries sum the incrementally appended
            // leaves and must agree with the batch-built ones.
            assert_eq!(
                hb.dominating_cell(0, domain, 12),
                hi.dominating_cell(0, domain, 12),
            );
        }
    }

    #[test]
    fn eviction_unwinds_statistics() {
        let sch = scheme();
        let mut hs = HistorySet::new_incremental(sch, LEVEL);
        hs.append_record(&rec(1, 0, 37.0, -122.0));
        hs.append_record(&rec(1, 0, 37.0, -122.0));
        hs.append_record(&rec(1, 1000, 37.5, -121.5));
        hs.append_record(&rec(2, 0, 37.0, -122.0));
        let shared = CellId::from_latlng(LatLng::from_degrees(37.0, -122.0), LEVEL);
        assert!((hs.idf(0, shared) - (2.0f64 / 2.0).ln()).abs() < 1e-12);

        // Evict window 0 from entity 1: df drops to 1, bins shrink.
        let evicted = hs.evict_entity_window(EntityId(1), 0);
        assert_eq!(evicted, vec![(shared, 2)]);
        assert!((hs.idf(0, shared) - (2.0f64 / 1.0).ln()).abs() < 1e-12);
        assert_eq!(hs.history(EntityId(1)).unwrap().num_records(), 1);
        assert_eq!(hs.history(EntityId(1)).unwrap().num_bins(), 1);

        // Evicting the last window removes the entity entirely.
        hs.evict_entity_window(EntityId(1), 1);
        assert!(hs.history(EntityId(1)).is_none());
        assert_eq!(hs.num_entities(), 1);
        hs.evict_entity_window(EntityId(2), 0);
        assert_eq!(hs.num_entities(), 0);
        assert_eq!(hs.avg_bins(), 0.0);
    }

    #[test]
    fn region_record_eviction_keeps_record_count_exact() {
        let center = LatLng::from_degrees(37.0, -122.0);
        let mut h = MobilityHistory::empty(EntityId(1));
        let region = Record::with_accuracy(EntityId(1), center, Timestamp(0), 500.0);
        let cells = record_cells(&region, 16);
        assert!(cells.len() >= 2);
        h.append(0, &cells);
        h.append(
            3,
            &record_cells(&Record::new(EntityId(1), center, Timestamp(2700)), 16),
        );
        assert_eq!(h.num_records(), 2);
        // One region record occupies several bins but is ONE record.
        h.evict_window(0);
        assert_eq!(h.num_records(), 1);
        assert_eq!(h.num_bins(), 1);
    }

    #[test]
    fn region_record_spreads_over_cells() {
        // A region record at a fine level with a radius wider than a
        // cell must land in several cells; a point record in exactly one.
        let center = LatLng::from_degrees(37.0, -122.0);
        let point = Record::new(EntityId(1), center, Timestamp(0));
        let region = Record::with_accuracy(EntityId(1), center, Timestamp(0), 500.0);
        assert_eq!(record_cells(&point, 16).len(), 1);
        let cells = record_cells(&region, 16);
        assert!(cells.len() >= 2, "region covered {} cells", cells.len());
        // All covered cells are within the disc (plus one cell of slack).
        for c in &cells {
            assert!(c.center().distance_m(&center) < 500.0 + 2.0 * 200.0);
        }
        // At a coarse level the whole disc fits one cell.
        assert_eq!(record_cells(&region, 8).len(), 1);
    }

    #[test]
    fn region_records_enter_history_bins() {
        let center = LatLng::from_degrees(37.0, -122.0);
        let region = Record::with_accuracy(EntityId(1), center, Timestamp(0), 500.0);
        let h = MobilityHistory::build(EntityId(1), &[region], &scheme(), 16, 4);
        assert_eq!(h.num_records(), 1);
        assert!(h.num_bins() >= 2, "region must occupy several bins");
    }

    #[test]
    fn domain_clamps_late_records() {
        // A record beyond the domain lands in the last window, as it does
        // in the record-built LSH signatures, so both agree on its span.
        let records = vec![rec(1, 900 * 50, 37.0, -122.0)];
        let h = MobilityHistory::build(EntityId(1), &records, &scheme(), LEVEL, 10);
        assert_eq!(h.windows().collect::<Vec<_>>(), vec![9]);
        assert!(h.dominating_cell(9, 10, LEVEL).is_some());
    }
}
