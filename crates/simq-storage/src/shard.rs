//! Sharded relations: the row space partitioned across independent
//! shards, each with its own series store (and, one level up, its own
//! R*-tree).
//!
//! A [`ShardedRelation`] splits a relation's rows by row id under a
//! [`ShardLayout`]. Each shard is an ordinary [`SeriesRelation`], so
//! everything that works on a relation — feature extraction, scans,
//! index bulk-loading — works per shard unchanged. Every relation the
//! query engine stores is a `ShardedRelation`; an unsharded relation is
//! simply one shard. What several shards buy:
//!
//! * **Insert locality** — an insert touches exactly one shard's store
//!   and one shard's (small) R*-tree instead of one monolithic tree.
//! * **Natural parallel work units** — range/kNN/join queries fan out
//!   one task per shard and recombine through the same deterministic
//!   merge rules the parallel traversals use, so sharded results are
//!   bitwise identical to unsharded execution (pinned by
//!   `tests/shard_equivalence.rs`). Id-ordered readers
//!   ([`ShardedRelation::rows_by_id`], [`ShardedRelation::find_row_named`])
//!   see the same order at every shard count, so re-sharding never
//!   changes an answer, even for a relation assembled with out-of-order
//!   explicit ids.
//!
//! The scan entry points here ([`scan_range_sharded`],
//! [`scan_knn_sharded`], [`scan_all_pairs_two_sharded`] and the batched
//! [`scan_range_multi_sharded`] / [`scan_knn_multi_sharded`]) are the
//! scan paths of query execution at every shard count: one shard runs
//! the row-chunked parallel scan when `threads > 1`, several shards fan
//! out one task per shard. The index-side fan-out lives in
//! `simq_index::shard`.

use crate::multi::{
    scan_knn_multi, scan_range_multi, MultiScanKnnQuery, MultiScanRangeQuery, MultiScanStats,
};
use crate::relation::{SeriesRelation, SeriesRow};
use crate::scan::{
    scan_all_pairs_rows_parallel, scan_knn, scan_knn_parallel, scan_range, scan_range_parallel,
    transformed_distance_sq, PairList, ParallelScanStats, ScanHit, ScanStats,
};
use simq_dsp::complex::Complex;
use simq_index::shard::for_each_shard;
use simq_index::{RTree, RTreeConfig};
use simq_series::error::SeriesError;
use simq_series::features::FeatureScheme;
use simq_series::transform::SeriesTransform;
use std::borrow::Cow;

/// How row ids map to shards.
///
/// The layout is a pure function of the row id and the shard count, so a
/// persisted sharded relation can be reconstructed from its flattened
/// rows without storing a per-row shard assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardLayout {
    /// Row id modulo the shard count — the default: sequential inserts
    /// round-robin across shards, which keeps shard sizes balanced for
    /// both dense and gappy id spaces.
    Hash {
        /// Number of shards (≥ 1).
        shards: usize,
    },
}

impl ShardLayout {
    /// Number of shards the layout produces.
    pub fn shard_count(&self) -> usize {
        match self {
            ShardLayout::Hash { shards } => (*shards).max(1),
        }
    }

    /// The shard a row id belongs to.
    pub fn shard_of(&self, id: u64) -> usize {
        match self {
            ShardLayout::Hash { shards } => (id % (*shards).max(1) as u64) as usize,
        }
    }
}

impl std::fmt::Display for ShardLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardLayout::Hash { shards } => write!(f, "hash(id) mod {shards}"),
        }
    }
}

/// A relation partitioned into independent shards by row id.
///
/// All shards share the relation's name, series length and feature
/// scheme; each shard owns its rows (raw series, statistics, index
/// points, normal-form spectra). Row ids are globally unique — the
/// layout routes every id to exactly one shard.
#[derive(Debug, Clone)]
pub struct ShardedRelation {
    name: String,
    series_len: usize,
    scheme: FeatureScheme,
    layout: ShardLayout,
    shards: Vec<SeriesRelation>,
    /// Id the next [`ShardedRelation::insert`] will assign.
    next_id: u64,
}

impl ShardedRelation {
    /// An empty sharded relation with `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is 0 or `series_len` cannot support the scheme
    /// (same contract as [`SeriesRelation::new`]).
    pub fn new(
        name: impl Into<String>,
        series_len: usize,
        scheme: FeatureScheme,
        shards: usize,
    ) -> Self {
        assert!(shards >= 1, "a sharded relation needs at least one shard");
        let name = name.into();
        let shards_vec = (0..shards)
            .map(|_| SeriesRelation::new(name.clone(), series_len, scheme.clone()))
            .collect();
        ShardedRelation {
            name,
            series_len,
            scheme,
            layout: ShardLayout::Hash { shards },
            shards: shards_vec,
            next_id: 0,
        }
    }

    /// Re-partitions an existing relation into `shards` shards. Rows move
    /// bit-for-bit (no feature re-extraction), so every query answer over
    /// the sharded form is identical to the unsharded one. `shards` ≤ 1
    /// wraps the relation as the one shard without touching its rows.
    pub fn from_single(relation: SeriesRelation, shards: usize) -> Self {
        let name = relation.name().to_string();
        let series_len = relation.series_len();
        let scheme = relation.scheme().clone();
        let next_id = relation.next_id();
        if shards <= 1 {
            return ShardedRelation {
                name,
                series_len,
                scheme,
                layout: ShardLayout::Hash { shards: 1 },
                shards: vec![relation],
                next_id,
            };
        }
        let mut sharded = Self::from_parts(
            name,
            series_len,
            scheme,
            ShardLayout::Hash { shards },
            relation.into_rows(),
        );
        sharded.next_id = sharded.next_id.max(next_id);
        sharded
    }

    /// Rebuilds a sharded relation from already-validated rows (the
    /// snapshot restore path and [`ShardedRelation::from_single`]): rows
    /// are routed by the layout, preserving their relative order within
    /// each shard.
    pub(crate) fn from_parts(
        name: String,
        series_len: usize,
        scheme: FeatureScheme,
        layout: ShardLayout,
        rows: Vec<SeriesRow>,
    ) -> Self {
        let count = layout.shard_count();
        let mut per_shard: Vec<Vec<SeriesRow>> = (0..count).map(|_| Vec::new()).collect();
        let mut next_id = 0u64;
        for row in rows {
            next_id = next_id.max(row.id + 1);
            per_shard[layout.shard_of(row.id)].push(row);
        }
        let shards = per_shard
            .into_iter()
            .map(|rows| {
                SeriesRelation::from_validated_parts(name.clone(), series_len, scheme.clone(), rows)
            })
            .collect();
        ShardedRelation {
            name,
            series_len,
            scheme,
            layout,
            shards,
            next_id,
        }
    }

    /// Reassembles a sharded relation from already-routed shard stores
    /// (the durable-open path: each shard was persisted separately, so no
    /// rows need to move). The caller has verified routing; this
    /// constructor validates the shared header fields.
    pub(crate) fn from_shard_stores(
        name: String,
        layout: ShardLayout,
        stores: Vec<SeriesRelation>,
    ) -> Result<Self, String> {
        if stores.len() != layout.shard_count() {
            return Err(format!(
                "{} shard stores for a {}-shard layout",
                stores.len(),
                layout.shard_count()
            ));
        }
        let first = stores.first().expect("layouts have at least one shard");
        let (series_len, scheme) = (first.series_len(), first.scheme().clone());
        for s in &stores {
            if s.name() != name || s.series_len() != series_len || s.scheme() != &scheme {
                return Err(format!(
                    "shard stores of {name:?} disagree on name, series length or scheme"
                ));
            }
        }
        let next_id = stores
            .iter()
            .map(SeriesRelation::next_id)
            .max()
            .unwrap_or(0);
        Ok(ShardedRelation {
            name,
            series_len,
            scheme,
            layout,
            shards: stores,
            next_id,
        })
    }

    /// The relation as one store: the one shard itself (borrowed), or the
    /// shards merged with rows ordered by id (the text-export path).
    pub fn to_single(&self) -> Cow<'_, SeriesRelation> {
        if let [only] = self.shards.as_slice() {
            return Cow::Borrowed(only);
        }
        let mut rows: Vec<SeriesRow> = self.shards.iter().flat_map(|s| s.rows().cloned()).collect();
        rows.sort_by_key(|r| r.id);
        Cow::Owned(SeriesRelation::from_validated_parts(
            self.name.clone(),
            self.series_len,
            self.scheme.clone(),
            rows,
        ))
    }

    /// Consumes the sharded relation as one store — the one shard itself,
    /// or the shards merged with rows ordered by id. The re-partitioning
    /// path ([`crate::shard`] → different shard count) so moves every row
    /// bit-for-bit without cloning raw series or spectra. The next-id
    /// watermark carries over.
    pub fn into_single(mut self) -> SeriesRelation {
        let mut single = if self.shards.len() == 1 {
            self.shards.pop().expect("one shard")
        } else {
            let mut rows: Vec<SeriesRow> = self
                .shards
                .into_iter()
                .flat_map(SeriesRelation::into_rows)
                .collect();
            rows.sort_by_key(|r| r.id);
            SeriesRelation::from_validated_parts(self.name, self.series_len, self.scheme, rows)
        };
        if let Some(last) = self.next_id.checked_sub(1) {
            single.note_inserted(last);
        }
        single
    }

    /// The id the next [`ShardedRelation::insert`] will assign.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Relation name (shared by every shard).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Length every stored series must have.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// The feature scheme rows are extracted under.
    pub fn scheme(&self) -> &FeatureScheme {
        &self.scheme
    }

    /// The id → shard mapping.
    pub fn layout(&self) -> ShardLayout {
        self.layout
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[SeriesRelation] {
        &self.shards
    }

    /// One shard's store.
    pub fn shard(&self, i: usize) -> &SeriesRelation {
        &self.shards[i]
    }

    /// The shards, mutably — the concurrent write path's entry point: the
    /// slice is split into disjoint `&mut` borrows so each shard's owning
    /// writer thread applies its routed rows independently. Callers must
    /// respect the id → shard routing of [`ShardedRelation::layout`] and
    /// follow up with [`ShardedRelation::note_inserted`] so id assignment
    /// stays consistent.
    pub fn shards_mut(&mut self) -> &mut [SeriesRelation] {
        &mut self.shards
    }

    /// Records that rows up to `id` were inserted directly into the shard
    /// stores (via [`ShardedRelation::shards_mut`]), advancing the next-id
    /// watermark exactly as the routed insert would have.
    pub fn note_inserted(&mut self, id: u64) {
        self.next_id = self.next_id.max(id + 1);
    }

    /// Total rows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(SeriesRelation::len).sum()
    }

    /// True when no shard has any rows.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(SeriesRelation::is_empty)
    }

    /// Rows per shard, in shard order (the `\relations` listing).
    pub fn shard_row_counts(&self) -> Vec<usize> {
        self.shards.iter().map(SeriesRelation::len).collect()
    }

    /// Inserts a series; returns its row id. Exactly one shard's store is
    /// touched — the insert-locality property sharding exists for.
    ///
    /// # Errors
    /// As [`SeriesRelation::insert`].
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        series: Vec<f64>,
    ) -> Result<u64, SeriesError> {
        let id = self.next_id;
        self.insert_with_id(id, name, series)
    }

    /// Inserts a series under an explicit row id (the restore path).
    ///
    /// # Errors
    /// As [`SeriesRelation::insert_with_id`].
    pub fn insert_with_id(
        &mut self,
        id: u64,
        name: impl Into<String>,
        series: Vec<f64>,
    ) -> Result<u64, SeriesError> {
        let shard = self.layout.shard_of(id);
        let id = self.shards[shard].insert_with_id(id, name, series)?;
        self.next_id = self.next_id.max(id + 1);
        Ok(id)
    }

    /// The shard a row id routes to (0 for a one-shard relation, without
    /// evaluating the layout).
    #[inline]
    pub fn shard_of(&self, id: u64) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            self.layout.shard_of(id)
        }
    }

    /// Row access by id — one shard lookup.
    #[inline]
    pub fn row(&self, id: u64) -> Option<&SeriesRow> {
        self.shards[self.shard_of(id)].row(id)
    }

    /// The quantized filter-tier signature of a row (routed through the
    /// shard layout, same O(1) lookup as [`ShardedRelation::row`]).
    #[inline]
    pub fn signature(&self, id: u64) -> Option<&[f32]> {
        self.shards[self.shard_of(id)].signature(id)
    }

    /// Iterates rows shard-major (shard 0's rows in insertion order, then
    /// shard 1's, …). Use [`ShardedRelation::rows_by_id`] when id order
    /// matters.
    pub fn rows(&self) -> impl Iterator<Item = &SeriesRow> {
        self.shards.iter().flat_map(|s| s.rows())
    }

    /// All rows in id order — the scan order of every query path at every
    /// shard count. A one-shard relation whose rows are already in id
    /// order (every sequentially built one) is not sorted.
    pub fn rows_by_id(&self) -> Vec<&SeriesRow> {
        if let [only] = self.shards.as_slice() {
            return only.rows_by_id();
        }
        let mut rows: Vec<&SeriesRow> = self.rows().collect();
        rows.sort_by_key(|r| r.id);
        rows
    }

    /// The smallest-id row whose name attribute equals `name` — the same
    /// row at every shard count.
    pub fn find_row_named(&self, name: &str) -> Option<&SeriesRow> {
        self.shards
            .iter()
            .filter_map(|s| s.first_named(name))
            .min_by_key(|r| r.id)
    }

    /// Bulk-loads one R*-tree per shard over the shard's feature points.
    pub fn build_indexes(&self, config: RTreeConfig) -> Vec<RTree> {
        self.shards
            .iter()
            .map(|s| s.build_index(config.clone()))
            .collect()
    }
}

/// Work counters of one scan over a sharded relation: merged totals plus
/// their split. A one-shard relation reports `per_thread` (row-chunked
/// workers, when `threads > 1`) and no `per_shard`; several shards report
/// `per_shard` (one entry per shard, except for the pair scans, whose row
/// pairs cross shards and so split by thread).
#[derive(Debug, Clone, Default)]
pub struct ShardedScanStats {
    /// Totals across all shards and threads.
    pub merged: ScanStats,
    /// One entry per shard (empty for one shard and for pair scans).
    pub per_shard: Vec<ScanStats>,
    /// One entry per worker thread of a row-chunked scan (empty when the
    /// scan ran serially or fanned out per shard).
    pub per_thread: Vec<ScanStats>,
}

impl ShardedScanStats {
    fn from_shards(per_shard: Vec<ScanStats>) -> Self {
        let mut merged = ScanStats::default();
        for s in &per_shard {
            merged.rows_scanned += s.rows_scanned;
            merged.coefficients_compared += s.coefficients_compared;
            merged.early_abandoned += s.early_abandoned;
        }
        ShardedScanStats {
            merged,
            per_shard,
            per_thread: Vec::new(),
        }
    }

    fn from_threads(p: ParallelScanStats) -> Self {
        ShardedScanStats {
            merged: p.merged,
            per_shard: Vec::new(),
            per_thread: p.per_thread,
        }
    }

    fn serial(merged: ScanStats) -> Self {
        ShardedScanStats {
            merged,
            ..ShardedScanStats::default()
        }
    }
}

/// Range query over a sharded relation. One shard runs the row-chunked
/// [`scan_range_parallel`] when `threads > 1` and [`scan_range`]
/// otherwise; several shards are each scanned by [`scan_range`] (one task
/// per shard on up to `threads` workers) and the hit lists concatenate in
/// shard order. The hit set is identical either way.
///
/// # Errors
/// Transformation-domain errors.
pub fn scan_range_sharded(
    relation: &ShardedRelation,
    transform: &SeriesTransform,
    query_spectrum: &[Complex],
    eps: f64,
    early_abandon: bool,
    threads: usize,
) -> Result<(Vec<ScanHit>, ShardedScanStats), SeriesError> {
    if let [only] = relation.shards() {
        return if threads > 1 {
            let (hits, p) =
                scan_range_parallel(only, transform, query_spectrum, eps, early_abandon, threads)?;
            Ok((hits, ShardedScanStats::from_threads(p)))
        } else {
            let (hits, s) = scan_range(only, transform, query_spectrum, eps, early_abandon)?;
            Ok((hits, ShardedScanStats::serial(s)))
        };
    }
    // Surface transformation errors once, before fanning out.
    let n = relation.series_len();
    transform.action(n, n.saturating_sub(1))?;
    let results = for_each_shard(relation.shard_count(), threads, &|i| {
        scan_range(
            relation.shard(i),
            transform,
            query_spectrum,
            eps,
            early_abandon,
        )
    });
    let mut hits = Vec::new();
    let mut per_shard = Vec::with_capacity(results.len());
    for r in results {
        let (h, s) = r?;
        hits.extend(h);
        per_shard.push(s);
    }
    Ok((hits, ShardedScanStats::from_shards(per_shard)))
}

/// kNN query over a sharded relation.
///
/// One shard runs [`scan_knn_parallel`] when `threads > 1` and
/// [`scan_knn`] otherwise. Over several shards, serially, each shard runs
/// the exact [`scan_knn`] and the per-shard top-`k` lists merge by
/// `(distance, id)` — any global top-`k` row is in its shard's top-`k`,
/// so the merge loses nothing. With `threads > 1` the shards scan
/// concurrently under one shared atomic bound on the `k`-th best distance
/// (the same mechanism as [`scan_knn_parallel`]), abandoning rows that
/// provably cannot enter the answer. Every path returns results bitwise
/// identical to the unsharded serial scan.
///
/// # Errors
/// Transformation-domain errors.
pub fn scan_knn_sharded(
    relation: &ShardedRelation,
    transform: &SeriesTransform,
    query_spectrum: &[Complex],
    k: usize,
    threads: usize,
) -> Result<(Vec<ScanHit>, ShardedScanStats), SeriesError> {
    use simq_index::parallel::AtomicF64Min;

    if let [only] = relation.shards() {
        return if threads > 1 {
            let (hits, p) = scan_knn_parallel(only, transform, query_spectrum, k, threads)?;
            Ok((hits, ShardedScanStats::from_threads(p)))
        } else {
            let (hits, s) = scan_knn(only, transform, query_spectrum, k)?;
            Ok((hits, ShardedScanStats::serial(s)))
        };
    }
    let n = relation.series_len();
    let action = transform.action(n, n.saturating_sub(1))?;
    if k == 0 {
        return Ok((Vec::new(), ShardedScanStats::default()));
    }
    let workers = threads.max(1).min(relation.shard_count());
    let results: Vec<Result<(Vec<ScanHit>, ScanStats), SeriesError>> = if workers <= 1 {
        (0..relation.shard_count())
            .map(|i| scan_knn(relation.shard(i), transform, query_spectrum, k))
            .collect()
    } else {
        // Shared upper bound on the k-th smallest squared distance.
        let global_kth_sq = AtomicF64Min::new(f64::INFINITY);
        let action = &action;
        let global = &global_kth_sq;
        for_each_shard(relation.shard_count(), threads, &|i| {
            let mut stats = ScanStats::default();
            let mut kept: Vec<ScanHit> = Vec::new();
            let mut local: std::collections::BinaryHeap<u64> =
                std::collections::BinaryHeap::with_capacity(k + 1);
            for row in relation.shard(i).rows() {
                stats.rows_scanned += 1;
                let bound = global.get();
                let limit = bound.is_finite().then_some(bound);
                let (d_sq, abandoned) = transformed_distance_sq(
                    &row.features.spectrum,
                    &action.multipliers,
                    query_spectrum,
                    limit,
                    &mut stats.coefficients_compared,
                );
                if abandoned {
                    stats.early_abandoned += 1;
                    continue;
                }
                // Keep only rows not provably outside this shard's top-k
                // (ties at the k-th distance included — the final
                // (distance, id) sort may prefer them): any global top-k
                // row is in its shard's top-k, so the merge loses
                // nothing, and `kept` stays O(k + improvements) instead
                // of O(rows).
                if local.len() < k || d_sq.to_bits() <= *local.peek().expect("k > 0") {
                    kept.push(ScanHit {
                        id: row.id,
                        distance: d_sq.sqrt(),
                    });
                }
                if local.len() < k {
                    local.push(d_sq.to_bits());
                } else if d_sq.to_bits() < *local.peek().expect("k > 0") {
                    local.pop();
                    local.push(d_sq.to_bits());
                }
                if local.len() == k {
                    global.fetch_min(f64::from_bits(*local.peek().expect("k > 0")));
                }
            }
            Ok((kept, stats))
        })
    };
    let mut all = Vec::new();
    let mut per_shard = Vec::with_capacity(results.len());
    for r in results {
        let (kept, s) = r?;
        all.extend(kept);
        per_shard.push(s);
    }
    sort_hits(&mut all);
    all.truncate(k);
    Ok((all, ShardedScanStats::from_shards(per_shard)))
}

/// All-pairs scan over a sharded relation: the rows in id order (the
/// scan order at every shard count), run through the exact pair-scan
/// machinery. Pair work crosses shards, so parallelism is row-chunked
/// (not shard-fanned) and, with `threads > 1`, the stats carry
/// per-worker-thread shares.
///
/// # Errors
/// Transformation-domain errors.
pub fn scan_all_pairs_two_sharded(
    relation: &ShardedRelation,
    left: &SeriesTransform,
    right: &SeriesTransform,
    eps: f64,
    early_abandon: bool,
    threads: usize,
) -> Result<(PairList, ShardedScanStats), SeriesError> {
    let rows = relation.rows_by_id();
    let (pairs, p) = scan_all_pairs_rows_parallel(
        &rows,
        relation.series_len(),
        left,
        right,
        eps,
        early_abandon,
        threads,
    )?;
    let stats = if threads > 1 {
        ShardedScanStats::from_threads(p)
    } else {
        ShardedScanStats::serial(p.merged)
    };
    Ok((pairs, stats))
}

/// Batched range scans over a sharded relation: one shared pass
/// ([`scan_range_multi`]) per shard, per-query hit lists concatenated in
/// shard order.
///
/// # Errors
/// Transformation-domain errors from any query in the batch.
pub fn scan_range_multi_sharded(
    relation: &ShardedRelation,
    queries: &[MultiScanRangeQuery],
    early_abandon: bool,
    threads: usize,
) -> Result<(Vec<Vec<ScanHit>>, MultiScanStats), SeriesError> {
    let mut out: Vec<Vec<ScanHit>> = vec![Vec::new(); queries.len()];
    let mut stats = MultiScanStats::default();
    for shard in relation.shards() {
        let (hits, s) = scan_range_multi(shard, queries, early_abandon, threads)?;
        for (acc, h) in out.iter_mut().zip(hits) {
            acc.extend(h);
        }
        stats.add(&s);
    }
    Ok((out, stats))
}

/// Batched kNN scans over a sharded relation: one shared pass
/// ([`scan_knn_multi`]) per shard; per-query shard top-`k` lists merged by
/// `(distance, id)` and truncated back to `k` — any global top-`k` row is
/// in its shard's top-`k`, so the merge loses nothing.
///
/// # Errors
/// Transformation-domain errors from any query in the batch.
pub fn scan_knn_multi_sharded(
    relation: &ShardedRelation,
    queries: &[MultiScanKnnQuery],
    threads: usize,
) -> Result<(Vec<Vec<ScanHit>>, MultiScanStats), SeriesError> {
    let mut out: Vec<Vec<ScanHit>> = vec![Vec::new(); queries.len()];
    let mut stats = MultiScanStats::default();
    for shard in relation.shards() {
        let (hits, s) = scan_knn_multi(shard, queries, threads)?;
        for (acc, h) in out.iter_mut().zip(hits) {
            acc.extend(h);
        }
        stats.add(&s);
    }
    for (q, acc) in queries.iter().zip(out.iter_mut()) {
        sort_hits(acc);
        acc.truncate(q.k);
    }
    Ok((out, stats))
}

/// The engine's deterministic hit order: `(distance, id)`.
fn sort_hits(hits: &mut [ScanHit]) {
    hits.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .expect("finite distances")
            .then(a.id.cmp(&b.id))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{
        scan_all_pairs_two, scan_knn as scan_knn_single, scan_range as scan_range_single,
    };
    use simq_series::features::FeatureScheme;

    fn single_relation(rows: usize) -> SeriesRelation {
        let mut rel = SeriesRelation::new("r", 64, FeatureScheme::paper_default());
        for i in 0..rows {
            let series: Vec<f64> = (0..64)
                .map(|t| {
                    20.0 + (t as f64 * (0.1 + i as f64 * 0.013)).sin() * 4.0
                        + (t as f64 * 0.31).cos() * (i % 5) as f64
                })
                .collect();
            rel.insert(format!("S{i}"), series).unwrap();
        }
        rel
    }

    #[test]
    fn partitioning_routes_every_row_once() {
        let rel = single_relation(53);
        let sharded = ShardedRelation::from_single(rel.clone(), 4);
        assert_eq!(sharded.len(), 53);
        assert_eq!(sharded.shard_count(), 4);
        for id in 0..53u64 {
            let row = sharded.row(id).expect("row routed");
            assert_eq!(row.id, id);
            assert_eq!(row.name, format!("S{id}"));
            assert_eq!(sharded.shard_of(id), (id % 4) as usize);
        }
        // Shard sizes are balanced by the modulo layout.
        let counts = sharded.shard_row_counts();
        assert_eq!(counts.iter().sum::<usize>(), 53);
        assert!(counts.iter().all(|&c| (13..=14).contains(&c)));
    }

    #[test]
    fn roundtrip_to_single_is_bitwise() {
        let rel = single_relation(37);
        let sharded = ShardedRelation::from_single(rel.clone(), 3);
        let back = sharded.to_single();
        assert_eq!(back.len(), rel.len());
        for (a, b) in rel.rows().zip(back.rows()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.raw), bits(&b.raw));
            assert_eq!(bits(&a.features.point), bits(&b.features.point));
        }
    }

    #[test]
    fn inserts_route_and_ids_stay_global() {
        let mut sharded = ShardedRelation::new("r", 64, FeatureScheme::paper_default(), 3);
        for i in 0..10 {
            let series: Vec<f64> = (0..64)
                .map(|t| (t as f64 * 0.2 + i as f64).sin() * 3.0 + 30.0)
                .collect();
            let id = sharded.insert(format!("S{i}"), series).unwrap();
            assert_eq!(id, i as u64);
        }
        assert_eq!(sharded.len(), 10);
        assert_eq!(sharded.shard_row_counts(), vec![4, 3, 3]);
        // Duplicate explicit ids are rejected by the owning shard.
        let series: Vec<f64> = (0..64).map(|t| (t as f64 * 0.3).cos() + 10.0).collect();
        assert!(matches!(
            sharded.insert_with_id(3, "dup", series),
            Err(SeriesError::DuplicateRowId(3))
        ));
    }

    #[test]
    fn sharded_range_scan_matches_single() {
        let rel = single_relation(80);
        let q = rel.row(7).unwrap().features.spectrum.clone();
        let t = SeriesTransform::MovingAverage { window: 5 };
        let q_spec = t.apply_spectrum(&q, 64).unwrap();
        let sharded = ShardedRelation::from_single(rel.clone(), 4);
        for eps in [0.3, 2.0, 20.0] {
            let (mut want, want_stats) = scan_range_single(&rel, &t, &q_spec, eps, true).unwrap();
            for threads in [1, 4] {
                let (mut got, stats) =
                    scan_range_sharded(&sharded, &t, &q_spec, eps, true, threads).unwrap();
                want.sort_by_key(|h| h.id);
                got.sort_by_key(|h| h.id);
                assert_eq!(got.len(), want.len(), "eps {eps} threads {threads}");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                }
                assert_eq!(stats.merged.rows_scanned, want_stats.rows_scanned);
                assert_eq!(stats.per_shard.len(), 4);
            }
        }
    }

    #[test]
    fn sharded_knn_scan_matches_single() {
        let rel = single_relation(90);
        let q = rel.row(11).unwrap().features.spectrum.clone();
        let sharded = ShardedRelation::from_single(rel.clone(), 3);
        for k in [1, 7, 90, 200] {
            let (want, _) = scan_knn_single(&rel, &SeriesTransform::Identity, &q, k).unwrap();
            for threads in [1, 4] {
                let (got, _) =
                    scan_knn_sharded(&sharded, &SeriesTransform::Identity, &q, k, threads).unwrap();
                assert_eq!(got.len(), want.len(), "k {k} threads {threads}");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.id, b.id, "k {k} threads {threads}");
                    assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                }
            }
        }
    }

    #[test]
    fn sharded_pair_scan_matches_single() {
        let rel = single_relation(40);
        let left = SeriesTransform::MovingAverage { window: 5 };
        let right = SeriesTransform::Identity;
        let sharded = ShardedRelation::from_single(rel.clone(), 4);
        for (l, r) in [(&left, &left), (&left, &right)] {
            let (want, _) = scan_all_pairs_two(&rel, l, r, 6.0, true).unwrap();
            for threads in [1, 3] {
                let (got, _) =
                    scan_all_pairs_two_sharded(&sharded, l, r, 6.0, true, threads).unwrap();
                assert_eq!(got.len(), want.len(), "threads {threads}");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!((a.0, a.1), (b.0, b.1));
                    assert_eq!(a.2.to_bits(), b.2.to_bits());
                }
            }
        }
    }

    #[test]
    fn per_shard_indexes_cover_all_rows() {
        let rel = single_relation(60);
        let sharded = ShardedRelation::from_single(rel, 4);
        let trees = sharded.build_indexes(RTreeConfig::default());
        assert_eq!(trees.len(), 4);
        let mut ids: Vec<u64> = trees
            .iter()
            .flat_map(|t| t.items().into_iter().map(|(_, id)| id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..60).collect::<Vec<u64>>());
        for (i, tree) in trees.iter().enumerate() {
            assert_eq!(tree.len(), sharded.shard(i).len());
        }
    }
}
