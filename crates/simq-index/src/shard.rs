//! Multi-shard search entry points: one query fanned out over a forest of
//! R*-trees (one per relation shard) and recombined deterministically.
//!
//! Every indexed relation keeps one tree per shard — one tree when it is
//! unsharded — and queries go through the helpers here at every shard
//! count. Each helper makes the one choice between the two kinds of
//! parallelism from the tree and thread counts: a single tree with
//! `threads > 1` runs the tree's own parallel traversal
//! ([`crate::parallel`], per-thread counters); several trees fan out
//! with the shard as the unit of work (per-shard counters).
//!
//! * **Range** ([`range_transformed_sharded`]) — every shard's tree is
//!   traversed with the same lowered transformation and search rectangle;
//!   candidate lists concatenate in shard order. Because shards partition
//!   the row space, the union of the per-shard candidate sets is exactly
//!   the candidate set of the equivalent single tree.
//! * **kNN** ([`nearest_by_sharded`]) — one best-first search over the
//!   whole forest: the frontier is seeded with every shard's root and a
//!   **shared bound** on the `k`-th best distance prunes all shards at
//!   once. Leaf bounds depend only on the item's (transformed) rectangle,
//!   so the `k` results are identical to a single-tree search over all
//!   rows. With `threads > 1` the same work-stealing pool as
//!   [`crate::parallel`] is fed from all shard roots.
//! * **Batches** ([`multi_range_sharded`], [`multi_nearest_by_sharded`])
//!   — one shared batched traversal per tree, per-query results merged
//!   across trees.

use crate::batch::{MultiKnnQuery, MultiRangeQuery, MultiSearchStats};
use crate::geom::Rect;
use crate::knn::Neighbor;
use crate::parallel::{AtomicF64Min, LocalKth};
use crate::rstar::{Entry, RTree};
use crate::search::SearchStats;
use crate::transform::SpatialTransform;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

/// Work counters of one traversal over a relation's trees: merged totals
/// plus their split. One tree reports `per_thread` (when it ran its
/// parallel traversal, `threads > 1`) and no `per_shard`; several trees
/// report `per_shard` and no `per_thread`.
#[derive(Debug, Clone, Default)]
pub struct ShardSearchStats {
    /// Totals across all shards and threads — comparable with a
    /// single-tree search.
    pub merged: SearchStats,
    /// One entry per shard, in shard order (empty for one tree).
    pub per_shard: Vec<SearchStats>,
    /// One entry per worker thread of a single tree's parallel traversal
    /// (`per_thread[0]` includes the calling thread's coordination work).
    pub per_thread: Vec<SearchStats>,
}

impl ShardSearchStats {
    fn from_shards(per_shard: Vec<SearchStats>) -> Self {
        let mut merged = SearchStats::default();
        for s in &per_shard {
            merged.add(s);
        }
        ShardSearchStats {
            merged,
            per_shard,
            per_thread: Vec::new(),
        }
    }

    fn from_threads(p: crate::ParallelStats) -> Self {
        ShardSearchStats {
            merged: p.merged,
            per_shard: Vec::new(),
            per_thread: p.per_thread,
        }
    }

    fn serial(merged: SearchStats) -> Self {
        ShardSearchStats {
            merged,
            ..ShardSearchStats::default()
        }
    }
}

/// Transformed range query over every shard's tree: the candidate ids
/// (concatenated in shard order) and the work counters.
///
/// One tree runs [`RTree::range_transformed_parallel`] when `threads > 1`
/// and [`RTree::range_transformed`] otherwise. Several trees are the work
/// units: up to `threads` workers claim shards from a shared cursor and
/// descend each serially, so every shard's candidates are those of the
/// exact serial code.
pub fn range_transformed_sharded(
    trees: &[RTree],
    transform: &(dyn SpatialTransform + Sync),
    query: &Rect,
    threads: usize,
) -> (Vec<u64>, ShardSearchStats) {
    if let [tree] = trees {
        return if threads > 1 {
            let (ids, p) = tree.range_transformed_parallel(transform, query, threads);
            (ids, ShardSearchStats::from_threads(p))
        } else {
            let (ids, s) = tree.range_transformed(transform, query);
            (ids, ShardSearchStats::serial(s))
        };
    }
    let per_tree = for_each_shard(trees.len(), threads, &|i| {
        trees[i].range_transformed(transform, query)
    });
    let mut candidates = Vec::new();
    let mut per_shard = Vec::with_capacity(trees.len());
    for (ids, stats) in per_tree {
        candidates.extend(ids);
        per_shard.push(stats);
    }
    (candidates, ShardSearchStats::from_shards(per_shard))
}

/// Runs `work(shard_index)` for every shard, on up to `threads` worker
/// threads (shard-level parallelism: each shard is one task, claimed from
/// a shared cursor). Results come back in shard order regardless of
/// schedule.
pub fn for_each_shard<T: Send>(
    shard_count: usize,
    threads: usize,
    work: &(dyn Fn(usize) -> T + Sync),
) -> Vec<T> {
    let workers = threads.max(1).min(shard_count.max(1));
    if workers <= 1 || shard_count <= 1 {
        return (0..shard_count).map(work).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut produced: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                        if i >= shard_count {
                            break;
                        }
                        produced.push((i, work(i)));
                    }
                    produced
                })
            })
            .collect();
        let mut slots: Vec<Option<T>> = (0..shard_count).map(|_| None).collect();
        for h in handles {
            for (i, v) in h.join().expect("shard worker panicked") {
                slots[i] = Some(v);
            }
        }
        slots
    });
    out.drain(..)
        .map(|v| v.expect("every shard produced a result"))
        .collect()
}

/// `k`-nearest search under a caller-supplied lower-bound function (see
/// [`RTree::nearest_by`]) over every shard's tree: the `k` items with the
/// smallest bound values across all trees, `(distance, id)`-sorted —
/// identical to a single-tree search over the union of the shards' items.
///
/// One tree runs [`RTree::nearest_by_parallel`] when `threads > 1` and
/// [`RTree::nearest_by`] otherwise. Several trees run one best-first
/// search over the whole forest, serially or on a work-stealing pool of
/// `threads` workers.
pub fn nearest_by_sharded(
    trees: &[RTree],
    bound: &(dyn Fn(&Rect) -> f64 + Sync),
    transform: Option<&(dyn SpatialTransform + Sync)>,
    k: usize,
    threads: usize,
) -> (Vec<Neighbor>, ShardSearchStats) {
    let plain: Option<&dyn SpatialTransform> = transform.map(|t| t as &dyn SpatialTransform);
    match trees {
        [tree] if threads > 1 => {
            let (out, p) = tree.nearest_by_parallel(bound, plain, k, threads);
            (out, ShardSearchStats::from_threads(p))
        }
        [tree] => {
            let (out, s) = tree.nearest_by(bound, plain, k);
            (out, ShardSearchStats::serial(s))
        }
        _ if threads > 1 => forest_nearest_by_parallel(trees, bound, transform, k, threads),
        _ => forest_nearest_by(trees, bound, plain, k),
    }
}

/// One shared batched range traversal per tree
/// ([`RTree::multi_range_parallel`] when `threads > 1`), per-query
/// candidate lists concatenated in shard order.
pub fn multi_range_sharded(
    trees: &[RTree],
    queries: &[MultiRangeQuery],
    threads: usize,
) -> (Vec<Vec<u64>>, MultiSearchStats) {
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
    let mut stats = MultiSearchStats::default();
    for tree in trees {
        let (cands, s) = if threads > 1 {
            tree.multi_range_parallel(queries, threads)
        } else {
            tree.multi_range(queries)
        };
        for (acc, ids) in out.iter_mut().zip(cands) {
            acc.extend(ids);
        }
        stats.add(&s);
    }
    (out, stats)
}

/// One shared-pool batched kNN per tree ([`RTree::multi_nearest_by`]);
/// per-query candidates merged across trees by `(bound, id)` and
/// truncated back to each query's `k`. Leaf bounds depend only on the
/// item, so the merged per-query lists equal the single-tree ones.
pub fn multi_nearest_by_sharded(
    trees: &[RTree],
    queries: &[MultiKnnQuery],
    threads: usize,
) -> (Vec<Vec<Neighbor>>, MultiSearchStats) {
    let mut out: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
    let mut stats = MultiSearchStats::default();
    for tree in trees {
        let (step, s) = tree.multi_nearest_by(queries, threads);
        for (acc, mut nbs) in out.iter_mut().zip(step) {
            acc.append(&mut nbs);
        }
        stats.add(&s);
    }
    for (q, acc) in queries.iter().zip(out.iter_mut()) {
        sort_neighbors(acc);
        acc.truncate(q.k);
    }
    (out, stats)
}

/// The deterministic neighbour order: `(distance, id)`.
fn sort_neighbors(out: &mut [Neighbor]) {
    out.sort_by(|a, b| {
        a.dist_sq
            .partial_cmp(&b.dist_sq)
            .expect("finite distances")
            .then(a.id.cmp(&b.id))
    });
}

/// A frontier element of the multi-shard best-first search.
enum ForestItem {
    Node {
        shard: usize,
        idx: usize,
        min_dist_sq: f64,
    },
    Item {
        id: u64,
        dist_sq: f64,
    },
}

impl ForestItem {
    fn key(&self) -> f64 {
        match self {
            ForestItem::Node { min_dist_sq, .. } => *min_dist_sq,
            ForestItem::Item { dist_sq, .. } => *dist_sq,
        }
    }
}

impl PartialEq for ForestItem {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for ForestItem {}
impl PartialOrd for ForestItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ForestItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; items before nodes at equal distance so
        // results pop as early as possible (the single-tree rule).
        other
            .key()
            .partial_cmp(&self.key())
            .expect("distances are finite")
            .then_with(|| match (self, other) {
                (ForestItem::Item { .. }, ForestItem::Node { .. }) => Ordering::Greater,
                (ForestItem::Node { .. }, ForestItem::Item { .. }) => Ordering::Less,
                _ => Ordering::Equal,
            })
    }
}

/// Best-first `k`-nearest search over a forest of shard trees: the
/// frontier holds subtrees of *every* shard, so one shared bound on the
/// `k`-th best distance prunes all shards at once.
fn forest_nearest_by(
    trees: &[RTree],
    bound: &dyn Fn(&Rect) -> f64,
    transform: Option<&dyn SpatialTransform>,
    k: usize,
) -> (Vec<Neighbor>, ShardSearchStats) {
    let mut per_shard = vec![SearchStats::default(); trees.len()];
    let mut out: Vec<Neighbor> = Vec::with_capacity(k);
    if k == 0 || trees.iter().all(|t| t.is_empty()) {
        return (out, ShardSearchStats::from_shards(per_shard));
    }

    let mut heap = BinaryHeap::new();
    for (shard, tree) in trees.iter().enumerate() {
        if !tree.is_empty() {
            heap.push(ForestItem::Node {
                shard,
                idx: tree.root,
                min_dist_sq: 0.0,
            });
        }
    }
    let mut worst = f64::INFINITY;
    while let Some(top) = heap.pop() {
        if out.len() >= k && top.key() > worst {
            break;
        }
        match top {
            ForestItem::Item { id, dist_sq } => {
                out.push(Neighbor { id, dist_sq });
                if out.len() == k {
                    worst = dist_sq;
                }
            }
            ForestItem::Node {
                shard,
                idx,
                min_dist_sq,
            } => {
                if out.len() >= k && min_dist_sq > worst {
                    continue;
                }
                let node = &trees[shard].nodes[idx];
                let stats = &mut per_shard[shard];
                stats.nodes_visited += 1;
                if node.level == 0 {
                    stats.leaves_visited += 1;
                }
                for e in &node.entries {
                    stats.entries_tested += 1;
                    let mbr;
                    let rect = match transform {
                        Some(t) => {
                            mbr = t.apply_rect(e.mbr());
                            &mbr
                        }
                        None => e.mbr(),
                    };
                    let d = bound(rect);
                    match e {
                        Entry::Child { node, .. } => heap.push(ForestItem::Node {
                            shard,
                            idx: *node,
                            min_dist_sq: d,
                        }),
                        Entry::Item { id, .. } => heap.push(ForestItem::Item {
                            id: *id,
                            dist_sq: d,
                        }),
                    }
                }
            }
        }
    }
    sort_neighbors(&mut out);
    out.truncate(k);
    (out, ShardSearchStats::from_shards(per_shard))
}

/// A subtree task of the parallel forest search.
struct ForestTask {
    key: f64,
    shard: usize,
    idx: usize,
}

impl PartialEq for ForestTask {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for ForestTask {}
impl PartialOrd for ForestTask {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ForestTask {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key.
        other.key.partial_cmp(&self.key).expect("finite bounds")
    }
}

/// Parallel [`forest_nearest_by`]: the work-stealing best-first search of
/// [`RTree::nearest_by_parallel`] with the pool seeded from every shard's
/// root, so workers drain the globally most promising subtrees regardless
/// of which shard they belong to, under one shared atomic `k`-th-best
/// bound. Results equal the serial forest search exactly.
fn forest_nearest_by_parallel(
    trees: &[RTree],
    bound: &(dyn Fn(&Rect) -> f64 + Sync),
    transform: Option<&(dyn SpatialTransform + Sync)>,
    k: usize,
    threads: usize,
) -> (Vec<Neighbor>, ShardSearchStats) {
    if k == 0 || trees.iter().all(|t| t.is_empty()) {
        return (
            Vec::new(),
            ShardSearchStats::from_shards(vec![SearchStats::default(); trees.len()]),
        );
    }

    let pool: Mutex<BinaryHeap<ForestTask>> = Mutex::new(BinaryHeap::new());
    {
        let mut guard = pool.lock().expect("pool lock");
        for (shard, tree) in trees.iter().enumerate() {
            if !tree.is_empty() {
                guard.push(ForestTask {
                    key: 0.0,
                    shard,
                    idx: tree.root,
                });
            }
        }
    }
    let shared_bound = AtomicF64Min::new(f64::INFINITY);
    let in_flight = AtomicUsize::new(0);

    type WorkerOut = (Vec<Neighbor>, Vec<SearchStats>);
    let workers: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let pool = &pool;
                let shared_bound = &shared_bound;
                let in_flight = &in_flight;
                scope.spawn(move || {
                    let mut per_shard = vec![SearchStats::default(); trees.len()];
                    let mut found: Vec<Neighbor> = Vec::new();
                    let mut kth = LocalKth::new(k, shared_bound);
                    let mut idle_us: u64 = 0;
                    loop {
                        let task = {
                            let mut guard = pool.lock().expect("pool lock");
                            let t = guard.pop();
                            if t.is_some() {
                                in_flight.fetch_add(1, AtomicOrdering::SeqCst);
                            }
                            t
                        };
                        let Some(task) = task else {
                            if in_flight.load(AtomicOrdering::SeqCst) == 0 {
                                break;
                            }
                            if idle_us == 0 {
                                std::thread::yield_now();
                                idle_us = 1;
                            } else {
                                std::thread::sleep(std::time::Duration::from_micros(idle_us));
                                idle_us = (idle_us * 2).min(200);
                            }
                            continue;
                        };
                        idle_us = 0;
                        if task.key <= shared_bound.get() {
                            let tree = &trees[task.shard];
                            let node = &tree.nodes[task.idx];
                            let stats = &mut per_shard[task.shard];
                            stats.nodes_visited += 1;
                            if node.level == 0 {
                                stats.leaves_visited += 1;
                            }
                            let mut children: Vec<ForestTask> = Vec::new();
                            for e in &node.entries {
                                stats.entries_tested += 1;
                                let mbr;
                                let rect = match transform {
                                    Some(t) => {
                                        mbr = t.apply_rect(e.mbr());
                                        &mbr
                                    }
                                    None => e.mbr(),
                                };
                                let d = bound(rect);
                                match e {
                                    Entry::Child { node, .. } => {
                                        if d <= shared_bound.get() {
                                            children.push(ForestTask {
                                                key: d,
                                                shard: task.shard,
                                                idx: *node,
                                            });
                                        }
                                    }
                                    Entry::Item { id, .. } => {
                                        if d <= shared_bound.get() {
                                            found.push(Neighbor {
                                                id: *id,
                                                dist_sq: d,
                                            });
                                            kth.offer(d);
                                        }
                                    }
                                }
                            }
                            if !children.is_empty() {
                                let mut guard = pool.lock().expect("pool lock");
                                for c in children {
                                    guard.push(c);
                                }
                            }
                        }
                        in_flight.fetch_sub(1, AtomicOrdering::SeqCst);
                    }
                    (found, per_shard)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("forest kNN worker panicked"))
            .collect()
    });

    let mut out = Vec::new();
    let mut per_shard = vec![SearchStats::default(); trees.len()];
    for (found, shard_stats) in workers {
        out.extend(found);
        for (acc, s) in per_shard.iter_mut().zip(&shard_stats) {
            acc.add(s);
        }
    }
    sort_neighbors(&mut out);
    out.truncate(k);
    (out, ShardSearchStats::from_shards(per_shard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Space;
    use crate::rstar::RTreeConfig;
    use crate::transform::DiagonalAffine;

    /// A single tree plus the same items partitioned id-mod-n into shards.
    fn tree_and_shards(n_items: usize, shards: usize) -> (RTree, Vec<RTree>) {
        let items: Vec<(Rect, u64)> = (0..n_items as u64)
            .map(|i| {
                let x = ((i * 29) % 97) as f64;
                let y = ((i * 31) % 89) as f64;
                (Rect::point(&[x, y]), i)
            })
            .collect();
        let space = Space::linear(2);
        let single = RTree::bulk_load(space.clone(), RTreeConfig::default(), items.clone());
        let shard_trees: Vec<RTree> = (0..shards as u64)
            .map(|s| {
                let part: Vec<(Rect, u64)> = items
                    .iter()
                    .filter(|(_, id)| id % shards as u64 == s)
                    .cloned()
                    .collect();
                RTree::bulk_load(space.clone(), RTreeConfig::default(), part)
            })
            .collect();
        (single, shard_trees)
    }

    #[test]
    fn sharded_range_covers_the_single_tree_candidates() {
        let (single, trees) = tree_and_shards(400, 4);
        let affine = DiagonalAffine::new(vec![1.0, 1.0], vec![0.0, 0.0]);
        for rect in [
            Rect::new(vec![10.0, 10.0], vec![40.0, 40.0]),
            Rect::new(vec![-5.0, -5.0], vec![200.0, 200.0]),
            Rect::new(vec![96.5, 88.5], vec![99.0, 99.0]),
        ] {
            let (mut want, _) = single.range_transformed(&affine, &rect);
            for threads in [1, 4] {
                let (mut got, stats) = range_transformed_sharded(&trees, &affine, &rect, threads);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want);
                assert_eq!(stats.per_shard.len(), 4);
                assert!(stats.per_thread.is_empty());
                assert_eq!(
                    stats.merged.nodes_visited,
                    stats.per_shard.iter().map(|s| s.nodes_visited).sum::<u64>()
                );
            }
        }
    }

    #[test]
    fn one_tree_runs_the_trees_own_traversal() {
        let (single, _) = tree_and_shards(400, 1);
        let trees = std::slice::from_ref(&single);
        let affine = DiagonalAffine::new(vec![1.0, 1.0], vec![0.0, 0.0]);
        let rect = Rect::new(vec![-5.0, -5.0], vec![200.0, 200.0]);
        let (want, want_stats) = single.range_transformed(&affine, &rect);
        let (got, stats) = range_transformed_sharded(trees, &affine, &rect, 1);
        assert_eq!(got, want);
        assert_eq!(stats.merged, want_stats);
        assert!(stats.per_shard.is_empty() && stats.per_thread.is_empty());
        let (want, want_par) = single.range_transformed_parallel(&affine, &rect, 4);
        let (got, stats) = range_transformed_sharded(trees, &affine, &rect, 4);
        assert_eq!(got, want);
        assert_eq!(stats.merged, want_par.merged);
        // The per-thread split depends on the schedule; its width and
        // total do not.
        assert_eq!(stats.per_thread.len(), want_par.per_thread.len());
        let mut total = SearchStats::default();
        stats.per_thread.iter().for_each(|s| total.add(s));
        assert_eq!(total, stats.merged);
        assert!(stats.per_shard.is_empty());

        let q = [40.0, 40.0];
        let bound = |r: &Rect| r.min_dist_sq(&q);
        let (want, want_stats) = single.nearest_by(&bound, None, 7);
        let (got, stats) = nearest_by_sharded(trees, &bound, None, 7, 1);
        assert_eq!(got.len(), want.len());
        assert_eq!(stats.merged, want_stats);
        assert!(stats.per_shard.is_empty() && stats.per_thread.is_empty());
        let (_, stats) = nearest_by_sharded(trees, &bound, None, 7, 4);
        assert!(stats.per_shard.is_empty() && !stats.per_thread.is_empty());
    }

    #[test]
    fn sharded_knn_equals_single_tree() {
        let (single, trees) = tree_and_shards(500, 3);
        for (q, k) in [([40.0, 40.0], 7usize), ([0.0, 0.0], 1), ([96.0, 12.0], 25)] {
            let bound = |r: &Rect| r.min_dist_sq(&q);
            let (want, _) = single.nearest_by(&bound, None, k);
            for threads in [1, 2, 4] {
                let (got, stats) = nearest_by_sharded(&trees, &bound, None, k, threads);
                assert_eq!(got.len(), want.len(), "k {k} threads {threads}");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.id, b.id, "k {k} threads {threads}");
                    assert_eq!(a.dist_sq.to_bits(), b.dist_sq.to_bits());
                }
                assert_eq!(stats.per_shard.len(), 3);
            }
        }
    }

    #[test]
    fn shared_bound_prunes_across_shards() {
        // A query deep inside shard 0's data: the shared bound from shard
        // 0's items must keep the forest search from reading most of the
        // other shards' nodes.
        let (single, trees) = tree_and_shards(600, 4);
        let q = [29.0, 31.0];
        let bound = |r: &Rect| r.min_dist_sq(&q);
        let (_, single_stats) = single.nearest_by(&bound, None, 3);
        let (_, forest_stats) = nearest_by_sharded(&trees, &bound, None, 3, 1);
        // Best-first over the forest visits the same order of magnitude of
        // nodes as the single tree — far less than 4 independent searches.
        let independent: u64 = trees
            .iter()
            .map(|t| t.nearest_by(&bound, None, 3).1.nodes_visited)
            .sum();
        assert!(
            forest_stats.merged.nodes_visited <= independent,
            "forest {} vs independent {} (single {})",
            forest_stats.merged.nodes_visited,
            independent,
            single_stats.nodes_visited,
        );
    }

    #[test]
    fn empty_and_degenerate_forests() {
        let space = Space::linear(2);
        let trees: Vec<RTree> = (0..3)
            .map(|_| RTree::new(space.clone(), RTreeConfig::default()))
            .collect();
        let q = [0.0, 0.0];
        let bound = |r: &Rect| r.min_dist_sq(&q);
        for threads in [1, 4] {
            let (got, _) = nearest_by_sharded(&trees, &bound, None, 5, threads);
            assert!(got.is_empty());
            let (ids, _) = range_transformed_sharded(
                &trees,
                &DiagonalAffine::new(vec![1.0, 1.0], vec![0.0, 0.0]),
                &Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]),
                threads,
            );
            assert!(ids.is_empty());
            let (none, _) = nearest_by_sharded(&trees, &bound, None, 0, threads);
            assert!(none.is_empty());
        }
    }
}
