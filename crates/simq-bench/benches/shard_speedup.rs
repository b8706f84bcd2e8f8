//! Sharded relations: insert throughput and query fan-out at 1, 2 and 4
//! shards over the random-walk corpus. The shard count is a parameter of
//! one relation shape (a relation with one tree per shard; 1 shard is
//! the unsharded case), so every point runs the same code.
//!
//! Three measurements:
//!
//! * `insert` — appending rows through the catalog
//!   (`StoredRelation::insert`): each insert routes to the owning shard's
//!   tree, which at 1 shard is one monolithic R*-tree and at `shards`
//!   shards is `shards`× smaller. Insertion cost is dominated by tree
//!   *height*, so at sizes where sharding does not change the height the
//!   per-insert times are close — the structural win (one small tree
//!   touched, natural units for future concurrent writers) is reported
//!   via the printed per-shard row counts, and the time gap widens once
//!   the monolithic tree is a level taller than the shard trees.
//! * `index_range` / `index_knn` — the transformed R*-tree paths at 4
//!   threads: one shard runs the tree's own parallel traversal; several
//!   shards are the parallel work units instead (range fans one worker
//!   per shard; kNN runs one best-first search over the forest with a
//!   shared k-th-best bound), so wall-clock scaling tracks core count on
//!   real hardware. Single-core CI shows parity, not regression — the
//!   per-shard counters printed below demonstrate the fan-out either way.
//!
//! Results are bitwise identical at every shard count
//! (`tests/shard_equivalence.rs`); these benches measure only the cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simq_bench::{ms, walk_relation};
use simq_data::WalkGenerator;
use simq_query::{execute, Database, Parallelism};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_speedup");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));

    const ROWS: usize = 6_000;
    const LEN: usize = 128;
    const INSERTS: usize = 400;

    let base = walk_relation("r", ROWS, LEN);
    let mut gen = WalkGenerator::new(9_999);
    let extra: Vec<Vec<f64>> = (0..INSERTS).map(|_| gen.series(LEN)).collect();

    for shards in [1usize, 2, 4] {
        let mut prebuilt = Database::new();
        prebuilt.add_relation_sharded(base.clone(), shards);

        // Insert throughput: extend the already-loaded relation by INSERTS
        // rows through the catalog (store + owning tree per row) and time
        // only the insert loop — feature extraction is layout-independent;
        // the R*-tree insertion (ChooseSubtree, forced reinsertion,
        // splits) runs against one monolithic tree unsharded and against a
        // tree `shards`× smaller when sharded (cost tracks tree height,
        // so expect parity until the heights diverge).
        let timed_insert_pass = || {
            let mut db = prebuilt.clone();
            let stored = db.relation_mut("r").expect("relation exists");
            let start = std::time::Instant::now();
            for (i, series) in extra.iter().enumerate() {
                stored
                    .insert(format!("N{i:04}"), series.clone())
                    .expect("walks are never constant");
            }
            start.elapsed()
        };
        let _warmup = timed_insert_pass();
        let insert_only = timed_insert_pass();
        let per_insert = insert_only.as_secs_f64() * 1e6 / INSERTS as f64;
        println!(
            "shard_speedup/insert/{shards}: {} for {INSERTS} inserts ({per_insert:.1} µs/insert)",
            ms(insert_only),
        );

        // Query fan-out at 4 threads: per-shard work units.
        let mut db = prebuilt.clone();
        db.set_parallelism(Parallelism::Fixed(4));
        group.bench_with_input(BenchmarkId::new("index_range", shards), &shards, |b, _| {
            b.iter(|| {
                execute(
                    &db,
                    "FIND SIMILAR TO ROW 7 IN r USING mavg(8) ON BOTH EPSILON 2.0",
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("index_knn", shards), &shards, |b, _| {
            b.iter(|| execute(&db, "FIND 10 NEAREST TO ROW 7 IN r").unwrap())
        });

        // Print the per-shard counters once per layout so the fan-out is
        // visible even where wall-clock scaling is not (1-core CI).
        let r = execute(&db, "FIND SIMILAR TO ROW 7 IN r EPSILON 3.0").unwrap();
        let nodes: Vec<String> = r
            .per_shard
            .iter()
            .map(|s| s.nodes_visited.to_string())
            .collect();
        println!(
            "shard_speedup/counters/{shards}: shards_touched={} per-shard nodes=[{}] merged nodes={} threads_used={}",
            r.stats.shards_touched,
            nodes.join(", "),
            r.stats.nodes_visited,
            r.stats.threads_used,
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
