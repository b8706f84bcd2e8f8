//! Seeded inputs: corpora and op sequences. The same seed always yields
//! the same inputs; the engine only ever sees what is generated here.
//!
//! The workloads' corpora and the local workloads' query rows come from
//! the fixed [`CORPUS_SEED`]; the run's seed chooses the op order, the
//! checked sample, `serve_rw`'s query rows and the insert batches. Every
//! seed then asks the same corpus the same questions, so a run's work
//! does not depend on its seed.

use simq_data::{MarketConfig, StockMarket, WalkGenerator};
use simq_query::{Database, Parallelism};
use simq_series::FeatureScheme;
use simq_storage::SeriesRelation;

/// The seed of every workload's corpus.
pub const CORPUS_SEED: u64 = 0x5EED_C0DE;

/// Samples per series in every corpus.
pub const SERIES_LEN: usize = 128;

/// SplitMix64: a small, fixed generator so op sequences do not depend on
/// any other crate's random number generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `rows` seeded random walks (the paper's generator) named `W00000…`.
pub fn walk_relation(name: &str, rows: usize, seed: u64) -> SeriesRelation {
    let mut gen = WalkGenerator::new(seed);
    let mut rel = SeriesRelation::new(name, SERIES_LEN, FeatureScheme::paper_default());
    let mut i = 0usize;
    while rel.len() < rows {
        // A constant walk is rejected by the relation; skip it.
        if rel
            .insert(format!("W{i:05}"), gen.series(SERIES_LEN))
            .is_ok()
        {
            i += 1;
        }
    }
    rel
}

/// `stocks` simulated stocks × [`SERIES_LEN`] days (the Table 1 corpus at
/// 1,067).
pub fn stock_relation(name: &str, stocks: usize, seed: u64) -> SeriesRelation {
    let market = StockMarket::generate(
        &MarketConfig {
            stocks,
            days: SERIES_LEN,
            ..MarketConfig::default()
        },
        seed,
    );
    let mut rel = SeriesRelation::new(name, SERIES_LEN, FeatureScheme::paper_default());
    for s in market.stocks {
        rel.insert(s.name, s.prices)
            .expect("simulated stocks are non-constant");
    }
    rel
}

/// An empty database pinned to serial execution (never inherited from
/// the environment). The filter tier stays at its default.
pub fn serial_db() -> Database {
    Database::new().with_parallelism(Parallelism::Serial)
}

/// `count` seeded insert batches of `rows` fresh walks each.
pub fn insert_batches(seed: u64, count: usize, rows: usize) -> Vec<Vec<(String, Vec<f64>)>> {
    let mut gen = WalkGenerator::new(seed ^ 0x1A5E_47B1);
    (0..count)
        .map(|b| {
            (0..rows)
                .map(|j| (format!("N{b:05}.{j}"), gen.series(SERIES_LEN)))
                .collect()
        })
        .collect()
}

/// Range forms: identity, `mavg(8) ON BOTH` and `reverse`, each with its
/// ε levels (chosen so an op yields roughly 0.1–3% of the rows as index
/// candidates).
pub const RANGE_FORMS: [(&str, [f64; 3]); 3] = [
    ("", [1.0, 1.5, 2.0]),
    (" USING mavg(8) ON BOTH", [0.8, 1.2, 1.6]),
    (" USING reverse", [1.0, 1.5, 2.0]),
];

/// Range op `j` over `rows` rows of relation `rel`: the form and ε level
/// go round-robin, so every prefix of an op sequence holds them in equal
/// shares whatever the seed; the query row is seeded.
pub fn range_op(rng: &mut Rng, j: usize, rel: &str, rows: usize) -> String {
    range_op_on(j, rng.below(rows), rel)
}

/// Range op `j` with query row `row`.
pub fn range_op_on(j: usize, row: usize, rel: &str) -> String {
    let (using, levels) = RANGE_FORMS[j % RANGE_FORMS.len()];
    let eps = levels[(j / RANGE_FORMS.len()) % levels.len()];
    format!("FIND SIMILAR TO ROW {row} IN {rel}{using} EPSILON {eps}")
}

/// kNN op `j`: `k` from `ks` and identity or `mavg(8) ON BOTH` go
/// round-robin; the query row is seeded.
pub fn knn_op(rng: &mut Rng, j: usize, rel: &str, rows: usize, ks: &[usize]) -> String {
    knn_op_on(j, rng.below(rows), rel, ks)
}

/// kNN op `j` with query row `row`.
pub fn knn_op_on(j: usize, row: usize, rel: &str, ks: &[usize]) -> String {
    let k = ks[j % ks.len()];
    let using = ["", " USING mavg(8) ON BOTH"][(j / ks.len()) % 2];
    format!("FIND {k} NEAREST TO ROW {row} IN {rel}{using}")
}

/// Shuffles `items` in place (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `count` distinct query rows of a `rows`-row relation (all of them
/// when `count` ≥ `rows`), drawn from [`CORPUS_SEED`]: fixed like the
/// corpus, because the cost of a range op varies many times over with
/// its query row's neighbourhood — with 1,008 query rows drawn from the
/// run's seed, two seeds' average work per op differed by 15%.
pub fn query_rows(rows: usize, count: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rows).collect();
    shuffle(&mut order, &mut Rng::new(CORPUS_SEED, 7));
    order.truncate(count);
    order
}

/// Every query row under every form and ε level (`RANGE_FORMS`, 9
/// ops per row), in an order drawn from `seed`.
pub fn range_ops(seed: u64, rel: &str, query_rows: &[usize]) -> Vec<String> {
    let mut ops: Vec<String> = query_rows
        .iter()
        .flat_map(|&row| (0..9).map(move |j| range_op_on(j, row, rel)))
        .collect();
    shuffle(&mut ops, &mut Rng::new(seed, 1));
    ops
}

/// Every query row under every k ∈ {1, 8, 32} and form (6 ops per row),
/// in an order drawn from `seed`.
pub fn knn_ops(seed: u64, rel: &str, query_rows: &[usize]) -> Vec<String> {
    let mut ops: Vec<String> = query_rows
        .iter()
        .flat_map(|&row| (0..6).map(move |j| knn_op_on(j, row, rel, &[1, 8, 32])))
        .collect();
    shuffle(&mut ops, &mut Rng::new(seed, 2));
    ops
}

/// The Table 1 self-join at ε.
pub fn pairs_op(rel: &str, eps: f64) -> String {
    format!("FIND PAIRS IN {rel} USING mavg(20) EPSILON {eps}")
}

/// The ε the `repro` binary's Table 1 calibration settles on for its
/// 1,067-stock market (40 pairs under method d). It is fixed rather than
/// recalibrated per seed, so every seed's joins do comparable work.
pub const PAIRS_REPRO_EPS: f64 = 0.0283;

/// ε of the pairs workload's looser op: it returns tens of thousands of
/// pairs, the large-result-set case.
pub const PAIRS_LOOSE_EPS: f64 = 0.3;

/// The pairs op cycle: the repro ε, a tighter ε (half of it), the repro
/// ε again, and [`PAIRS_LOOSE_EPS`], started at a seeded point of the
/// cycle. Half the ops run at the repro ε, so the median op is a
/// repro-ε join.
pub fn pairs_ops(seed: u64, rel: &str) -> Vec<String> {
    let mut cycle: Vec<String> = [
        PAIRS_REPRO_EPS,
        PAIRS_REPRO_EPS / 2.0,
        PAIRS_REPRO_EPS,
        PAIRS_LOOSE_EPS,
    ]
    .iter()
    .map(|&e| pairs_op(rel, e))
    .collect();
    let start = Rng::new(seed, 6).below(cycle.len());
    cycle.rotate_left(start);
    cycle
}
