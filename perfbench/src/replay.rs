//! Replays one op's `run_with_plan` layer by layer through the engine's
//! public functions, so each layer's time and work can be measured from
//! outside the engine.
//!
//! The replay repeats, on the same inputs, the steps the executor takes
//! for an index-served op: query preparation in `simq-series`, descent in
//! `simq-index` (`RTree::range_transformed` and `RTree::nearest_by`, the
//! calls the executor makes — `nearest_transformed` and
//! `join_via_probes` would visit different nodes), the signature tier in
//! `simq-storage` and exact verification in `simq-series`. It runs on a
//! tree built with `SeriesRelation::build_index(RTreeConfig::default())`,
//! which is the tree an unsharded indexed relation holds. Its work counts
//! must equal the op's `ExecStats`; [`Work::matches`] checks that.

use std::collections::BTreeMap;

use simq_dsp::complex::Complex;
use simq_index::RTree;
use simq_query::{
    AccessPath, Database, ExecStats, Hit, PairHit, Plan, Query, QueryOutput, QuerySource,
    StoredRelation,
};
use simq_series::{distance_outcome, spectral_mindist, SeriesTransform};
use simq_storage::FilterProbe;

use crate::trace::Tracer;

/// Span names of the split layers.
pub const PREP: &str = "simq-series.prep";
/// Index descent.
pub const DESCENT: &str = "simq-index.descent";
/// Signature filter tier.
pub const FILTER: &str = "simq-storage.filter";
/// Exact verification.
pub const VERIFY: &str = "simq-series.verify";

/// Work the replay performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Index nodes visited.
    pub nodes: u64,
    /// Leaf nodes among them.
    pub leaves: u64,
    /// Index entries tested.
    pub entries: u64,
    /// Ids the index returned (for joins: over all probes, self-matches
    /// and symmetric duplicates included, as `ExecStats::candidates`).
    pub candidates: u64,
    /// Candidates the signature tier was asked about.
    pub filter_tests: u64,
    /// Candidates it dismissed.
    pub filtered_out: u64,
    /// Exact-distance calls (kNN radius calls included).
    pub exact_calls: u64,
    /// Complex coefficients those calls compared.
    pub coefficients: u64,
    /// Result rows.
    pub answers: u64,
}

impl Work {
    /// Adds another op's work.
    pub fn add(&mut self, o: &Work) {
        self.nodes += o.nodes;
        self.leaves += o.leaves;
        self.entries += o.entries;
        self.candidates += o.candidates;
        self.filter_tests += o.filter_tests;
        self.filtered_out += o.filtered_out;
        self.exact_calls += o.exact_calls;
        self.coefficients += o.coefficients;
        self.answers += o.answers;
    }

    fn add_search(&mut self, s: &simq_index::SearchStats) {
        self.nodes += s.nodes_visited;
        self.leaves += s.leaves_visited;
        self.entries += s.entries_tested;
    }

    /// Whether every count `ExecStats` also reports is equal.
    pub fn matches(&self, s: &ExecStats) -> bool {
        self.nodes == s.nodes_visited
            && self.leaves == s.leaves_visited
            && self.entries == s.entries_tested
            && self.candidates == s.candidates
            && self.filtered_out == s.filtered_out
            && self.coefficients == s.coefficients_compared
            && self.answers == s.verified
            && s.rows_scanned == 0
    }
}

/// The engine's search-radius pad (`simq_query::exec::pad`, which is
/// crate-private): one part in 10⁹ plus 10⁻⁹. If the engine changes it,
/// the replay's counts stop matching and the run reports the mismatch.
fn pad(radius: f64) -> f64 {
    radius * (1.0 + 1e-9) + 1e-9
}

/// Replays `query` under `plan`. `None` when the op's form is not split:
/// it does not run on an unsharded index (a scan, a scan join, a sharded
/// relation) or uses a `MEAN`/`STD` window. Its whole executor time then
/// stays in `simq-query.exec_us`.
///
/// # Errors
/// An engine error from a preparation step, as text.
pub fn replay(
    db: &Database,
    tree: &RTree,
    query: &Query,
    plan: &Plan,
    t: &mut Tracer,
) -> Option<Result<(Work, QueryOutput), String>> {
    if plan.shards != 1 {
        return None;
    }
    match (query, &plan.access) {
        (
            Query::Range {
                source,
                relation,
                transform,
                on_both,
                eps,
                stats_window,
                ..
            },
            AccessPath::IndexScan,
        ) if stats_window.is_empty() => {
            let stored = db.relation(relation)?;
            Some(range(
                db, stored, tree, source, transform, *on_both, *eps, t,
            ))
        }
        (
            Query::Knn {
                k,
                source,
                relation,
                transform,
                on_both,
                ..
            },
            AccessPath::IndexScan,
        ) => {
            let stored = db.relation(relation)?;
            Some(knn(db, stored, tree, source, transform, *on_both, *k, t))
        }
        (
            Query::AllPairs {
                relation,
                left,
                right,
                eps,
                ..
            },
            AccessPath::IndexProbeJoin { transformed },
        ) => {
            let stored = db.relation(relation)?;
            let (left, right) = if *transformed {
                (left.clone(), right.clone())
            } else {
                (SeriesTransform::Identity, SeriesTransform::Identity)
            };
            Some(pairs(
                db,
                stored,
                tree,
                &left,
                &right,
                left == right,
                *eps,
                t,
            ))
        }
        _ => None,
    }
}

/// The query's normal-form spectrum (transformed when `ON BOTH`), mean
/// and standard deviation.
fn resolve(
    stored: &StoredRelation,
    source: &QuerySource,
    transform: &SeriesTransform,
    on_both: bool,
) -> Result<(Vec<Complex>, f64, f64), String> {
    let n = stored.series_len();
    let (spectrum, mean, std_dev) = match source {
        QuerySource::Literal(values) => {
            let f = stored.scheme().extract(values).map_err(|e| e.to_string())?;
            (f.spectrum, f.mean, f.std_dev)
        }
        QuerySource::RowId(id) => {
            let row = stored.row(*id).ok_or("unknown row")?;
            (
                row.features.spectrum.clone(),
                row.features.mean,
                row.features.std_dev,
            )
        }
        QuerySource::RowName(name) => {
            let row = stored.find_row_named(name).ok_or("unknown row")?;
            (
                row.features.spectrum.clone(),
                row.features.mean,
                row.features.std_dev,
            )
        }
    };
    let spectrum = if on_both {
        transform
            .apply_spectrum(&spectrum, n)
            .map_err(|e| e.to_string())?
    } else {
        spectrum
    };
    Ok((spectrum, mean, std_dev))
}

/// The signature tier over `ids`: the survivors, with tests and
/// dismissals counted into `work`.
fn filter(
    db: &Database,
    stored: &StoredRelation,
    probe_spec: &[Complex],
    multipliers: &[Complex],
    threshold_sq: f64,
    ids: impl Iterator<Item = u64>,
    work: &mut Work,
) -> Vec<u64> {
    let probe = db
        .filter_enabled()
        .then(|| FilterProbe::new(probe_spec, multipliers, stored.sig_coeffs()));
    let mut out = Vec::new();
    for id in ids {
        if let (Some(p), Some(sig)) = (&probe, stored.signature(id)) {
            work.filter_tests += 1;
            if p.dismisses(sig, threshold_sq) {
                work.filtered_out += 1;
                continue;
            }
        }
        out.push(id);
    }
    out
}

/// One exact distance, as the executor computes it: `None` when the
/// accumulation abandoned over `abandon_sq`.
fn exact_sq(
    spectrum: &[Complex],
    multipliers: &[Complex],
    q: &[Complex],
    abandon_sq: Option<f64>,
    work: &mut Work,
) -> Option<f64> {
    let o = distance_outcome(spectrum, multipliers, q, abandon_sq);
    work.exact_calls += 1;
    work.coefficients += o.compared;
    (!o.abandoned).then_some(o.dist_sq)
}

fn sort_hits(hits: &mut [Hit]) {
    hits.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
}

#[allow(clippy::too_many_arguments)]
fn range(
    db: &Database,
    stored: &StoredRelation,
    tree: &RTree,
    source: &QuerySource,
    transform: &SeriesTransform,
    on_both: bool,
    eps: f64,
    t: &mut Tracer,
) -> Result<(Work, QueryOutput), String> {
    let n = stored.series_len();
    let scheme = stored.scheme();
    let mut work = Work::default();
    let (q, action, rect, lowered) = t.span(PREP, 5, |_| -> Result<_, String> {
        let (q, mean, std_dev) = resolve(stored, source, transform, on_both)?;
        let action = transform
            .action(n, n.saturating_sub(1))
            .map_err(|e| e.to_string())?;
        let point = scheme
            .point_from_spectrum(mean, std_dev, &q)
            .map_err(|e| e.to_string())?;
        let rect = scheme.search_rect(&point, pad(eps));
        let lowered = transform.lower(scheme, n).map_err(|e| e.to_string())?;
        Ok((q, action, rect, lowered))
    })?;
    let candidates = t.span(DESCENT, 1, |_| {
        let (ids, s) = tree.range_transformed(&lowered, &rect);
        work.add_search(&s);
        ids
    });
    work.candidates = candidates.len() as u64;
    let survivors = t.span(FILTER, 0, |t| {
        let out = filter(
            db,
            stored,
            &q,
            &action.multipliers,
            eps * eps,
            candidates.iter().copied(),
            &mut work,
        );
        t.add_calls(work.filter_tests);
        out
    });
    let mut hits = t.span(VERIFY, survivors.len() as u64, |_| {
        let mut hits = Vec::new();
        for id in survivors {
            let row = stored.row(id).expect("index ids are valid");
            let d = exact_sq(
                &row.features.spectrum,
                &action.multipliers,
                &q,
                Some(eps * eps),
                &mut work,
            )
            .map_or(f64::INFINITY, f64::sqrt);
            if d <= eps {
                hits.push(Hit {
                    id,
                    name: row.name.clone(),
                    distance: d,
                });
            }
        }
        hits
    });
    sort_hits(&mut hits);
    work.answers = hits.len() as u64;
    Ok((work, QueryOutput::Hits(hits)))
}

#[allow(clippy::too_many_arguments)]
fn knn(
    db: &Database,
    stored: &StoredRelation,
    tree: &RTree,
    source: &QuerySource,
    transform: &SeriesTransform,
    on_both: bool,
    k: usize,
    t: &mut Tracer,
) -> Result<(Work, QueryOutput), String> {
    let n = stored.series_len();
    let scheme = stored.scheme();
    let mut work = Work::default();
    let (q, point, q_coeffs, action, lowered) = t.span(PREP, 5, |_| -> Result<_, String> {
        let (q, _, _) = resolve(stored, source, transform, on_both)?;
        let point = scheme
            .point_from_spectrum(0.0, 0.0, &q)
            .map_err(|e| e.to_string())?;
        let q_coeffs = scheme.coefficients_of_point(&point);
        let lowered = transform.lower(scheme, n).map_err(|e| e.to_string())?;
        let action = transform
            .action(n, n.saturating_sub(1))
            .map_err(|e| e.to_string())?;
        Ok((q, point, q_coeffs, action, lowered))
    })?;
    // Step 1: k candidates by the spectral MINDIST bound.
    let step1 = t.span(DESCENT, 1, |_| {
        let bound = |r: &simq_index::Rect| spectral_mindist(scheme, &q_coeffs, r);
        let (nbs, s) = tree.nearest_by(&bound, Some(&lowered), k);
        work.add_search(&s);
        nbs
    });
    if step1.is_empty() {
        return Ok((work, QueryOutput::Hits(Vec::new())));
    }
    // The k-th candidate's exact distance bounds step 2.
    let radius_sq = t.span(VERIFY, step1.len() as u64, |_| {
        step1.iter().fold(0.0f64, |acc, nb| {
            let row = stored.row(nb.id).expect("index ids are valid");
            let d = exact_sq(
                &row.features.spectrum,
                &action.multipliers,
                &q,
                None,
                &mut work,
            )
            .expect("no abandon bound");
            acc.max(d)
        })
    });
    let rect = t.span(PREP, 1, |_| {
        scheme.search_rect(&point, pad(radius_sq.sqrt()))
    });
    let candidates = t.span(DESCENT, 1, |_| {
        let (ids, s) = tree.range_transformed(&lowered, &rect);
        work.add_search(&s);
        ids
    });
    work.candidates = candidates.len() as u64;
    let survivors = t.span(FILTER, 0, |t| {
        let before = work.filter_tests;
        let out = filter(
            db,
            stored,
            &q,
            &action.multipliers,
            radius_sq,
            candidates.iter().copied(),
            &mut work,
        );
        t.add_calls(work.filter_tests - before);
        out
    });
    let mut hits = t.span(VERIFY, survivors.len() as u64, |_| {
        let mut hits = Vec::new();
        for id in survivors {
            let row = stored.row(id).expect("index ids are valid");
            if let Some(d_sq) = exact_sq(
                &row.features.spectrum,
                &action.multipliers,
                &q,
                Some(radius_sq),
                &mut work,
            ) {
                if d_sq.is_finite() {
                    hits.push(Hit {
                        id,
                        name: row.name.clone(),
                        distance: d_sq.sqrt(),
                    });
                }
            }
        }
        hits
    });
    sort_hits(&mut hits);
    hits.truncate(k);
    work.answers = hits.len() as u64;
    Ok((work, QueryOutput::Hits(hits)))
}

#[allow(clippy::too_many_arguments)]
fn pairs(
    db: &Database,
    stored: &StoredRelation,
    tree: &RTree,
    left: &SeriesTransform,
    right: &SeriesTransform,
    symmetric: bool,
    eps: f64,
    t: &mut Tracer,
) -> Result<(Work, QueryOutput), String> {
    let n = stored.series_len();
    let scheme = stored.scheme();
    let mut work = Work::default();
    let rows = stored.rows_in_scan_order();
    // One probe per row: its spectrum under `left` and its search
    // rectangle; the index side carries `right`.
    let (lowered, action, probes) = t.span(PREP, 3, |t| -> Result<_, String> {
        let lowered = right.lower(scheme, n).map_err(|e| e.to_string())?;
        let action = right
            .action(n, n.saturating_sub(1))
            .map_err(|e| e.to_string())?;
        let left_action = left
            .action(n, n.saturating_sub(1))
            .map_err(|e| e.to_string())?;
        let mut probes = Vec::with_capacity(rows.len());
        for row in &rows {
            let s = &row.features.spectrum;
            let mut spec = Vec::with_capacity(s.len());
            spec.push(s[0]);
            spec.extend(
                s[1..]
                    .iter()
                    .zip(&left_action.multipliers)
                    .map(|(x, a)| *x * *a),
            );
            let point = scheme
                .point_from_spectrum(0.0, 0.0, &spec)
                .map_err(|e| e.to_string())?;
            let rect = scheme.search_rect(&point, pad(eps));
            probes.push((row.id, spec, rect));
        }
        t.add_calls(2 * rows.len() as u64);
        Ok((lowered, action, probes))
    })?;
    let candidates: Vec<Vec<u64>> = t.span(DESCENT, probes.len() as u64, |_| {
        probes
            .iter()
            .map(|(_, _, rect)| {
                let (ids, s) = tree.range_transformed(&lowered, rect);
                work.add_search(&s);
                ids
            })
            .collect()
    });
    work.candidates = candidates.iter().map(|c| c.len() as u64).sum();
    // Self-matches and, for symmetric joins, each pair's second
    // discovery are skipped before the filter, as in the executor.
    let survivors: Vec<Vec<u64>> = t.span(FILTER, 0, |t| {
        let out = probes
            .iter()
            .zip(&candidates)
            .map(|((pid, spec, _), ids)| {
                let pid = *pid;
                let kept = ids
                    .iter()
                    .copied()
                    .filter(|&id| if symmetric { id > pid } else { id != pid });
                filter(
                    db,
                    stored,
                    spec,
                    &action.multipliers,
                    eps * eps,
                    kept,
                    &mut work,
                )
            })
            .collect();
        t.add_calls(probes.len() as u64 + work.filter_tests);
        out
    });
    let found = t.span(VERIFY, 0, |t| {
        let mut found: BTreeMap<(u64, u64), f64> = BTreeMap::new();
        for ((pid, spec, _), ids) in probes.iter().zip(&survivors) {
            for &id in ids {
                let other = stored.row(id).expect("index ids are valid");
                let d = exact_sq(
                    &other.features.spectrum,
                    &action.multipliers,
                    spec,
                    Some(eps * eps),
                    &mut work,
                )
                .map_or(f64::INFINITY, f64::sqrt);
                if d <= eps {
                    let key = ((*pid).min(id), (*pid).max(id));
                    let e = found.entry(key).or_insert(d);
                    if d < *e {
                        *e = d;
                    }
                }
            }
        }
        t.add_calls(work.exact_calls);
        found
    });
    let pairs: Vec<PairHit> = found
        .into_iter()
        .map(|((a, b), distance)| PairHit { a, b, distance })
        .collect();
    work.answers = pairs.len() as u64;
    Ok((work, QueryOutput::Pairs(pairs)))
}
