//! The benchmark's own tests, at tiny sizes.

use std::time::{Duration, Instant};

use perfbench::affinity;
use perfbench::check;
use perfbench::corpus;
use perfbench::local::{self, Local};
use perfbench::openloop::{self, Phase};
use perfbench::replay;
use perfbench::report::{END_TO_END, PER_LAYER, SERVE_RW_ONLY};
use perfbench::serve;
use perfbench::stats;
use perfbench::trace::Tracer;
use simq_index::RTreeConfig;
use simq_query::{parse, plan_query, run_with_plan, Database, QueryOutput, Session};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|v| v as f64).collect()
}

#[test]
fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
    let t = stats::tail(&ramp(1000));
    assert_eq!(
        (t.percentile, t.value, t.beyond, t.samples),
        (99, 990.0, 10, 1000)
    );
    // One sample fewer leaves 9 beyond p99: p95 is reported.
    let t = stats::tail(&ramp(999));
    assert_eq!((t.percentile, t.beyond), (95, 49));
    let t = stats::tail(&ramp(150));
    assert_eq!((t.percentile, t.value, t.beyond), (90, 135.0, 15));
    // Too few for any: p90 with the shortfall visible.
    let t = stats::tail(&ramp(50));
    assert_eq!((t.percentile, t.beyond), (90, 5));
}

#[test]
fn the_tail_is_taken_over_the_whole_window() {
    // 2,000 ops (ns), the slowest 1% all in the last chunk: the window's
    // p99 sees them, though a median of per-chunk tails would not.
    let mut lat = vec![1_000.0; 2000];
    for v in &mut lat[1980..] {
        *v = 9_000.0;
    }
    lat[1979] = 5_000.0;
    let mut out = perfbench::report::Outcome::default();
    local::report_tail(&mut out, &lat);
    assert_eq!(out.get("latency_tail_us"), Some(5.0));
    assert!(out.notes[0]
        .starts_with("latency_tail_us is p99 over the window (2000 samples, 20 beyond)"));
}

#[test]
fn quantiles_and_medians() {
    assert_eq!(stats::quantile(&ramp(10), 0.5), 5.0);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(stats::ratio(1.0, 0.0), 0.0);
}

#[test]
fn each_op_is_taken_at_its_fastest_run() {
    // Ops 0 and 1 alternate; op 1's second run fell in a slow spell.
    let lat = [1e6, 3e6, 2e6, 9e6, 1.5e6, 3e6];
    let pos = [0, 1, 0, 1, 0, 1];
    assert_eq!(
        stats::at_fastest(&lat, &pos),
        vec![1e6, 3e6, 1e6, 3e6, 1e6, 3e6]
    );
}

#[test]
fn speed_takes_every_op_at_its_fastest_run() {
    // Four ops, each run four times at 1, 2, 3 and 4 ms; a slow spell of
    // the machine doubles the whole second half of the window.
    let mut lat = Vec::new();
    let mut pos = Vec::new();
    for round in 0..4 {
        for op in 0..4 {
            let spell = if round >= 2 { 2.0 } else { 1.0 };
            lat.push(1e6 * f64::from(op + 1) * spell);
            pos.push(op as usize);
        }
    }
    let mut out = perfbench::report::Outcome::default();
    local::report_speed(&mut out, &lat, &pos, 1.0);
    assert_eq!(out.get("ops_per_s"), Some(400.0));
    assert_eq!(out.get("latency_p50_us"), Some(2500.0));
    // A change that slows every op by a tenth moves both by a tenth.
    let slower: Vec<f64> = lat.iter().map(|v| v * 1.1).collect();
    local::report_speed(&mut out, &slower, &pos, 1.1);
    assert!((out.get("ops_per_s").unwrap() - 400.0 / 1.1).abs() < 1e-9);
    assert!((out.get("latency_p50_us").unwrap() - 2750.0).abs() < 1e-9);
    // A change that slows one op of four shows in the rate.
    let mut one = lat.clone();
    for (l, p) in one.iter_mut().zip(&pos) {
        if *p == 3 {
            *l *= 2.0;
        }
    }
    local::report_speed(&mut out, &one, &pos, 1.0);
    assert!((out.get("ops_per_s").unwrap() - 4.0 / 14e-3).abs() < 1e-9);
}

#[test]
fn schedule_spaces_requests_by_phase_rate() {
    let due = openloop::due_offsets(&[
        Phase {
            rate: 10.0,
            duration: Duration::from_secs(1),
        },
        Phase {
            rate: 20.0,
            duration: Duration::from_millis(500),
        },
    ]);
    assert_eq!(due.len(), 20);
    assert_eq!(due[0], (0, Duration::ZERO));
    assert_eq!(due[9].0, 0);
    assert_eq!(due[10], (1, Duration::from_secs(1)));
    let gap = due[11].1 - due[10].1;
    assert!((gap.as_secs_f64() - 0.05).abs() < 1e-9);
}

#[test]
fn latency_is_timed_from_the_due_time() {
    let due = Instant::now();
    let t = openloop::account(
        2,
        due,
        due + Duration::from_millis(5),
        due + Duration::from_millis(7),
        true,
    );
    assert_eq!(t.phase, 2);
    assert_eq!(t.late, Duration::from_millis(5));
    assert_eq!(t.latency, Duration::from_millis(7));
}

#[test]
fn a_stall_charges_the_requests_queued_behind_it() {
    // Four requests due 10 ms apart; the first takes 45 ms, so the next
    // three are sent late, and their latency counts the wait.
    let schedule: Vec<(usize, Duration)> =
        (0..4).map(|i| (0, Duration::from_millis(10 * i))).collect();
    let timings = openloop::drive(Instant::now(), &schedule, |i| {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(45));
        }
        true
    });
    assert!(timings[0].latency >= Duration::from_millis(45));
    assert!(timings[0].late < Duration::from_millis(10));
    for (i, t) in timings.iter().enumerate().skip(1) {
        let expected = Duration::from_millis(45 - 10 * i as u64);
        assert!(t.late >= expected, "request {i} late {:?}", t.late);
        assert!(t.latency >= t.late);
    }
    assert!(openloop::backlog_grew(&timings, Duration::from_millis(1)));
    assert!(!openloop::backlog_grew(
        &timings,
        Duration::from_millis(100)
    ));
}

#[test]
fn tracer_self_time_excludes_children() {
    let mut t = Tracer::new(1);
    t.start_op(0);
    t.span("root", 1, |t| {
        t.span("child", 1, |_| std::thread::sleep(Duration::from_millis(2)));
    });
    let spans = t.op_spans().to_vec();
    assert_eq!(spans[1].parent, Some(0));
    let selfs = perfbench::trace::self_times(&spans);
    assert_eq!(selfs["root"] + selfs["child"], spans[0].duration_ns());
    t.finish_op();
    assert_eq!(t.total_self_ns("child"), spans[1].duration_ns());
    let mut tsv = Vec::new();
    t.write_tsv(&mut tsv).unwrap();
    assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 3);
}

/// Every op form the workloads run, plus the unsplit and unfiltered
/// variants, over tiny corpora.
fn tiny_forms() -> Vec<(Local, Vec<String>)> {
    let mut range: Vec<String> = (0..9)
        .map(|j| {
            let mut rng = corpus::Rng::new(7, j as u64);
            corpus::range_op(&mut rng, j, "walks", 300)
        })
        .collect();
    range.push("FIND SIMILAR TO ROW 5 IN walks USING mavg(8) ON BOTH EPSILON 6".into());
    range.push("FIND SIMILAR TO ROW 9 IN walks EPSILON 7".into());
    let knn: Vec<String> = (0..6)
        .map(|j| {
            let mut rng = corpus::Rng::new(7, j as u64);
            corpus::knn_op(&mut rng, j, "walks", 300, &[1, 8, 32])
        })
        .chain(["FIND 5 NEAREST TO ROW 3 IN walks".to_string()])
        .collect();
    let mut pairs = corpus::pairs_ops(7, "stocks");
    pairs.push(format!("{} METHOD c", corpus::pairs_op("stocks", 0.2)));
    vec![
        (Local::Range, range),
        (Local::Knn, knn),
        (Local::Pairs, pairs),
    ]
}

fn tiny(w: Local) -> local::Built {
    let rows = if w == Local::Pairs { 120 } else { 300 };
    local::build(w, rows, true)
}

#[test]
fn replay_counts_equal_exec_stats_for_every_op_form() {
    for filter in [true, false] {
        for (w, texts) in tiny_forms() {
            let mut built = tiny(w);
            built.db.set_filter(filter);
            let tree = built.tree.as_ref().unwrap();
            let db: &Database = &built.db;
            let mut tracer = Tracer::new(0);
            for text in &texts {
                let q = parse(text).unwrap();
                let plan = plan_query(db, &q).unwrap();
                let result = run_with_plan(db, &q, plan.clone()).unwrap();
                tracer.start_op(0);
                let (work, output) = replay::replay(db, tree, &q, &plan, &mut tracer)
                    .unwrap_or_else(|| panic!("`{text}` is split"))
                    .unwrap();
                tracer.finish_op();
                assert!(
                    work.matches(&result.stats),
                    "`{text}` (filter {filter}): {work:?} vs {:?}",
                    result.stats
                );
                assert!(
                    check::same(&output, &result.output),
                    "`{text}`: replay answer differs"
                );
                assert!(work.exact_calls >= work.answers.min(1));
                if !filter {
                    assert_eq!(work.filter_tests, 0);
                }
            }
        }
    }
}

#[test]
fn a_replay_that_does_not_match_splits_nothing() {
    let built = tiny(Local::Range);
    let db = &built.db;
    // A tree over other rows: the replay's counts cannot match.
    let wrong = corpus::walk_relation("walks", 300, 99).build_index(RTreeConfig::default());
    let text = "FIND SIMILAR TO ROW 5 IN walks EPSILON 3";
    let mut t = Tracer::new(0);
    let mut acc = local::TracedWindow::default();
    t.start_op(0);
    let e = local::traced_op(db, text, 0, &mut t, &mut acc).unwrap();
    t.finish_op();
    t.start_op(0);
    local::replay_op(db, &wrong, text, &e, &mut t, &mut acc);
    t.finish_op();
    assert_eq!((acc.split, acc.mismatches), (0, 1));
    assert_eq!(acc.work, replay::Work::default());
    assert_eq!(acc.wire_bytes, 0);
    for layer in [
        replay::PREP,
        replay::DESCENT,
        replay::FILTER,
        replay::VERIFY,
    ] {
        assert_eq!(t.total_self_ns(layer), 0, "{layer}");
    }
    // On the relation's own tree the same op splits.
    t.start_op(0);
    local::replay_op(db, built.tree.as_ref().unwrap(), text, &e, &mut t, &mut acc);
    t.finish_op();
    assert_eq!((acc.split, acc.mismatches), (1, 1));
    assert!(t.total_self_ns(replay::DESCENT) > 0);
}

#[test]
fn scans_are_not_split() {
    let built = tiny(Local::Range);
    let db = &built.db;
    let q = parse("FIND SIMILAR TO ROW 1 IN walks EPSILON 3 FORCE SCAN").unwrap();
    let plan = plan_query(db, &q).unwrap();
    let mut tracer = Tracer::new(0);
    tracer.start_op(0);
    assert!(replay::replay(db, built.tree.as_ref().unwrap(), &q, &plan, &mut tracer).is_none());
}

#[test]
fn index_answers_agree_with_the_oracles() {
    for (w, texts) in tiny_forms() {
        let built = tiny(w);
        let session = Session::new(&built.db);
        let mut answered = 0;
        // METHOD c ignores the transformation, so its answers are not the
        // transformed join's: it has no oracle.
        for text in texts.iter().filter(|t| !t.contains("METHOD c")) {
            let got = session.execute_text(text).unwrap();
            assert!(
                check::agrees(&session, text, &got.output).unwrap(),
                "`{text}`"
            );
            answered += check::fingerprint(&got.output).len();
        }
        assert!(answered > 0, "{w:?} forms answer something");
    }
}

#[test]
fn the_check_sees_a_single_flipped_distance_bit() {
    let built = tiny(Local::Knn);
    let session = Session::new(&built.db);
    let text = "FIND 8 NEAREST TO ROW 3 IN walks";
    let mut out = session.execute_text(text).unwrap().output;
    assert!(check::agrees(&session, text, &out).unwrap());
    if let QueryOutput::Hits(h) = &mut out {
        h[1].distance = f64::from_bits(h[1].distance.to_bits() ^ 1);
    }
    assert!(!check::agrees(&session, text, &out).unwrap());
}

#[test]
fn seeds_fix_the_inputs() {
    let rows = corpus::query_rows(1000, 50);
    let a = corpus::range_ops(3, "walks", &rows);
    assert_eq!(a, corpus::range_ops(3, "walks", &rows));
    // Another seed asks the same questions in another order.
    let mut b = corpus::range_ops(4, "walks", &rows);
    assert_ne!(a, b);
    let mut sorted_a = a.clone();
    sorted_a.sort();
    b.sort();
    assert_eq!(sorted_a, b);
    assert_eq!(a.len(), 50 * 9);
    assert_eq!(corpus::knn_ops(3, "walks", &rows).len(), 50 * 6);
    let r1 = corpus::walk_relation("w", 20, 9);
    let r2 = corpus::walk_relation("w", 20, 9);
    assert!(r1.rows().zip(r2.rows()).all(|(x, y)| x.raw == y.raw));
    assert_eq!(
        corpus::insert_batches(5, 2, 8),
        corpus::insert_batches(5, 2, 8)
    );
}

#[test]
fn local_runs_report_every_metric() {
    for w in [Local::Range, Local::Knn, Local::Pairs] {
        let rows = if w == Local::Pairs { 120 } else { 300 };
        let out = local::run(w, rows, 5, Duration::from_millis(300), false, None);
        assert!(out.correct(), "{w:?}: {:?}", out.notes);
        assert!(out.checked > 0);
        for (name, _, _) in END_TO_END {
            assert!(out.get(name).is_some_and(|v| v > 0.0), "{w:?} {name}");
        }
        let out = local::run(w, rows, 5, Duration::from_millis(300), true, None);
        assert!(out.correct(), "{w:?}: {:?}", out.notes);
        assert_eq!(out.get("trace.replay_mismatches"), Some(0.0));
        assert!(out.get("trace.split_ops").unwrap() > 0.0);
        // Split layers plus `other` sum to the traced op latency.
        let parts: f64 = [
            "simq-query.parse_us",
            "simq-query.plan_us",
            "simq-series.prep_us",
            "simq-index.descent_us",
            "simq-storage.filter_us",
            "simq-series.verify_us",
            "trace.other_us",
        ]
        .iter()
        .map(|n| out.get(n).unwrap())
        .sum();
        let traced = out.get("trace.traced_latency_us").unwrap();
        assert!(
            (parts - traced).abs() <= 1e-6 * traced.max(1.0),
            "{parts} vs {traced}"
        );
    }
}

#[test]
fn the_hopping_window_keeps_op_order_and_gives_back_the_cpu_mask() {
    let built = tiny(Local::Knn);
    let session = Session::new(&built.db);
    let ops = local::ops(Local::Knn, 300, 3);
    let own = affinity::Mask::current().unwrap();
    let mut win = local::Window::default();
    let cpus = local::hopping_loop(
        &local::via_session(&session),
        &ops,
        Duration::from_millis(300),
        Duration::from_millis(20),
        &vec![false; ops.len()],
        &mut win,
    );
    assert_eq!(cpus, own.cpus().len());
    assert_eq!(affinity::Mask::current().unwrap(), own);
    assert_eq!(win.failed, 0);
    assert!(win.positions.len() > ops.len(), "too few ops ran to wrap");
    // The ops keep their order; the one after each move (the first op
    // included) runs untimed, and none is repeated.
    let steps: Vec<usize> = win
        .positions
        .windows(2)
        .map(|p| (p[1] + ops.len() - p[0]) % ops.len())
        .collect();
    assert!(steps.iter().all(|&s| s == 1 || s == 2), "{steps:?}");
    let untimed = steps.iter().filter(|&&s| s == 2).count() + win.positions[0];
    assert_eq!(win.attempted as usize, win.positions.len() + untimed);
    if cpus > 1 {
        assert!(untimed > 2, "{untimed} moves in 300 ms");
    } else {
        assert_eq!(untimed, 0);
    }
}

#[test]
fn serve_rw_checks_acknowledged_writes_and_cleans_up() {
    let out = serve::run(300, 5, Duration::from_millis(1500), true);
    assert!(out.correct(), "{:?}", out.notes);
    assert!(out.checked > 0);
    assert!(out.get("simq-server.write_p50_us").unwrap() > 0.0);
    assert!(out.get("simq-storage.wal_syncs_per_row").unwrap() > 0.0);
    for (name, _, _) in END_TO_END {
        assert!(out.get(name).is_some_and(|v| v > 0.0), "{name}");
    }
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for (name, _, _) in SERVE_RW_ONLY {
        assert!(
            !json.contains(&format!("\"{name}\"")),
            "{name} is serve_rw's, which BENCHMARK.json does not list"
        );
    }
    for w in ["range", "knn", "pairs"] {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
}
