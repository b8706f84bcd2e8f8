//! The in-process workloads — `range`, `knn` and `pairs`: one caller in
//! a closed loop through `Session::execute_text`, serial execution.

use std::path::Path;
use std::time::{Duration, Instant};

use simq_index::{RTree, RTreeConfig};
use simq_obs::metrics::registry;
use simq_query::{
    parse, plan_query, run_with_plan, Database, ExecStats, QueryError, QueryOutput, Session,
};
use simq_server::wire::{HEADER_LEN, TRAILER_LEN};
use simq_server::{RemoteResult, Request, Response};

use crate::affinity;
use crate::check;
use crate::corpus::{self, Rng};
use crate::replay::{self, Work, DESCENT, FILTER, PREP, VERIFY};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats;
use crate::trace::Tracer;

/// The local workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Local {
    /// Range queries over random walks.
    Range,
    /// `FIND k NEAREST` over random walks.
    Knn,
    /// The Table 1 self-join over simulated stocks.
    Pairs,
}

/// Query rows of a `range` run: 1,008 ops. Every op runs many times in
/// a window (about 140 times in 40 s), so each is sure to have run in a
/// quiet moment of the machine (see [`report_speed`]).
pub const RANGE_QUERY_ROWS: usize = 112;
/// Query rows of a `knn` run: 252 ops, each run about 120 times in 40 s.
pub const KNN_QUERY_ROWS: usize = 42;
/// Fewest times an untraced run sets up (the median is reported).
pub const SETUP_REPEATS: usize = 5;
/// Beyond [`SETUP_REPEATS`], set-up repeats until this long has gone on
/// it, so a corpus that builds in milliseconds gets a median over many
/// builds.
pub const SETUP_MIN: Duration = Duration::from_secs(1);
/// Most set-ups of a local run.
pub const SETUP_MAX_REPEATS: usize = 400;
/// Ops run before the measured window so caches and the plan cache fill.
pub const WARMUP: Duration = Duration::from_millis(500);
/// How long the measured window stays on one CPU before it moves to the
/// next allowed one (see [`hopping_loop`]).
pub const HOP: Duration = Duration::from_millis(500);
/// Ops whose answers the output check re-executes, drawn from the first
/// [`SAMPLE_FROM`] of the pool.
pub const SAMPLES: usize = 16;
/// See [`SAMPLES`].
pub const SAMPLE_FROM: usize = 128;
/// Ops whose spans are written out by a traced run.
pub const KEEP_OPS: u64 = 256;

impl Local {
    /// Rows at the benchmark's stated size.
    pub fn rows(self) -> usize {
        match self {
            Local::Range => 16_000,
            Local::Knn => 4_000,
            Local::Pairs => 1_067,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Local::Range => "range",
            Local::Knn => "knn",
            Local::Pairs => "pairs",
        }
    }

    fn relation(self) -> &'static str {
        match self {
            Local::Pairs => "stocks",
            _ => "walks",
        }
    }
}

/// A built corpus: the database and, for traced runs, the tree the
/// replay descends (bulk-loaded exactly as the indexed relation's).
pub struct Built {
    /// The database under test.
    pub db: Database,
    /// The replay's tree.
    pub tree: Option<RTree>,
}

/// Builds the corpus (from [`corpus::CORPUS_SEED`]) and its index.
pub fn build(w: Local, rows: usize, with_tree: bool) -> Built {
    let rel = match w {
        Local::Pairs => corpus::stock_relation(w.relation(), rows, corpus::CORPUS_SEED),
        _ => corpus::walk_relation(w.relation(), rows, corpus::CORPUS_SEED),
    };
    let tree = with_tree.then(|| rel.build_index(RTreeConfig::default()));
    let mut db = corpus::serial_db();
    db.add_relation_indexed(rel);
    Built { db, tree }
}

/// The op sequence for a corpus of `rows` rows.
pub fn ops(w: Local, rows: usize, seed: u64) -> Vec<String> {
    match w {
        Local::Range => corpus::range_ops(
            seed,
            w.relation(),
            &corpus::query_rows(rows, RANGE_QUERY_ROWS),
        ),
        Local::Knn => corpus::knn_ops(
            seed,
            w.relation(),
            &corpus::query_rows(rows, KNN_QUERY_ROWS),
        ),
        Local::Pairs => corpus::pairs_ops(seed, w.relation()),
    }
}

/// Which pool positions the output check samples: [`SAMPLES`] distinct
/// seeded positions among the first [`SAMPLE_FROM`] (all of a smaller
/// pool).
pub fn sampled(seed: u64, pool: usize) -> Vec<bool> {
    let from = pool.min(SAMPLE_FROM);
    let mut marks = vec![false; pool];
    let mut rng = Rng::new(seed, 3);
    let mut picked = 0;
    while picked < SAMPLES.min(from) {
        let pos = rng.below(from);
        if !marks[pos] {
            marks[pos] = true;
            picked += 1;
        }
    }
    marks
}

/// What a closed-loop window saw.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each op, in sequence order (failed ops excluded).
    pub latencies_ns: Vec<f64>,
    /// The op sequence position of each latency.
    pub positions: Vec<usize>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Sampled pool positions and their first answers.
    pub kept: Vec<(usize, QueryOutput)>,
}

/// Adds one op's work counters.
pub fn add_stats(acc: &mut ExecStats, s: &ExecStats) {
    acc.nodes_visited += s.nodes_visited;
    acc.leaves_visited += s.leaves_visited;
    acc.entries_tested += s.entries_tested;
    acc.rows_scanned += s.rows_scanned;
    acc.coefficients_compared += s.coefficients_compared;
    acc.candidates += s.candidates;
    acc.filtered_out += s.filtered_out;
    acc.verified += s.verified;
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this long (and at least one op).
    Elapsed(Duration),
    /// After this many ops.
    Ops(usize),
}

/// Runs one op text to its answer.
pub type Exec<'a> = dyn Fn(&str) -> Result<QueryOutput, QueryError> + 'a;

/// The session path: `Session::execute_text`, plan cache included.
pub fn via_session<'a>(
    session: &'a Session<&Database>,
) -> impl Fn(&str) -> Result<QueryOutput, QueryError> + 'a {
    move |text| session.execute_text(text).map(|r| r.output)
}

/// The direct path the traced pass takes, without spans: `parse` →
/// `plan_query` → `run_with_plan`.
pub fn direct(db: &Database, text: &str) -> Result<QueryOutput, QueryError> {
    let q = parse(text)?;
    let plan = plan_query(db, &q)?;
    Ok(run_with_plan(db, &q, plan)?.output)
}

/// Runs ops back to back through `exec` from op `from` of the sequence,
/// timing each into `w`; returns how many ran.
pub fn closed_loop(
    exec: &Exec<'_>,
    ops: &[String],
    from: usize,
    until: Until,
    sampled: &[bool],
    w: &mut Window,
) -> usize {
    let start = Instant::now();
    let mut i = from;
    while match until {
        Until::Elapsed(length) => i == from || start.elapsed() < length,
        Until::Ops(n) => i < from + n,
    } {
        let pos = i % ops.len();
        let t0 = Instant::now();
        let r = exec(&ops[pos]);
        let ns = t0.elapsed().as_nanos() as f64;
        w.attempted += 1;
        match r {
            Ok(output) => {
                w.latencies_ns.push(ns);
                w.positions.push(pos);
                if sampled[pos] && !w.kept.iter().any(|(p, _)| *p == pos) {
                    w.kept.push((pos, output));
                }
            }
            Err(_) => w.failed += 1,
        }
        i += 1;
    }
    i - from
}

/// Runs ops back to back through `exec` for `length`, as [`closed_loop`]
/// does from op 0, but moves the thread to the next CPU it may run on
/// every `hop`, round all of them, and gives it back its own CPU mask at
/// the end. The first op after each move finds that CPU's caches cold:
/// it runs and counts as attempted, but is not timed. Returns how many
/// CPUs the window went round (1 when the mask could not be read or set,
/// and the thread stayed where the scheduler put it).
///
/// The CPUs of a shared virtual machine change speed independently, in
/// spells of seconds; moving round them lets every op run on each CPU
/// many times, so its fastest run (see [`report_speed`]) does not hang
/// on where the scheduler happened to leave the thread.
pub fn hopping_loop(
    exec: &Exec<'_>,
    ops: &[String],
    length: Duration,
    hop: Duration,
    sampled: &[bool],
    w: &mut Window,
) -> usize {
    let own = affinity::Mask::current().ok();
    let cpus = own.as_ref().map(affinity::Mask::cpus).unwrap_or_default();
    let untimed = vec![false; ops.len()];
    let start = Instant::now();
    let (mut i, mut hops, mut moved) = (0, 0, false);
    while i == 0 || start.elapsed() < length {
        if cpus.len() > 1
            && affinity::Mask::only(cpus[hops % cpus.len()])
                .apply()
                .is_ok()
        {
            moved = true;
            let mut cold = Window::default();
            i += closed_loop(exec, ops, i, Until::Ops(1), &untimed, &mut cold);
            w.attempted += cold.attempted;
            w.failed += cold.failed;
        }
        hops += 1;
        let slice = hop.min(length.saturating_sub(start.elapsed()));
        i += closed_loop(exec, ops, i, Until::Elapsed(slice), sampled, w);
    }
    match own {
        Some(mask) if moved => {
            let _ = mask.apply();
            cpus.len()
        }
        _ => 1,
    }
}

fn warm_up(session: &Session<&Database>, ops: &[String]) {
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < WARMUP {
        let _ = std::hint::black_box(session.execute_text(&ops[i % ops.len()]));
        i += 1;
    }
}

/// Re-executes the window's sampled ops by their oracles; counts the
/// checked and the wrong into `out`.
pub fn check_samples(
    db: &Database,
    ops: &[String],
    kept: &[(usize, QueryOutput)],
    out: &mut Outcome,
) {
    let oracle = Session::new(db);
    for (pos, got) in kept {
        out.checked += 1;
        match check::agrees(&oracle, &ops[*pos], got) {
            Ok(true) => {}
            Ok(false) => {
                out.wrong += 1;
                out.notes.push(format!("WRONG ANSWER: `{}`", ops[*pos]));
            }
            Err(e) => {
                out.wrong += 1;
                out.notes.push(format!("CHECK FAILED: {e}"));
            }
        }
    }
}

/// Runs one local workload. A traced run writes its kept spans to
/// `spans_dir` when given.
pub fn run(
    w: Local,
    rows: usize,
    seed: u64,
    seconds: Duration,
    traced: bool,
    spans_dir: Option<&Path>,
) -> Outcome {
    if traced {
        return run_traced(w, rows, seed, seconds, spans_dir);
    }
    let mut setup_s = Vec::new();
    let mut built = None;
    let started = Instant::now();
    while setup_s.len() < SETUP_REPEATS
        || (started.elapsed() < SETUP_MIN && setup_s.len() < SETUP_MAX_REPEATS)
    {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build(w, rows, false));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let built = built.expect("set up at least once");
    let db = &built.db;
    let ops = ops(w, rows, seed);
    let session = Session::new(db);
    warm_up(&session, &ops);
    let mut win = Window::default();
    let t0 = Instant::now();
    let cpus = hopping_loop(
        &via_session(&session),
        &ops,
        seconds,
        HOP,
        &sampled(seed, ops.len()),
        &mut win,
    );
    let window_s = t0.elapsed().as_secs_f64();

    let mut out = Outcome {
        attempted: win.attempted,
        failed: win.failed,
        ..Outcome::default()
    };
    check_samples(db, &ops, &win.kept, &mut out);
    out.set("setup_s", stats::median(&setup_s));
    report_speed(&mut out, &win.latencies_ns, &win.positions, window_s);
    report_tail(&mut out, &win.latencies_ns);
    out.set("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "the window moved round {cpus} CPU(s), {} ms on each in turn, the first op after each move untimed",
        HOP.as_millis()
    ));
    out.notes.push(format!(
        "setup_s is the median of {} set-ups: min {:.6} s, max {:.6} s; ops in pool: {}; checked {} sampled ops",
        setup_s.len(),
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        setup_s.iter().copied().fold(0.0, f64::max),
        ops.len(),
        out.checked
    ));
    out
}

/// Sets `ops_per_s` and `latency_p50_us` from a closed loop's window
/// (latencies in ns with each op's sequence position, in op order;
/// `window_s` its wall time), taking every op at the fastest of its
/// runs in the window: the window cycles through its ops many times.
///
/// A shared machine's speed drifts by up to 1.8× in spells from under a
/// second to minutes, and a slow spell only ever adds time. Whole-window
/// figures follow every spell; an op's fastest run follows only a spell
/// that covers all of its runs. A change that slows an op slows every
/// run of it, its fastest included, so it still shows in full; a change
/// that slows only some runs — a periodic stall — shows in
/// `latency_tail_us`, taken over the whole window. The whole-window rate
/// and median are noted beside.
pub fn report_speed(out: &mut Outcome, latencies_ns: &[f64], positions: &[usize], window_s: f64) {
    if latencies_ns.is_empty() {
        return;
    }
    let fastest = stats::at_fastest(latencies_ns, positions);
    let ops = positions
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len();
    out.set(
        "ops_per_s",
        stats::ratio(fastest.len() as f64, fastest.iter().sum::<f64>() / 1e9),
    );
    out.set("latency_p50_us", stats::median(&fastest) / 1e3);
    out.notes.push(format!(
        "ops_per_s and latency_p50_us take each of {ops} ops at the fastest of its runs ({:.1} runs per op); whole window: {:.1} ops/s, median {:.1} us",
        latencies_ns.len() as f64 / ops as f64,
        latencies_ns.len() as f64 / window_s,
        stats::median(latencies_ns) / 1e3
    ));
}

/// Sets `latency_tail_us` over the whole window (latencies in ns): the
/// highest of p99, p95 and p90 with at least ten samples beyond it.
/// Notes the percentile taken and its sample counts.
pub fn report_tail(out: &mut Outcome, latencies_ns: &[f64]) {
    if latencies_ns.is_empty() {
        return;
    }
    let t = stats::tail(&stats::sorted(latencies_ns));
    out.set("latency_tail_us", t.value / 1e3);
    out.notes.push(format!(
        "latency_tail_us is p{} over the window ({} samples, {} beyond)",
        t.percentile, t.samples, t.beyond
    ));
}

/// Counters of a traced window.
#[derive(Debug, Default)]
pub struct TracedWindow {
    /// Ops traced.
    pub ops: u64,
    /// Traced ops that returned an error.
    pub failed: u64,
    /// Traced latency of each op that succeeded.
    pub latencies_ns: Vec<f64>,
    /// `ExecStats` summed over the traced ops.
    pub stats: ExecStats,
    /// Replay work summed over the split ops.
    pub work: Work,
    /// Ops whose replay matched their `ExecStats` and answer.
    pub split: u64,
    /// Ops whose replay did not.
    pub mismatches: u64,
    /// Request and response frame bytes of the split ops.
    pub wire_bytes: u64,
}

/// What the traced pass keeps of one op for its replay.
pub struct Executed {
    op: u64,
    query: simq_query::Query,
    plan: simq_query::Plan,
    stats: ExecStats,
    output: u64,
}

fn output_hash(out: &QueryOutput) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    check::fingerprint(out).hash(&mut h);
    h.finish()
}

/// Runs one op through parse → plan → run_with_plan, each in its span
/// under the op's root span.
pub fn traced_op(
    db: &Database,
    text: &str,
    op: u64,
    t: &mut Tracer,
    acc: &mut TracedWindow,
) -> Option<Executed> {
    let r = t.span("op", 1, |t| {
        let q = t.span("simq-query.parse", 1, |_| parse(text))?;
        let plan = t.span("simq-query.plan", 1, |_| plan_query(db, &q))?;
        let result = t.span("simq-query.exec", 1, |_| {
            run_with_plan(db, &q, plan.clone())
        })?;
        Ok::<_, simq_query::QueryError>((q, plan, result))
    });
    acc.ops += 1;
    let Ok((query, plan, result)) = r else {
        acc.failed += 1;
        return None;
    };
    acc.latencies_ns.push(t.op_spans()[0].duration_ns() as f64);
    add_stats(&mut acc.stats, &result.stats);
    Some(Executed {
        op,
        query,
        plan,
        stats: result.stats,
        output: output_hash(&result.output),
    })
}

/// Replays an executed op layer by layer, then encodes and decodes its
/// request and response, each as a root span of the op. Only an op whose
/// replay matches its `ExecStats` and answer counts as split.
pub fn replay_op(
    db: &Database,
    tree: &RTree,
    text: &str,
    e: &Executed,
    t: &mut Tracer,
    acc: &mut TracedWindow,
) {
    let output = match t.span("replay", 1, |t| {
        replay::replay(db, tree, &e.query, &e.plan, t)
    }) {
        None => return,
        Some(Ok((work, output))) if work.matches(&e.stats) && output_hash(&output) == e.output => {
            acc.work.add(&work);
            acc.split += 1;
            output
        }
        // A replay that does not match the engine splits nothing: its
        // spans are dropped, so the op's executor time stays in
        // `exec_us` (and `other`), and the run fails.
        Some(_) => {
            acc.mismatches += 1;
            t.discard_op();
            return;
        }
    };
    let request = Request::Query {
        text: text.to_string(),
    };
    let response = Response::Result(RemoteResult {
        access: format!("{:?}", e.plan.access),
        output,
        stats: e.stats,
        per_thread: Vec::new(),
    });
    let bytes = t.span("wire", 1, |t| {
        let (req, resp) = t.span("simq-server.encode", 2, |_| {
            (request.encode(), response.encode())
        });
        t.span("simq-server.decode", 2, |_| {
            let a = Request::decode(request.kind(), &req).expect("request round-trips");
            let b = Response::decode(response.kind(), &resp).expect("response round-trips");
            std::hint::black_box((a, b));
        });
        req.len() + resp.len() + 2 * (HEADER_LEN + TRAILER_LEN)
    });
    acc.wire_bytes += bytes as u64;
}

/// Length of one block of a traced run.
pub const BLOCK: Duration = Duration::from_millis(100);

/// The traced run: for `seconds`, blocks of ops, each run three ways —
/// untraced through parse → plan_query → run_with_plan for about
/// [`BLOCK`] (untraced latency), the same ops through the same calls in
/// spans, then the layer replay of those ops. Both timed passes make the
/// same calls, so their difference is the tracer's cost alone. Adjacent
/// blocks keep a drift of the machine's speed out of that difference; the
/// two timed passes swap order every block so neither always runs on the
/// other's warm cache; the replay runs apart from the timed ops so its
/// own tree does not share the cache with the engine's while they are
/// timed. The plan-cache ratio comes from one untimed pass of the op pool
/// through `Session::execute_text` before the blocks.
fn run_traced(
    w: Local,
    rows: usize,
    seed: u64,
    seconds: Duration,
    spans_dir: Option<&Path>,
) -> Outcome {
    let built = build(w, rows, true);
    let db = &built.db;
    let tree = built.tree.as_ref().expect("traced set-up builds the tree");
    let ops = ops(w, rows, seed);
    let session = Session::new(db);
    warm_up(&session, &ops);
    let sampled = sampled(seed, ops.len());

    let m = registry();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let (hits0, misses0) = (load(&m.plan_cache_hits), load(&m.plan_cache_misses));
    let mut cache_pass = Window::default();
    closed_loop(
        &via_session(&session),
        &ops,
        0,
        Until::Ops(ops.len()),
        &sampled,
        &mut cache_pass,
    );
    let hits = load(&m.plan_cache_hits) - hits0;
    let misses = load(&m.plan_cache_misses) - misses0;

    let untraced_exec = |text: &str| direct(db, text);
    let mut untraced = Window::default();
    let mut tracer = Tracer::new(KEEP_OPS);
    let mut acc = TracedWindow::default();
    let start = Instant::now();
    let (mut next, mut block) = (0usize, 0u64);
    while start.elapsed() < seconds {
        let from = next;
        let mut executed = Vec::new();
        let mut trace = |i: usize, tracer: &mut Tracer, acc: &mut TracedWindow| {
            tracer.start_op(i as u64);
            executed.extend(traced_op(db, &ops[i % ops.len()], i as u64, tracer, acc));
            tracer.finish_op();
        };
        if block % 2 == 0 {
            let n = closed_loop(
                &untraced_exec,
                &ops,
                from,
                Until::Elapsed(BLOCK),
                &sampled,
                &mut untraced,
            );
            for i in from..from + n {
                trace(i, &mut tracer, &mut acc);
            }
            next = from + n;
        } else {
            let t0 = Instant::now();
            next = from;
            while next == from || t0.elapsed() < BLOCK {
                trace(next, &mut tracer, &mut acc);
                next += 1;
            }
            closed_loop(
                &untraced_exec,
                &ops,
                from,
                Until::Ops(next - from),
                &sampled,
                &mut untraced,
            );
        }
        for e in &executed {
            tracer.start_op(e.op);
            replay_op(
                db,
                tree,
                &ops[e.op as usize % ops.len()],
                e,
                &mut tracer,
                &mut acc,
            );
            tracer.finish_op();
        }
        block += 1;
    }

    // A replay that did not match the engine fails the run.
    let mut out = Outcome {
        attempted: cache_pass.attempted + untraced.attempted + acc.ops,
        failed: cache_pass.failed + untraced.failed + acc.failed + acc.mismatches,
        ..Outcome::default()
    };
    check_samples(db, &ops, &untraced.kept, &mut out);
    out.set(
        "simq-query.plan_cache_hit_ratio",
        stats::ratio(hits as f64, (hits + misses) as f64),
    );
    let ok_ops = acc.latencies_ns.len().max(1) as f64;
    let per_op_us = |name: &str| tracer.total_self_ns(name) as f64 / ok_ops / 1e3;
    let layers = [
        ("simq-query.parse_us", "simq-query.parse"),
        ("simq-query.plan_us", "simq-query.plan"),
        ("simq-query.exec_us", "simq-query.exec"),
        ("simq-series.prep_us", PREP),
        ("simq-index.descent_us", DESCENT),
        ("simq-storage.filter_us", FILTER),
        ("simq-series.verify_us", VERIFY),
    ];
    for (metric, span) in layers {
        out.set(metric, per_op_us(span));
    }
    // The wire round trip runs for split ops only.
    let split_ops = acc.split.max(1) as f64;
    for (metric, span) in [
        ("simq-server.encode_us", "simq-server.encode"),
        ("simq-server.decode_us", "simq-server.decode"),
    ] {
        out.set(metric, tracer.total_self_ns(span) as f64 / split_ops / 1e3);
    }
    // Self times of the split layers plus `other` sum to the traced op
    // latency: `other` is whatever of it no split layer accounts for.
    let traced_us = stats::mean(&acc.latencies_ns) / 1e3;
    let accounted: f64 = [
        "simq-query.parse",
        "simq-query.plan",
        PREP,
        DESCENT,
        FILTER,
        VERIFY,
    ]
    .iter()
    .map(|s| per_op_us(s))
    .sum();
    out.set("trace.traced_latency_us", traced_us);
    out.set("trace.other_us", traced_us - accounted);
    // Tracing overhead over the ops both passes ran (all of them unless
    // an op failed).
    let common = untraced.latencies_ns.len().min(acc.latencies_ns.len());
    let untraced_us = stats::mean(&untraced.latencies_ns[..common]) / 1e3;
    out.set("trace.untraced_latency_us", untraced_us);
    out.set(
        "trace.overhead_us",
        stats::mean(&acc.latencies_ns[..common]) / 1e3 - untraced_us,
    );
    out.set("trace.split_ops", acc.split as f64);
    out.set("trace.replay_mismatches", acc.mismatches as f64);
    set_work_metrics(
        &mut out,
        &acc.stats,
        &acc.work,
        ok_ops,
        acc.split as f64,
        tracer.total_self_ns(DESCENT),
    );
    out.set(
        "simq-server.bytes_per_op",
        acc.wire_bytes as f64 / split_ops,
    );
    out.set("error_ratio", out.error_ratio());
    if let Some(dir) = spans_dir {
        write_spans(&tracer, dir, w.name(), seed, &mut out);
    }
    out.notes.push(format!(
        "traced {} ops in {block} blocks ({} split by replay, {} replay mismatches); untraced {} ops",
        acc.ops, acc.split, acc.mismatches, untraced.attempted
    ));
    out
}

/// Per-op work metrics from `ExecStats` summed over `ops` ops, and from
/// the replay's work summed over the `split_ops` ops whose replay
/// matched the engine (exact calls, yields and ratios only the replay
/// sees; 0 when nothing was split).
pub fn set_work_metrics(
    out: &mut Outcome,
    s: &ExecStats,
    work: &Work,
    ops: f64,
    split_ops: f64,
    descent_ns: u64,
) {
    out.set("simq-query.result_rows_per_op", s.verified as f64 / ops);
    out.set("simq-index.nodes_per_op", s.nodes_visited as f64 / ops);
    out.set("simq-index.leaves_per_op", s.leaves_visited as f64 / ops);
    out.set("simq-index.entries_per_op", s.entries_tested as f64 / ops);
    out.set("simq-index.candidates_per_op", s.candidates as f64 / ops);
    out.set(
        "simq-index.candidate_yield",
        stats::ratio(s.verified as f64, s.candidates as f64),
    );
    out.set(
        "simq-index.ns_per_entry",
        stats::ratio(descent_ns as f64, work.entries as f64),
    );
    out.set(
        "simq-series.coefficients_per_op",
        s.coefficients_compared as f64 / ops,
    );
    out.set(
        "simq-series.exact_calls_per_op",
        stats::ratio(work.exact_calls as f64, split_ops),
    );
    out.set(
        "simq-series.verify_yield",
        stats::ratio(work.answers as f64, work.exact_calls as f64),
    );
    out.set(
        "simq-storage.filter_dismissed_per_op",
        s.filtered_out as f64 / ops,
    );
    out.set(
        "simq-storage.filter_dismiss_ratio",
        stats::ratio(work.filtered_out as f64, work.filter_tests as f64),
    );
    out.set("simq-storage.scan_rows_per_op", s.rows_scanned as f64 / ops);
}

/// Writes the kept spans to `<dir>/spans-<workload>-<seed>.tsv`.
pub fn write_spans(tracer: &Tracer, dir: &Path, workload: &str, seed: u64, out: &mut Outcome) {
    let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_tsv(&mut f)?;
        std::io::Write::flush(&mut f)
    });
    out.notes.push(match written {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("spans not written: {e}"),
    });
}
