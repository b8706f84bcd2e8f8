//! `serve_rw`: an in-process `simq-server` over a sharded, durable
//! relation, driven in an open loop by two generator threads, each with
//! one connection opened during set-up — connection A reads at a ladder
//! of fixed rates, connection B inserts 8-row batches at a fixed rate.
//!
//! Flush policy: group commit is on; each server write group commits
//! through one `Database::insert_batch`, which pays one WAL sync per
//! touched shard.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use simq_client::Client;
use simq_obs::metrics::registry;
use simq_query::{parse, plan_query, run_with_plan, Database, ExecStats, Session};
use simq_server::{RemoteResult, Request, Response, Server};

use crate::corpus::{self, Rng};
use crate::local::{add_stats, check_samples, report_tail, set_work_metrics, SETUP_REPEATS};
use crate::openloop::{backlog_grew, drive, due_offsets, Phase, Timing};
use crate::replay::Work;
use crate::report::{peak_rss_mb, Outcome};
use crate::stats;
use crate::trace::Tracer;

/// Rows at the stated size.
pub const ROWS: usize = 4_000;
/// Shards the relation is split into.
pub const SHARDS: usize = 4;
/// Insert batches per second while the writer is on.
pub const WRITE_RATE: f64 = 10.0;
/// Rows per insert batch.
pub const BATCH_ROWS: usize = 8;
/// The read tail a writer-on rate must meet to count towards
/// `max_rate_ops_per_s`; its backlog must also not grow by more.
pub const TAIL_LIMIT: Duration = Duration::from_millis(50);

/// One phase of the read schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadPhase {
    /// Reads per second.
    pub rate: f64,
    /// Whether the writer runs during the phase.
    pub writer: bool,
    /// Share of the window.
    pub share: f64,
}

/// The read schedule; writer-off phases come first, so the writer runs
/// from the first writer-on phase to the end.
///
/// The end-to-end read latency is taken in the [`REFERENCE`] phase: a
/// light 100 reads/s with the writer off. In an open loop every stall of
/// the machine also delays the reads queued behind it; on a shared 2-core
/// virtual machine (stalls of 12–25 ms about once a second) a quarter of
/// the reads at 400/s were delayed, and with the writer on the read tail
/// follows how long each insert holds the catalog write lock, which
/// varied more than twofold between runs. Those figures are too unsteady
/// for a bounded metric and are reported per layer instead. Even at
/// 100/s the tail is mostly the machine's thread wake-up latency.
pub const PHASES: [ReadPhase; 5] = [
    ReadPhase {
        rate: 100.0,
        writer: false,
        share: 0.5,
    },
    ReadPhase {
        rate: 400.0,
        writer: false,
        share: 0.15,
    },
    ReadPhase {
        rate: 400.0,
        writer: true,
        share: 0.15,
    },
    ReadPhase {
        rate: 700.0,
        writer: true,
        share: 0.1,
    },
    ReadPhase {
        rate: 1000.0,
        writer: true,
        share: 0.1,
    },
];
/// The phase of the end-to-end read latency.
pub const REFERENCE: usize = 0;
/// 400 reads/s without and with the writer: `write_interference_ratio`.
const QUIET: usize = 1;
const LOADED: usize = 2;
/// Distinct read ops per run.
pub const POOL: usize = 1008;
/// Reads re-run after the window for `overhead_us` and the local split.
pub const REPLAY_READS: usize = 400;
/// Sampled reads checked against `FORCE SCAN` after shutdown.
pub const SAMPLES: usize = 16;

const REL: &str = "walks";

/// The read mix: every 20th op is `FIND 5 NEAREST`, the others range
/// ops (95%).
pub fn read_ops(seed: u64, rows: usize, count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 4);
    (0..count)
        .map(|j| {
            if j % 20 == 19 {
                corpus::knn_op(&mut rng, 0, REL, rows, &[5])
            } else {
                corpus::range_op(&mut rng, j - j / 20, REL, rows)
            }
        })
        .collect()
}

/// A fresh scratch directory under the working directory.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(".perfbench_tmp").join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Removes the parent only when no other run still uses it.
    let _ = std::fs::remove_dir(".perfbench_tmp");
}

/// The sharded corpus with group commit on, a WAL attached at `wal`
/// when given, serial execution.
pub fn build_db(rows: usize, wal: Option<&Path>) -> Database {
    let mut db = corpus::serial_db();
    db.add_relation_sharded(
        corpus::walk_relation(REL, rows, corpus::CORPUS_SEED),
        SHARDS,
    );
    db.set_group_commit(true);
    if let Some(dir) = wal {
        db.attach_wal(dir)
            .expect("attach a WAL in a fresh directory");
    }
    db
}

/// A running server and its two connections.
struct Rig {
    server: Server,
    reader: Client,
    writer: Client,
    dir: PathBuf,
    connect_us: f64,
}

fn set_up(rows: usize) -> Rig {
    let dir = scratch_dir("serve");
    let db = build_db(rows, Some(&dir));
    let server = Server::bind("127.0.0.1:0", db).expect("bind a loopback port");
    let t0 = Instant::now();
    let reader = Client::connect(server.local_addr()).expect("connect reader");
    let writer = Client::connect(server.local_addr()).expect("connect writer");
    let connect_us = t0.elapsed().as_secs_f64() * 1e6 / 2.0;
    Rig {
        server,
        reader,
        writer,
        dir,
        connect_us,
    }
}

/// Closes both connections and stops the server, returning its
/// database.
fn tear_down(rig: Rig) -> (Database, PathBuf) {
    let _ = rig.reader.goodbye();
    let _ = rig.writer.goodbye();
    let db = rig
        .server
        .shutdown()
        .expect("server hands its database back");
    (db, rig.dir)
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The read schedule over `length`.
pub fn read_phases(length: Duration) -> Vec<Phase> {
    PHASES
        .iter()
        .map(|p| Phase {
            rate: p.rate,
            duration: length.mul_f64(p.share),
        })
        .collect()
}

/// Registry counters read as deltas around the window.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    wal_syncs: u64,
    group_commits: u64,
    nodes_built: u64,
    bytes: u64,
    plan_hits: u64,
    plan_misses: u64,
}

fn counters() -> Counters {
    let m = registry();
    let l = |c: &AtomicU64| c.load(Ordering::Relaxed);
    Counters {
        wal_syncs: l(&m.wal_syncs),
        group_commits: l(&m.wal_group_commits),
        nodes_built: l(&m.insert_nodes_built),
        bytes: l(&m.server_bytes_received) + l(&m.server_bytes_sent),
        plan_hits: l(&m.plan_cache_hits),
        plan_misses: l(&m.plan_cache_misses),
    }
}

/// What the open-loop window saw.
struct Window {
    reads: Vec<Timing>,
    writes: Vec<Timing>,
    acked: Vec<u64>,
    rows_sent: u64,
    user_bytes: u64,
    elapsed: Duration,
}

fn window(
    rig: &mut Rig,
    ops: &[String],
    batches: &[Vec<(String, Vec<f64>)>],
    length: Duration,
) -> Window {
    let phases = read_phases(length);
    let read_schedule = due_offsets(&phases);
    let writer_from: Duration = phases
        .iter()
        .zip(PHASES)
        .take_while(|(_, p)| !p.writer)
        .map(|(ph, _)| ph.duration)
        .sum();
    let write_schedule: Vec<(usize, Duration)> = due_offsets(&[Phase {
        rate: WRITE_RATE,
        duration: length - writer_from,
    }])
    .into_iter()
    .map(|(p, at)| (p, at + writer_from))
    .collect();
    let reader = &mut rig.reader;
    let writer = &mut rig.writer;
    // Both generators share one start, a little ahead so neither is late
    // for its first request.
    let start = Instant::now() + Duration::from_millis(20);
    let (reads, (writes, acked, rows_sent, user_bytes)) = std::thread::scope(|s| {
        let w = s.spawn(move || {
            let mut acked = Vec::new();
            let (mut rows_sent, mut user_bytes) = (0u64, 0u64);
            let timings = drive(start, &write_schedule, |i| {
                let batch = batches[i % batches.len()].clone();
                rows_sent += batch.len() as u64;
                user_bytes += batch
                    .iter()
                    .map(|(name, series)| (name.len() + 8 * series.len()) as u64)
                    .sum::<u64>();
                match writer.insert(REL, batch) {
                    Ok(report) => {
                        let all = report.failed.is_empty();
                        acked.extend(report.ids);
                        all
                    }
                    Err(_) => false,
                }
            });
            (timings, acked, rows_sent, user_bytes)
        });
        let reads = drive(start, &read_schedule, |i| {
            reader.query(&ops[i % ops.len()]).is_ok()
        });
        (reads, w.join().expect("writer thread"))
    });
    Window {
        reads,
        writes,
        acked,
        rows_sent,
        user_bytes,
        elapsed: start.elapsed(),
    }
}

fn phase_latencies(t: &[Timing], phase: usize) -> Vec<f64> {
    t.iter()
        .filter(|x| x.phase == phase && x.ok)
        .map(|x| x.latency.as_nanos() as f64)
        .collect()
}

/// Checks the database the server handed back: every acknowledged row is
/// present by id, and sampled reads agree with `FORCE SCAN`.
fn check(db: &Database, acked: &[u64], ops: &[String], seed: u64, out: &mut Outcome) {
    let stored = db.relation(REL).expect("relation survives shutdown");
    let missing = acked.iter().filter(|&&id| stored.row(id).is_none()).count();
    if missing > 0 {
        out.notes
            .push(format!("LOST WRITES: {missing} acknowledged rows missing"));
    }
    out.wrong += missing as u64;
    let session = Session::new(db);
    let mut rng = Rng::new(seed, 5);
    let mut kept = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let pos = rng.below(ops.len());
        match session.execute_text(&ops[pos]) {
            Ok(r) => kept.push((pos, r.output)),
            Err(e) => {
                out.checked += 1;
                out.wrong += 1;
                out.notes.push(format!("CHECK FAILED: {e}"));
            }
        }
    }
    check_samples(db, ops, &kept, out);
}

/// Runs `serve_rw`.
pub fn run(rows: usize, seed: u64, length: Duration, traced: bool) -> Outcome {
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..if traced { 1 } else { SETUP_REPEATS } {
        if let Some(old) = rig.take() {
            let (_, dir) = tear_down(old);
            remove_dir(&dir);
        }
        let t0 = Instant::now();
        rig = Some(set_up(rows));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("set up at least once");
    let ops = read_ops(seed, rows, POOL);
    // One distinct batch per scheduled insert.
    let writes = (WRITE_RATE * length.as_secs_f64()).ceil() as usize + 1;
    let batches = corpus::insert_batches(seed, writes, BATCH_ROWS);
    // Warm the server's sessions and plan caches outside the window.
    for op in ops.iter().take(64) {
        let _ = rig.reader.query(op);
    }

    let wal_before = wal_bytes(&rig.dir);
    let c0 = counters();
    let win = window(&mut rig, &ops, &batches, length);
    let c1 = counters();
    let wal_growth = wal_bytes(&rig.dir).saturating_sub(wal_before);

    let read_ok = win.reads.iter().filter(|t| t.ok).count();
    let write_ok = win.writes.iter().filter(|t| t.ok).count();
    let mut out = Outcome {
        attempted: (win.reads.len() + win.writes.len()) as u64,
        failed: (win.reads.len() - read_ok + win.writes.len() - write_ok) as u64,
        ..Outcome::default()
    };
    let reference = phase_latencies(&win.reads, REFERENCE);
    if !reference.is_empty() {
        out.set("latency_p50_us", stats::median(&reference) / 1e3);
    }
    report_tail(&mut out, &reference);
    out.set("setup_s", stats::median(&setup_s));
    out.set(
        "ops_per_s",
        (read_ok + write_ok) as f64 / win.elapsed.as_secs_f64(),
    );

    let mut remote_us = Vec::new();
    if traced {
        // Closed-loop reads over the wire with the writer stopped, for
        // `overhead_us`; the same reads then run locally below on the
        // identical database state.
        for op in ops.iter().take(REPLAY_READS) {
            let t0 = Instant::now();
            let ok = rig.reader.query(op).is_ok();
            if ok {
                remote_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
        }
    }
    let connect_us = rig.connect_us;
    let (db, dir) = tear_down(rig);
    check(&db, &win.acked, &ops, seed, &mut out);
    remove_dir(&dir);
    out.set("peak_rss_mb", peak_rss_mb());
    ladder(&win, &mut out);
    out.notes.push(format!(
        "setup_s runs: {setup_s:?}; reads {} ({read_ok} ok), inserts {} ({write_ok} ok, {} rows acked of {})",
        win.reads.len(),
        win.writes.len(),
        win.acked.len(),
        win.rows_sent
    ));

    if traced {
        let rows_acked = win.acked.len().max(1) as f64;
        let d = |f: fn(&Counters) -> u64| f(&c1).saturating_sub(f(&c0)) as f64;
        out.set("simq-server.connect_us", connect_us);
        out.set(
            "simq-storage.wal_syncs_per_row",
            d(|c| c.wal_syncs) / rows_acked,
        );
        out.set(
            "simq-storage.rows_per_group_commit",
            stats::ratio(rows_acked, d(|c| c.group_commits)),
        );
        out.set(
            "simq-index.nodes_built_per_row",
            d(|c| c.nodes_built) / rows_acked,
        );
        out.set(
            "simq-storage.wal_bytes_per_row",
            wal_growth as f64 / rows_acked,
        );
        out.set(
            "simq-storage.wal_bytes_per_user_byte",
            stats::ratio(wal_growth as f64, win.user_bytes as f64),
        );
        out.set(
            "simq-server.bytes_per_op",
            stats::ratio(d(|c| c.bytes), out.attempted as f64),
        );
        out.set(
            "simq-query.plan_cache_hit_ratio",
            stats::ratio(
                d(|c| c.plan_hits),
                d(|c| c.plan_hits) + d(|c| c.plan_misses),
            ),
        );
        local_split(&db, &ops, &remote_us, &mut out);
        insert_costs(rows, &batches, win.writes.len(), &mut out);
        out.set("error_ratio", out.error_ratio());
    }
    out
}

/// Per-phase read figures, ladder, interference and write metrics.
fn ladder(win: &Window, out: &mut Outcome) {
    let tail_of = |lat: &[f64]| {
        if lat.is_empty() {
            0.0
        } else {
            stats::tail(&stats::sorted(lat)).value
        }
    };
    let mut tails = [0.0f64; PHASES.len()];
    let mut max_rate = 0.0f64;
    for (phase, p) in PHASES.iter().enumerate() {
        let timings: Vec<Timing> = win
            .reads
            .iter()
            .copied()
            .filter(|t| t.phase == phase)
            .collect();
        let latencies = phase_latencies(&win.reads, phase);
        tails[phase] = tail_of(&latencies);
        // Only writer-on phases are rungs of the ladder.
        let meets = p.writer
            && timings.iter().all(|t| t.ok)
            && tails[phase] <= TAIL_LIMIT.as_nanos() as f64
            && !backlog_grew(&timings, TAIL_LIMIT);
        if meets {
            max_rate = max_rate.max(p.rate);
        }
        out.notes.push(format!(
            "reads at {}/s, writer {}: p50 {:.0} us, tail {:.0} us{}",
            p.rate,
            if p.writer { "on" } else { "off" },
            if latencies.is_empty() {
                0.0
            } else {
                stats::median(&latencies) / 1e3
            },
            tails[phase] / 1e3,
            match (p.writer, meets) {
                (false, _) => "",
                (true, true) => ", meets the limit",
                (true, false) => ", misses the limit",
            }
        ));
    }
    out.set(
        "simq-server.write_interference_ratio",
        stats::ratio(tails[LOADED], tails[QUIET]),
    );
    out.set("simq-server.max_rate_ops_per_s", max_rate);
    let late: Vec<f64> = win
        .reads
        .iter()
        .filter(|t| t.phase == REFERENCE)
        .map(|t| t.late.as_nanos() as f64)
        .collect();
    if !late.is_empty() {
        out.set(
            "simq-server.generator_late_ms",
            stats::quantile(&stats::sorted(&late), 0.99) / 1e6,
        );
    }
    let writes: Vec<f64> = win
        .writes
        .iter()
        .filter(|t| t.ok)
        .map(|t| t.latency.as_nanos() as f64)
        .collect();
    if !writes.is_empty() {
        let sorted = stats::sorted(&writes);
        out.set(
            "simq-server.write_p50_us",
            stats::quantile(&sorted, 0.5) / 1e3,
        );
        out.set(
            "simq-server.write_tail_us",
            stats::tail(&sorted).value / 1e3,
        );
    }
}

/// Runs the first [`REPLAY_READS`] reads locally on the returned
/// database: untraced on the session path, then through parse → plan →
/// run_with_plan in spans. The relation is sharded, so `run_with_plan`
/// is not split further: its whole time stays in `exec_us`.
fn local_split(db: &Database, ops: &[String], remote_us: &[f64], out: &mut Outcome) {
    let ops = &ops[..REPLAY_READS.min(ops.len())];
    let session = Session::new(db);
    for op in ops {
        let _ = std::hint::black_box(session.execute_text(op));
    }
    let mut untraced = Vec::new();
    for op in ops {
        let t0 = Instant::now();
        if session.execute_text(op).is_ok() {
            untraced.push(t0.elapsed().as_nanos() as f64);
        }
    }
    let mut tracer = Tracer::new(0);
    let mut traced = Vec::new();
    let mut sum = ExecStats::default();
    let mut run_us = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        tracer.start_op(i as u64);
        let r = tracer.span("op", 1, |t| {
            let q = t.span("simq-query.parse", 1, |_| parse(op))?;
            let plan = t.span("simq-query.plan", 1, |_| plan_query(db, &q))?;
            t.span("simq-query.exec", 1, |_| run_with_plan(db, &q, plan))
        });
        if let Ok(result) = r {
            traced.push(tracer.op_spans()[0].duration_ns() as f64);
            run_us.push(tracer.op_spans()[3].duration_ns() as f64 / 1e3);
            add_stats(&mut sum, &result.stats);
            let request = Request::Query { text: op.clone() };
            let response = Response::Result(RemoteResult {
                access: format!("{:?}", result.plan.access),
                output: result.output,
                stats: result.stats,
                per_thread: result.per_thread,
            });
            tracer.span("wire", 1, |t| {
                let (req, resp) = t.span("simq-server.encode", 2, |_| {
                    (request.encode(), response.encode())
                });
                t.span("simq-server.decode", 2, |_| {
                    let a = Request::decode(request.kind(), &req).expect("request round-trips");
                    let b = Response::decode(response.kind(), &resp).expect("response round-trips");
                    std::hint::black_box((a, b));
                });
            });
        }
        tracer.finish_op();
    }
    let n = traced.len().max(1) as f64;
    let per_op_us = |name: &str| tracer.total_self_ns(name) as f64 / n / 1e3;
    for (metric, span) in [
        ("simq-query.parse_us", "simq-query.parse"),
        ("simq-query.plan_us", "simq-query.plan"),
        ("simq-query.exec_us", "simq-query.exec"),
        ("simq-server.encode_us", "simq-server.encode"),
        ("simq-server.decode_us", "simq-server.decode"),
    ] {
        out.set(metric, per_op_us(span));
    }
    let traced_us = stats::mean(&traced) / 1e3;
    out.set("trace.traced_latency_us", traced_us);
    out.set(
        "trace.other_us",
        traced_us - per_op_us("simq-query.parse") - per_op_us("simq-query.plan"),
    );
    out.set("trace.untraced_latency_us", stats::mean(&untraced) / 1e3);
    out.set(
        "trace.overhead_us",
        traced_us - stats::mean(&untraced) / 1e3,
    );
    out.set(
        "simq-server.overhead_us",
        stats::mean(remote_us) - stats::mean(&run_us),
    );
    set_work_metrics(out, &sum, &Work::default(), n, 0.0, 0);
}

/// The acknowledged batches through `Database::insert_batch` on fresh
/// copies of the corpus, without and with a WAL.
fn insert_costs(rows: usize, batches: &[Vec<(String, Vec<f64>)>], count: usize, out: &mut Outcome) {
    for (metric, durable) in [
        ("simq-storage.insert_mem_us", false),
        ("simq-storage.insert_durable_us", true),
    ] {
        let dir = durable.then(|| scratch_dir("insert"));
        let mut db = build_db(rows, dir.as_deref());
        let mut times = Vec::with_capacity(count);
        for i in 0..count {
            let batch = batches[i % batches.len()].clone();
            let t0 = Instant::now();
            let report = db.insert_batch(REL, batch);
            times.push(t0.elapsed().as_nanos() as f64 / 1e3);
            if report.map_or(true, |r| !r.failed.is_empty()) {
                out.failed += 1;
            }
        }
        out.set(metric, stats::mean(&times));
        drop(db);
        if let Some(dir) = dir {
            remove_dir(&dir);
        }
    }
}
