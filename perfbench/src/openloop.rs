//! Open-loop accounting: requests are due on a fixed schedule whatever
//! the system does, and latency is timed from the due time, so a stall
//! also charges the wait it imposes on every request queued behind it.

use std::time::{Duration, Instant};

/// One phase of a schedule: requests at `rate` per second for
/// `duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Requests per second.
    pub rate: f64,
    /// Phase length.
    pub duration: Duration,
}

/// Due offsets (from the schedule start) of every request, with the
/// index of the phase each belongs to.
pub fn due_offsets(phases: &[Phase]) -> Vec<(usize, Duration)> {
    let mut out = Vec::new();
    let mut phase_start = Duration::ZERO;
    for (p, ph) in phases.iter().enumerate() {
        let count = (ph.rate * ph.duration.as_secs_f64()).floor() as usize;
        for j in 0..count {
            out.push((p, phase_start + Duration::from_secs_f64(j as f64 / ph.rate)));
        }
        phase_start += ph.duration;
    }
    out
}

/// The timing of one open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Phase index.
    pub phase: usize,
    /// Send time minus due time: how late the generator sent it (it
    /// cannot send before the previous reply on its connection arrives).
    pub late: Duration,
    /// Completion minus due time: the latency the request's user saw.
    pub latency: Duration,
    /// Whether the request succeeded.
    pub ok: bool,
}

/// Accounts one request given its due, send and completion instants.
pub fn account(phase: usize, due: Instant, sent: Instant, done: Instant, ok: bool) -> Timing {
    Timing {
        phase,
        late: sent.saturating_duration_since(due),
        latency: done.saturating_duration_since(due),
        ok,
    }
}

/// Runs a schedule on the calling thread: sleeps until each request is
/// due (or sends at once when behind), calls `send(index)`, and accounts
/// it. `send` returns whether the request succeeded.
pub fn drive(
    start: Instant,
    schedule: &[(usize, Duration)],
    mut send: impl FnMut(usize) -> bool,
) -> Vec<Timing> {
    let mut out = Vec::with_capacity(schedule.len());
    for (i, &(phase, offset)) in schedule.iter().enumerate() {
        let due = start + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let ok = send(i);
        out.push(account(phase, due, sent, Instant::now(), ok));
    }
    out
}

/// Whether a phase's backlog grew: the median lateness of its last
/// quarter of requests exceeds `limit`.
pub fn backlog_grew(timings: &[Timing], limit: Duration) -> bool {
    if timings.is_empty() {
        return false;
    }
    let from = timings.len() - timings.len().div_ceil(4);
    let mut late: Vec<Duration> = timings[from..].iter().map(|t| t.late).collect();
    late.sort();
    late[late.len() / 2] > limit
}
