//! The benchmark's own span recorder.
//!
//! Spans are taken around the benchmark's calls into the engine's public
//! functions, never inside the engine. Each records its name, start, end,
//! parent and op id, and how many public calls it covers when one span
//! wraps a run of calls into the same layer. Spans stay in memory and are
//! written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `simq-index.descent`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Public calls the span covers.
    pub calls: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans for one op at a time; [`Tracer::finish_op`] folds the
/// op's self times into running totals.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Spans of finished ops kept for the written-out trace.
    kept: Vec<(u64, Span)>,
    keep_ops: u64,
    /// Finished span groups (one per `start_op` … `finish_op`).
    groups: u64,
    /// Per span name: self ns over all finished ops.
    totals: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that keeps the spans of the first `keep_ops` ops for
    /// writing out (all ops count towards the totals).
    pub fn new(keep_ops: u64) -> Self {
        Tracer {
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            kept: Vec::new(),
            keep_ops,
            groups: 0,
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts recording op `op`.
    pub fn start_op(&mut self, op: u64) {
        debug_assert!(self.stack.is_empty(), "unclosed span across ops");
        self.op = op;
        self.spans.clear();
    }

    /// Runs `f` inside a span named `name` covering `calls` public calls.
    pub fn span<T>(&mut self, name: &'static str, calls: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            calls,
        });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.stack.pop();
        out
    }

    /// Adds calls to the innermost open span (for spans whose call count
    /// is known only at the end).
    pub fn add_calls(&mut self, calls: u64) {
        if let Some(&idx) = self.stack.last() {
            self.spans[idx].calls += calls;
        }
    }

    /// The current op's spans so far.
    pub fn op_spans(&self) -> &[Span] {
        &self.spans
    }

    /// Ends the current op: folds self times into the totals and keeps
    /// the spans if the op is among the first `keep_ops`.
    pub fn finish_op(&mut self) {
        for (name, self_ns) in self_times(&self.spans) {
            *self.totals.entry(name).or_default() += self_ns;
        }
        if self.op < self.keep_ops {
            let group = self.groups;
            self.kept.extend(self.spans.drain(..).map(|s| (group, s)));
        } else {
            self.spans.clear();
        }
        self.groups += 1;
    }

    /// Ends the current op without folding its spans into the totals or
    /// keeping them: for a replay whose counts did not match the engine's.
    pub fn discard_op(&mut self) {
        debug_assert!(self.stack.is_empty(), "unclosed span across ops");
        self.spans.clear();
    }

    /// Self ns summed over all finished ops for span `name` (0 if never
    /// recorded).
    pub fn total_self_ns(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }

    /// Writes the kept spans as tab-separated lines:
    /// `group  op  index  parent  name  start_ns  end_ns  calls`, where
    /// `index` and `parent` number spans within their group.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "group\top\tindex\tparent\tname\tstart_ns\tend_ns\tcalls"
        )?;
        let mut base = 0usize;
        let mut current = None;
        for (i, (group, s)) in self.kept.iter().enumerate() {
            if current != Some(*group) {
                current = Some(*group);
                base = i;
            }
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                group,
                s.op,
                i - base,
                parent,
                s.name,
                s.start_ns,
                s.end_ns,
                s.calls
            )?;
        }
        Ok(())
    }
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover (children never overlap, the recorder being
/// single-threaded).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(c);
    }
    out
}
