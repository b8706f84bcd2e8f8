//! The output check: answers compared bitwise (ids and distance bits).

use simq_query::{QueryOutput, Session};

/// Ids and distance bit patterns of an output, in output order.
pub fn fingerprint(out: &QueryOutput) -> Vec<(u64, u64, u64)> {
    match out {
        QueryOutput::Hits(h) => h.iter().map(|x| (x.id, 0, x.distance.to_bits())).collect(),
        QueryOutput::Pairs(p) => p.iter().map(|x| (x.a, x.b, x.distance.to_bits())).collect(),
        QueryOutput::Analyzed { output, .. } => fingerprint(output),
        QueryOutput::Plan(_) => Vec::new(),
    }
}

/// Whether two outputs agree bitwise.
pub fn same(a: &QueryOutput, b: &QueryOutput) -> bool {
    matches!(
        (a, b),
        (QueryOutput::Hits(_), QueryOutput::Hits(_))
            | (QueryOutput::Pairs(_), QueryOutput::Pairs(_))
    ) && fingerprint(a) == fingerprint(b)
}

/// The reference form of an op: range and kNN ops by `FORCE SCAN`,
/// all-pairs ops by `METHOD b` (the early-abandoning scan join).
pub fn oracle_text(text: &str) -> String {
    if text.starts_with("FIND PAIRS") {
        format!("{text} METHOD b")
    } else {
        format!("{text} FORCE SCAN")
    }
}

/// Re-executes `text` by its oracle and compares with `got`. `Err`
/// describes a failed oracle run.
pub fn agrees(
    session: &Session<&simq_query::Database>,
    text: &str,
    got: &QueryOutput,
) -> Result<bool, String> {
    let want = session
        .execute_text(&oracle_text(text))
        .map_err(|e| format!("oracle for `{text}` failed: {e}"))?;
    Ok(same(got, &want.output))
}
