//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes and the machine fingerprint, then one JSON result line.
//! Exits 1 when an op failed or a checked answer was wrong, 2 on bad
//! arguments.

use std::path::Path;
use std::time::Duration;

use perfbench::local::{self, Local};
use perfbench::report::{self, END_TO_END, PER_LAYER, SERVE_RW_ONLY};
use perfbench::serve;

/// Where traced runs write their spans, relative to the checkout root
/// the benchmark runs from.
const SPANS_DIR: &str = "perfbench/out";

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <range|knn|pairs|serve_rw> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let length = Duration::from_secs(seconds);
    let spans = Some(Path::new(SPANS_DIR));
    let outcome = match workload.as_str() {
        "range" => local::run(
            Local::Range,
            Local::Range.rows(),
            seed,
            length,
            trace,
            spans,
        ),
        "knn" => local::run(Local::Knn, Local::Knn.rows(), seed, length, trace, spans),
        "pairs" => local::run(
            Local::Pairs,
            Local::Pairs.rows(),
            seed,
            length,
            trace,
            spans,
        ),
        "serve_rw" => serve::run(serve::ROWS, seed, length, trace),
        _ => usage(),
    };
    println!(
        "workload={workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
    println!("machine: {}", report::fingerprint());
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "checked {} answers: {} wrong, {} failed ops of {}; error_ratio {}",
        outcome.checked,
        outcome.wrong,
        outcome.failed,
        outcome.attempted,
        outcome.error_ratio()
    );
    let names: &[(&str, &str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit, _) in names {
        println!("  {name} = {} {unit}", outcome.get(name).unwrap_or(0.0));
    }
    for (name, unit, _) in &SERVE_RW_ONLY {
        if let Some(v) = outcome.get(name) {
            println!("  {name} = {v} {unit} (serve_rw only, not in the result line)");
        }
    }
    println!("{}", outcome.json(names));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
