//! The repository benchmark: one workload per run, end-to-end metrics
//! (untraced) or per-layer metrics (traced), answers checked against
//! brute force.
//!
//! ```text
//! dsi-perfbench --workload <window|knn|fleet|fade> --seed <n> --seconds <s> --trace <0|1> [--workers <n>]
//! ```
//!
//! Human-readable lines (host state, every metric with its unit, sample
//! counts, the air digest) come first; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`.

mod closed;
mod common;
mod digest;
mod fleet;
mod procfs;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;

use procfs::HostState;
use report::{result_json, Report};
use trace::{totals_by_name, Tracer};

const WORKLOADS: [&str; 4] = ["window", "knn", "fleet", "fade"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        workers: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => out.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--workers" => out.workers = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsi-perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let host = HostState::capture();
    println!(
        "host: nproc {} | load1 {:.2} | runnable {} | busy share before start {:.3}{}",
        host.nproc,
        host.load1,
        host.running,
        host.busy_share,
        if host.loaded() {
            " | LOADED HOST: host-time metrics of this run are suspect"
        } else {
            ""
        }
    );
    if host.loaded() {
        eprintln!(
            "warning: other work kept {:.0}% of the host busy at start",
            host.busy_share * 100.0
        );
    }

    let mut tracer = Tracer::new(args.trace);
    let mut report = match args.workload.as_str() {
        "window" => closed::window(args.seed, args.seconds, &mut tracer),
        "knn" => closed::knn(args.seed, args.seconds, &mut tracer),
        "fleet" => fleet::fleet(args.seed, args.seconds, args.workers, &mut tracer),
        _ => fleet::fade(args.seed, args.seconds, args.workers, &mut tracer),
    };
    finish(&mut report, &tracer, host);

    let (load1_after, _) = procfs::loadavg();
    println!(
        "workload {} | seed {} | trace {} | load1 after {load1_after:.2}",
        args.workload, args.seed, args.trace as u8
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    for (name, v, unit) in report.e2e.list() {
        println!("e2e   {name:<28} {v:>16.6} {unit}");
    }
    for (name, v, unit, count) in report.layers.list() {
        let tag = if count { " (count)" } else { "" };
        println!("layer {name:<28} {v:>16.6} {unit}{tag}");
    }
    println!(
        "attempted {} | failed {} | failed_ratio {}",
        report.attempted,
        report.failed,
        stats::ratio(report.failed as f64, report.attempted as f64)
    );
    println!(
        "digest {} {} {}",
        args.workload,
        args.seed,
        report.digest.hex()
    );

    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tracer.to_jsonl())) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&report, args.trace));
    ExitCode::SUCCESS
}

/// Fills the span self times and the host's busy share, then folds the
/// count metrics into the digest.
fn finish(report: &mut Report, tracer: &Tracer, host: HostState) {
    let totals = totals_by_name(tracer.spans());
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 * 1e-9);
    let l = &mut report.layers;
    l.self_setup_s = self_s("setup");
    l.self_measure_s = self_s("measure");
    l.self_validate_s = self_s("validate");
    l.host_busy_share = host.busy_share;
    report.seal_digest();
    for (name, t) in &totals {
        report.notes.push(format!(
            "span {name}: {} spans, total {:.6} s, self {:.6} s",
            t.count,
            t.total_ns as f64 * 1e-9,
            t.self_ns as f64 * 1e-9
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args("--workload knn --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.workers),
            ("knn", 7, 10.0, true, 0)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload knn --seed")).is_err());
        assert!(parse_args(&args("--workload knn --seconds 0")).is_err());
        assert!(parse_args(&args("--workload knn --bogus 1")).is_err());
    }
}
