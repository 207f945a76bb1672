//! Shared driver for the figure/table regeneration binaries.
//!
//! Each binary (`fig8` … `table1`, `real`, `ablations`, `channels`, `all`)
//! is a thin wrapper: it calls the corresponding `dsi_sim::experiments`
//! function (every one of which is a selection of cells from the
//! `dsi_sim::matrix` experiment matrix), prints the resulting tables, and
//! drops both CSV copies (`results/<name>_<i>.csv`) and one combined JSON
//! result (`results/<name>.json`) under `results/`. Scale knobs come from
//! the environment: `DSI_QUERIES` (default 200), `DSI_N` (default 10,000),
//! `DSI_VALIDATE=0` to skip ground-truth checks. Every knob is read with
//! [`env_or`], so a value that does not parse stops the run instead of
//! silently falling back to the default.

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Instant;

use dsi_sim::experiments::ExpOptions;
use dsi_sim::Table;

/// The environment knob `name` parsed as `T`, or `default` when unset.
/// A value that does not parse exits the process with status 2 and a
/// message naming the variable.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref(), default).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

fn parse_knob<T: FromStr>(name: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v:?} is not a valid {}", std::any::type_name::<T>())),
    }
}

/// Experiment options from the environment: `DSI_QUERIES` (default
/// 200), `DSI_N` (default 10,000, the paper's scale) and `DSI_VALIDATE`
/// (default 1; `0` skips the brute-force checks).
pub fn exp_options_from_env() -> ExpOptions {
    ExpOptions {
        n_queries: env_or("DSI_QUERIES", 200),
        dataset_n: env_or("DSI_N", 10_000),
        validate: env_or("DSI_VALIDATE", 1u8) != 0,
    }
}

/// Runs one experiment end to end: banner, tables, CSV + JSON dump,
/// timing.
pub fn run_experiment(name: &str, f: impl FnOnce(&ExpOptions) -> Vec<Table>) {
    let opts = exp_options_from_env();
    println!(
        "=== {name} (N = {}, {} queries/point, validate = {}) ===",
        opts.dataset_n, opts.n_queries, opts.validate
    );
    let t0 = Instant::now();
    let tables = f(&opts);
    for (i, t) in tables.iter().enumerate() {
        println!("{}", t.render());
        let path = csv_path(name, i);
        if let Err(e) = t.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    let json_path = PathBuf::from("results").join(format!("{name}.json"));
    if let Err(e) = write_json(&json_path, name, &opts, &tables) {
        eprintln!("warning: could not write {}: {e}", json_path.display());
    }
    println!("[{name} done in {:.1?}]\n", t0.elapsed());
}

/// Writes the combined JSON result of one experiment.
fn write_json(
    path: &std::path::Path,
    name: &str,
    opts: &ExpOptions,
    tables: &[Table],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let body: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
    let json = format!(
        "{{\"experiment\": \"{name}\", \"n\": {}, \"queries\": {}, \"tables\": [{}]}}\n",
        opts.dataset_n,
        opts.n_queries,
        body.join(", ")
    );
    std::fs::write(path, json)
}

fn csv_path(name: &str, idx: usize) -> PathBuf {
    PathBuf::from("results").join(format!("{name}_{idx}.csv"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_default_when_unset_and_reject_garbage() {
        assert_eq!(parse_knob("DSI_N", None, 10_000usize), Ok(10_000));
        assert_eq!(parse_knob("DSI_N", Some("800"), 10_000usize), Ok(800));
        let err = parse_knob("DSI_N", Some("10k"), 10_000usize).unwrap_err();
        assert!(err.contains("DSI_N") && err.contains("10k"), "{err}");
        assert!(parse_knob("DSI_N", Some(""), 1usize).is_err());
        assert!(parse_knob("DSI_VALIDATE", Some("yes"), 1u8).is_err());
        assert_eq!(
            parse_knob("DSI_BENCH_MAX_REGRESSION", Some("0.6"), 0.1f64),
            Ok(0.6)
        );
        assert_eq!(
            parse_knob("DSI_BENCH_OUT", Some("b.json"), String::new()).as_deref(),
            Ok("b.json")
        );
    }
}
