//! `perfbench`: the serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rank_hot|rank_cold|keyword_pair|mixed_write \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the release `subrank`,
//! generates the dataset, boots `subrank serve` as a child process and
//! drives it open loop. `--trace 0` prints the end-to-end metrics and
//! `--trace 1` the per-layer ones (see `perfbench/README.md`). The last
//! line of standard output is the result as one JSON object; a copy of
//! every metric, with host facts, goes to `perfbench/out/`.

mod bench;
mod check;
mod client;
mod report;
mod rng;
mod server;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::bench::{Env, WorkDir};
use crate::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Builds the release `subrank` from the repository at `root` and
/// returns its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates/cli").is_dir() {
        return Err(format!(
            "{} is not the repository root (no Cargo.toml and crates/cli)",
            root.display()
        ));
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "approxrank-cli",
            "--bin",
            "subrank",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building subrank failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    let bin = target.join("release").join("subrank");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no binary at {}", bin.display()))
    }
}

fn generate(bin: &Path, out: &Path) -> Result<(), String> {
    let mut args: Vec<String> = report::DATASET
        .split_whitespace()
        .skip(1)
        .map(String::from)
        .collect();
    args.push("--out".into());
    args.push(out.display().to_string());
    let status = Command::new(bin)
        .args(&args)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("gen: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("gen failed ({status})"))
    }
}

fn run() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let bin = build_server(&root)?;
    let out = root.join("perfbench").join("out");
    let work = WorkDir(out.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(work.path()).map_err(|e| format!("{}: {e}", work.path().display()))?;
    let graph_path = work.path().join("web.edges");
    generate(&bin, &graph_path)?;
    let graph = approxrank_graph::io::read_edge_list_file(&graph_path)
        .map_err(|e| format!("{}: {e}", graph_path.display()))?;
    let env = Env {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        bin,
        graph_path,
        graph,
        work: work.path().to_path_buf(),
    };
    let report = if args.trace {
        traced::run(&env)?
    } else {
        bench::run(&env)?
    };
    let saved = out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    report
        .save(&saved)
        .map_err(|e| format!("{}: {e}", saved.display()))?;
    report.print();
    Ok(report.correct())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "perfbench: a check failed (wrong answer, failed request, or failed self-check)"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_flags() {
        let a = parse_args(&argv(
            "--workload keyword_pair --seed 4 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::KeywordPair);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 12.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload rank_hot --seed 1 --trace 2")).is_err());
    }
}
