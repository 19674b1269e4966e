//! Layered benchmark of the SmartSAGE reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-file --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `perfbench/DESIGN.md` for why each was chosen):
//!
//! - `train-file`: the training pipeline on the file tiers with the
//!   mmap host path, a graph file twice the pipeline's page cache;
//! - `train-isp`: the same dataset and batches on the in-storage tiers;
//! - `serve-file`: an in-process server on the file tiers under an
//!   open-loop rate ladder.
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones from a traced run and writes its spans to `.perfbench_out/`.
//! The last stdout line is the JSON result; the lines above it are the
//! same metrics as a table, with sample counts. Any wrong output makes
//! the run exit 1; `--inject-mismatch` corrupts one compared output to
//! show that the checks fire.
//!
//! All files the run writes live under the current directory:
//! published store files in `.perfbench_tmp/<pid>/` (removed at exit)
//! and span dumps in `.perfbench_out/`.

#![forbid(unsafe_code)]

mod metrics;
mod serve;
mod stats;
mod trace;
mod train;

use metrics::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the datasets, targets and requests derive from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Corrupt one compared output, to show the checks fire.
    pub inject_mismatch: bool,
}

const USAGE: &str = "usage: smartsage-perfbench --workload train-file|train-isp|serve-file \
                     --seed N --seconds S --trace 0|1 [--inject-mismatch]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject_mismatch = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--inject-mismatch" {
            inject_mismatch = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["train-file", "train-isp", "serve-file"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        inject_mismatch,
    })
}

/// The run's private scratch directory under the current directory.
/// Each set-up publishes its store files into a fresh, empty
/// subdirectory, which becomes the process temp dir so the store
/// registry publishes there; the whole tree is removed on drop.
pub struct RunRoot {
    path: PathBuf,
    current: Option<PathBuf>,
}

impl RunRoot {
    fn create() -> std::io::Result<RunRoot> {
        let path = std::env::current_dir()?
            .join(".perfbench_tmp")
            .join(std::process::id().to_string());
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(RunRoot {
            path,
            current: None,
        })
    }

    /// Removes the previous set-up directory and makes `name` the new,
    /// empty temp dir.
    pub fn fresh_dir(&mut self, name: &str) -> std::io::Result<PathBuf> {
        if let Some(old) = self.current.take() {
            std::fs::remove_dir_all(old)?;
        }
        let dir = self.path.join(name);
        std::fs::create_dir_all(&dir)?;
        // The store registry names its files under `std::env::temp_dir()`.
        // The benchmark is single-threaded whenever it changes this.
        std::env::set_var("TMPDIR", &dir);
        self.current = Some(dir.clone());
        Ok(dir)
    }
}

impl Drop for RunRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Where a traced run writes its spans.
pub fn span_path(args: &Args) -> PathBuf {
    Path::new(".perfbench_out").join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut root = RunRoot::create().map_err(|e| format!("creating the run directory: {e}"))?;
    let mut outcome = Outcome::default();
    match args.workload.as_str() {
        "train-file" => train::run(train::Tiers::FILE, args, &mut root, &mut outcome)?,
        "train-isp" => train::run(train::Tiers::ISP, args, &mut root, &mut outcome)?,
        _ => serve::run(args, &mut root, &mut outcome)?,
    }
    if !args.trace {
        outcome.set("peak_rss_mb", peak_rss_mb()?);
        let ok = 1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.set_noted(
            "ops_ok_frac",
            ok,
            format!("{} of {} ops failed", outcome.failed, outcome.attempted),
        );
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = if args.trace {
        outcome.render(&metrics::per_layer(), false)
    } else {
        outcome.render(&metrics::end_to_end(), true)
    };
    match rendered {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.failed > 0 || outcome.attempted == 0 {
        eprintln!(
            "error: {} of {} operations failed their output check",
            outcome.failed, outcome.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload serve-file --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-file");
        assert_eq!(a.seed, 7);
        assert!(a.trace && !a.inject_mismatch);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload train-isp --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload train-isp --seed 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload train-isp --seed")).is_err());
    }
}
