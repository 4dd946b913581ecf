//! `qld_bench` — run one workload, trace it, or compare two result files.
//!
//! ```text
//! qld_bench run   --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//!                 [--smoke] [--out <file>] [--scratch <dir>]
//! qld_bench trace --workload <name> --seed <u64> [...]      (= run --trace 1)
//! qld_bench compare <a> <b> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! `run` prints every metric by name with its unit and noise band, then —
//! as the last line — one JSON object `{correct, attempted, failed,
//! metrics}`, and exits non-zero if any operation or output check failed.

use qld_perfbench::harness::compare::{bounds_of, compare, Side};
use qld_perfbench::harness::json::Json;
use qld_perfbench::harness::workloads::{run_named, Mode, WORKLOADS};
use qld_perfbench::harness::{pin_to_one_cpu, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: qld_bench run|trace --workload <name> --seed <u64> \
    [--seconds <n>] [--trace 0|1] [--smoke] [--out <file>] [--scratch <dir>]\n       \
    qld_bench compare <a> <b> [--benchmark <BENCHMARK.json>]";

/// `run_seconds` of `BENCHMARK.json`, for runs started by hand.
const DEFAULT_SECONDS: u64 = 20;

struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    smoke: bool,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
            smoke: false,
        };
        let mut raw = raw;
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => args.smoke = true,
                Some(name) => {
                    let value = raw.next().ok_or(format!("--{name} needs a value"))?;
                    args.options.push((name.to_string(), value));
                }
                None => args.positional.push(arg),
            }
        }
        Ok(args)
    }

    fn option(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.option(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} takes a whole number, got `{v}`"))
            })
            .transpose()
    }
}

/// A directory next to the executable — inside the build directory, so
/// inside the checkout and ignored by git.
fn default_scratch() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    exe.parent()
        .expect("the executable sits in a directory")
        .join(format!("qld_bench_scratch-{}", std::process::id()))
}

fn run(args: &Args, traced: bool) -> Result<ExitCode, String> {
    let workload = args
        .option("workload")
        .or(args.positional.get(1).map(String::as_str))
        .ok_or("no workload named")?;
    let traced = traced || args.number("trace")? == Some(1);
    let own_scratch = args.option("scratch").is_none();
    let config = RunConfig {
        seed: args.number("seed")?.ok_or("--seed is required")?,
        smoke: args.smoke,
        scratch: args
            .option("scratch")
            .map_or_else(default_scratch, PathBuf::from),
    };
    std::fs::create_dir_all(&config.scratch)
        .map_err(|e| format!("cannot create {}: {e}", config.scratch.display()))?;
    match pin_to_one_cpu() {
        Some(cpu) => eprintln!("qld_bench: pinned to CPU {cpu}"),
        None => eprintln!("qld_bench: not pinned (no scheduler affinity calls here)"),
    }
    // The span file outlives the scratch directory.
    let out_dir = config
        .scratch
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let mode = if traced {
        Mode::Trace { out_dir: &out_dir }
    } else {
        Mode::Run {
            seconds: args.number("seconds")?.unwrap_or(DEFAULT_SECONDS),
        }
    };
    let report = run_named(workload, &config, mode);
    if own_scratch {
        let _ = std::fs::remove_dir_all(&config.scratch);
    }
    let report = report.ok_or(format!(
        "unknown workload `{workload}` (one of {})",
        WORKLOADS.join(", ")
    ))?;
    if let Some(path) = args.option("out") {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        writeln!(file, "{}", report.result_file_line())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    report.print();
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let benchmark = read(args.option("benchmark").unwrap_or("BENCHMARK.json"))?;
    let bounds = bounds_of(&Json::parse(&benchmark)?)?;
    let (table, regressed) = compare(&Side::parse(&read(a)?)?, &Side::parse(&read(b)?)?, &bounds);
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            Some("run") => run(&args, false),
            Some("trace") => run(&args, true),
            Some("compare") => compare_files(&args),
            _ => Err("no command given".to_string()),
        }
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("qld_bench: {message}\n{USAGE}");
        ExitCode::from(2)
    })
}
