//! The `qld_bench` harness: four closed-loop, single-client workloads,
//! each reduced over many identical passes to five end-to-end metrics,
//! plus a per-layer probe suite and a span trace. See
//! `perfbench/README.md` for the metric and workload tables and the
//! reasons behind them.

pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;

use json::Json;
use stats::{band, guarded_percentile, median, percentile_sorted, Floor, Sample};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// The end-to-end metrics every workload reports, with their units, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// How often a full run sets up. A fixed count, not a time budget: a busy
/// host would buy fewer repeats with the same time just when the floor
/// over them needs more.
const SETUP_REPEATS: usize = 16;
/// A run never reports on fewer timed passes than this.
const MIN_PASSES: usize = 3;
/// Untraced/traced pass pairs of a traced run.
const TRACE_PAIRS: usize = 4;
/// Passes whose values the per-pass detail lines print.
const SERIES_SHOWN: usize = 48;

/// One op class of a workload's mix.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    /// Printed name.
    pub name: &'static str,
    /// Whether `op_p50_us`/`op_p95_us` are taken over this class (the
    /// workload's user-facing op kind: reads, or writes for
    /// `durable_write`). Every class counts in `ops_per_s`.
    pub gated: bool,
}

/// What one timed pass produced.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Wall time of the timed part of the pass.
    pub wall: Duration,
    /// One sample per op, in issue order.
    pub samples: Vec<Sample>,
    /// Ops that returned an error, were refused, or gave a wrong reply.
    pub failed_ops: u64,
    /// Output checks made outside the timed part.
    pub checks: u64,
    /// One line per failed output check.
    pub check_failures: Vec<String>,
    /// Counts that must be identical in every pass of every run.
    pub counters: Vec<(&'static str, u64)>,
    /// Extra timings taken outside the op loop (e.g. recovery).
    pub extras: Vec<(&'static str, f64)>,
}

impl PassLog {
    /// Records a failed output check.
    pub fn fail(&mut self, message: String) {
        self.check_failures.push(message);
    }

    /// Records one output check and its verdict.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.fail(message());
        }
    }
}

/// Sizes and places a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload seed.
    pub seed: u64,
    /// Run at about 1 % size (the `cargo test` smoke).
    pub smoke: bool,
    /// A directory the run may create, fill and remove files in.
    pub scratch: PathBuf,
}

/// One benchmark workload: a system under test, a fixed op sequence, and
/// the output checks for it.
pub trait Workload: Sized {
    /// The name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// The op classes of the mix; `Sample::class` indexes this table.
    const CLASSES: &'static [Class];

    /// Generates the inputs from the seed, builds the system and
    /// prepares what a user would prepare.
    fn setup(config: &RunConfig) -> Self;

    /// The fixed-size warm-up that ends set-up: one sample per op, the
    /// same op sequence every time.
    fn warm_up(&mut self) -> Vec<Sample>;

    /// One timed pass: the same op sequence from the same state every
    /// time. Output checks run inside, outside the timed part.
    fn pass(&mut self, tracer: &mut Tracer) -> PassLog;

    /// The inputs the per-layer probes run on.
    fn probe_inputs(&self) -> layers::ProbeInputs;
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value over the run's per-op floor, or the single measurement.
    pub value: f64,
    /// `(max − min) / median` of the same statistic taken pass by pass
    /// (set-up by set-up); `None` for single values.
    pub band: Option<f64>,
}

impl Metric {
    fn reduced(name: &str, unit: &'static str, value: f64, repeats: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            band: Some(band(repeats)),
        }
    }

    /// A metric measured once.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            band: None,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
        ])
    }
}

/// The outcome of one `run`/`trace` invocation.
#[derive(Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Seed.
    pub seed: u64,
    /// Timed passes measured.
    pub passes: usize,
    /// Ops and output checks attempted.
    pub attempted: u64,
    /// Ops and output checks that failed.
    pub failed: u64,
    /// The contract metrics: end-to-end for a plain run, per-layer for a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// Ungated detail printed above the result line.
    pub details: Vec<String>,
}

impl RunReport {
    /// The driver's result line.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| (m.name.clone(), m.to_json()))),
            ),
        ])
    }

    /// One line of a result file for `qld_bench compare`: the result line
    /// plus workload, seed, pass count and the noise bands.
    pub fn result_file_line(&self) -> Json {
        let Json::Obj(mut pairs) = self.result_line() else {
            unreachable!("result_line builds an object")
        };
        pairs.insert(0, ("workload".to_string(), Json::str(self.workload)));
        pairs.insert(1, ("seed".to_string(), Json::Num(self.seed as f64)));
        pairs.insert(2, ("passes".to_string(), Json::Num(self.passes as f64)));
        pairs.push((
            "bands".to_string(),
            Json::obj(
                self.metrics
                    .iter()
                    .filter_map(|m| m.band.map(|b| (m.name.clone(), Json::Num(b)))),
            ),
        ));
        Json::Obj(pairs)
    }

    /// Prints the human-readable detail, every metric with its noise
    /// band, and — last — the result line.
    pub fn print(&self) {
        println!(
            "# {} seed={} passes={} attempted={} failed={}",
            self.workload, self.seed, self.passes, self.attempted, self.failed
        );
        for line in &self.details {
            println!("# {line}");
        }
        for m in &self.metrics {
            match m.band {
                Some(b) => println!(
                    "{:<34} {:>16.4} {:<6} band {:.2}%",
                    m.name,
                    m.value,
                    m.unit,
                    100.0 * b
                ),
                None => println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit),
            }
        }
        println!("{}", self.result_line());
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread — and every thread it spawns afterwards — to
/// the last CPU it is allowed on, and returns that CPU.
///
/// Every workload is a closed loop with one client, so at most one thread
/// is runnable at any moment and one CPU is all the benchmark can use.
/// Left to the scheduler, `wire_read` runs in one of two modes decided
/// at start-up: client and connection thread on one CPU (≈19 µs per
/// request on the builder's host) or on two, where every hand-off wakes
/// an idle virtual CPU (≈84 µs) — a 4× difference between runs of the
/// same code.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16;
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..64 * WORDS)
        .rev()
        .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// Pinning needs the Linux scheduler calls; elsewhere the run goes
/// unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What is kept of a pass once its samples are folded into the floor —
/// the samples themselves are dropped, so memory does not grow with the
/// pass count.
struct PassSummary {
    wall: Duration,
    ops_per_s: f64,
    /// p50, p95, p99 and max of the gated samples, in µs.
    gated_us: [f64; 4],
    /// p50 in µs per class (`None` for an unused class).
    class_p50_us: Vec<Option<f64>>,
    counters: Vec<(&'static str, u64)>,
    extras: Vec<(&'static str, f64)>,
    attempted: u64,
    /// One line per failed op group or output check.
    failures: Vec<String>,
    failed: u64,
}

fn is_gated<W: Workload>(sample: &Sample) -> bool {
    W::CLASSES[sample.class as usize].gated
}

/// The ascending latencies of the samples `keep` selects.
fn sorted_ns(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
    let mut ns: Vec<u64> = samples.iter().filter(|s| keep(s)).map(|s| s.ns).collect();
    ns.sort_unstable();
    ns
}

/// p50 in µs of each class of `W` among `samples`.
fn class_p50_us<W: Workload>(samples: &[Sample]) -> Vec<Option<f64>> {
    (0..W::CLASSES.len())
        .map(|c| {
            let ns = sorted_ns(samples, |s| s.class as usize == c);
            (!ns.is_empty()).then(|| percentile_sorted(&ns, 50.0) as f64 / 1e3)
        })
        .collect()
}

fn summarize<W: Workload>(log: PassLog) -> PassSummary {
    let mut failures = log.check_failures;
    let failed = log.failed_ops + failures.len() as u64;
    if log.failed_ops > 0 {
        failures.push(format!("{} op(s) failed", log.failed_ops));
    }
    let gated = sorted_ns(&log.samples, is_gated::<W>);
    PassSummary {
        wall: log.wall,
        ops_per_s: log.samples.len() as f64 / log.wall.as_secs_f64(),
        gated_us: [50.0, 95.0, 99.0, 100.0].map(|p| percentile_sorted(&gated, p) as f64 / 1e3),
        class_p50_us: class_p50_us::<W>(&log.samples),
        counters: log.counters,
        extras: log.extras,
        attempted: log.samples.len() as u64 + log.checks,
        failures,
        failed,
    }
}

/// Folds the passes' failures and the counter repeats into
/// `(attempted, failed, detail lines)`.
fn audit(passes: &[PassSummary]) -> (u64, u64, Vec<String>) {
    let mut details = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for (i, pass) in passes.iter().enumerate() {
        attempted += pass.attempted;
        failed += pass.failed;
        for message in &pass.failures {
            details.push(format!("FAILED pass {i}: {message}"));
        }
        // Fixed-count passes from the same state: every count repeats.
        attempted += 1;
        if pass.counters != passes[0].counters {
            failed += 1;
            details.push(format!(
                "FAILED pass {i}: counters {:?} differ from pass 0 {:?}",
                pass.counters, passes[0].counters
            ));
        }
    }
    (attempted, failed, details)
}

/// Per-class sample counts and latencies, the counters, the extras and
/// the per-pass series, as detail lines.
fn describe<W: Workload>(passes: &[PassSummary], floor: &Floor) -> Vec<String> {
    let mut lines = Vec::new();
    let floor_p50 = class_p50_us::<W>(floor.samples());
    for (c, class) in W::CLASSES.iter().enumerate() {
        let Some(fastest) = floor_p50[c] else {
            continue;
        };
        let count = floor.samples().iter().filter(|s| s.class as usize == c);
        let by_pass: Vec<f64> = passes.iter().filter_map(|p| p.class_p50_us[c]).collect();
        lines.push(format!(
            "class {:<16} {:>6} op(s)/pass  p50 {fastest:>12.2} us  pass by pass {:>12.2} us \
             (band {:.1}%){}",
            class.name,
            count.count(),
            median(&by_pass),
            100.0 * band(&by_pass),
            if class.gated { "  [gated]" } else { "" }
        ));
    }
    for (name, count) in &passes[0].counters {
        lines.push(format!("count {name} = {count} per pass"));
    }
    for (e, (name, _)) in passes[0].extras.iter().enumerate() {
        let values: Vec<f64> = passes.iter().map(|pass| pass.extras[e].1).collect();
        lines.push(format!(
            "extra {name} = {:.4} (band {:.1}%)",
            median(&values),
            100.0 * band(&values)
        ));
    }
    for (name, at) in [("op_p99_us", 2), ("op_max_us", 3)] {
        let values: Vec<f64> = passes.iter().map(|pass| pass.gated_us[at]).collect();
        lines.push(format!(
            "ungated {name} = {:.2} (band {:.1}%)",
            median(&values),
            100.0 * band(&values)
        ));
    }
    let series = |value: &dyn Fn(&PassSummary) -> f64| -> String {
        let shown = passes.iter().take(SERIES_SHOWN);
        let cells: Vec<String> = shown.map(|p| format!("{:.1}", value(p))).collect();
        let more = if passes.len() > SERIES_SHOWN {
            " …"
        } else {
            ""
        };
        format!("{}{more}", cells.join(" "))
    };
    lines.push(format!("per pass ops_per_s: {}", series(&|p| p.ops_per_s)));
    lines.push(format!(
        "per pass op_p50_us: {}",
        series(&|p| p.gated_us[0])
    ));
    lines.push(format!(
        "per pass op_p95_us: {}",
        series(&|p| p.gated_us[1])
    ));
    let gated = floor.samples().iter().filter(|s| is_gated::<W>(s)).count();
    lines.push(format!(
        "{gated} gated sample(s) per pass, {} beyond p95",
        gated / 20
    ));
    lines
}

/// The outcome of [`set_up`].
struct SetUp<W> {
    /// The last instance built.
    workload: W,
    /// `setup_s`.
    seconds: f64,
    /// Each repeat's wall time, in seconds.
    walls: Vec<f64>,
    detail: String,
}

/// Set-up, `repeats` times over; the last instance stays.
///
/// `setup_s` is the fastest repeat of everything outside the warm-up's
/// ops plus the warm-up's per-op floor — the reduction the timed passes
/// get, and for the same reason (see [`Floor`]).
fn set_up<W: Workload>(config: &RunConfig, repeats: usize) -> SetUp<W> {
    let mut workload = None;
    let mut walls = Vec::with_capacity(repeats);
    let mut warm_up = Floor::default();
    let mut rest_s = f64::MAX;
    for _ in 0..repeats {
        // The previous instance goes first: two live servers or WAL
        // directories would not be the set-up a user pays for.
        drop(workload.take());
        let started = Instant::now();
        let mut instance = W::setup(config);
        let samples = instance.warm_up();
        let wall = started.elapsed().as_secs_f64();
        workload = Some(instance);
        walls.push(wall);
        let ops_s = samples.iter().map(|s| s.ns).sum::<u64>() as f64 / 1e9;
        rest_s = rest_s.min(wall - ops_s);
        assert!(warm_up.fold(&samples), "the warm-up is a fixed op sequence");
    }
    SetUp {
        workload: workload.expect("set-up ran at least once"),
        seconds: rest_s + warm_up.total_s(),
        detail: format!(
            "set-up × {}: {:.4} s outside the warm-up + {:.4} s for its {} op(s); \
             wall {:.4} s (median)",
            walls.len(),
            rest_s,
            warm_up.total_s(),
            warm_up.samples().len(),
            median(&walls)
        ),
        walls,
    }
}

/// The untraced run: set-up (repeated; once in a smoke run), then timed
/// passes until `seconds` of measuring time have gone by (at least
/// [`MIN_PASSES`]; exactly two in a smoke run, enough to compare
/// counters), output checks, and the end-to-end metrics over the passes'
/// per-op floor.
pub fn run<W: Workload>(config: &RunConfig, seconds: u64) -> RunReport {
    let set_up = set_up::<W>(config, if config.smoke { 1 } else { SETUP_REPEATS });
    let mut workload = set_up.workload;

    let mut tracer = Tracer::off();
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut floor = Floor::default();
    let mut strays = Vec::new();
    loop {
        let log = workload.pass(&mut tracer);
        if !floor.fold(&log.samples) {
            strays.push(passes.len());
        }
        passes.push(summarize::<W>(log));
        let done = if config.smoke {
            passes.len() >= 2
        } else {
            passes.len() >= MIN_PASSES && started.elapsed() >= Duration::from_secs(seconds)
        };
        if done {
            break;
        }
    }
    drop(workload);

    let (mut attempted, mut failed, mut details) = audit(&passes);
    details.push(set_up.detail);
    attempted += passes.len() as u64;
    failed += strays.len() as u64;
    for i in strays {
        details.push(format!("FAILED pass {i}: its op sequence is not pass 0's"));
    }
    let gated: Vec<Sample> = floor
        .samples()
        .iter()
        .copied()
        .filter(is_gated::<W>)
        .collect();
    let percentiles = [("op_p50_us", 50.0), ("op_p95_us", 95.0)].map(|(name, p)| {
        let guarded = guarded_percentile(&gated, p);
        attempted += 1;
        if let Some((own, other)) = guarded.straddles {
            failed += 1;
            details.push(format!(
                "FAILED {name} is unstable — it sits on the boundary between classes \
                 `{}` and `{}`",
                W::CLASSES[own as usize].name,
                W::CLASSES[other as usize].name
            ));
        }
        guarded.ns as f64 / 1e3
    });
    details.extend(describe::<W>(&passes, &floor));

    let per_pass =
        |value: &dyn Fn(&PassSummary) -> f64| -> Vec<f64> { passes.iter().map(value).collect() };
    let values = [
        (set_up.seconds, set_up.walls),
        (
            floor.samples().len() as f64 / floor.total_s(),
            per_pass(&|p| p.ops_per_s),
        ),
        (percentiles[0], per_pass(&|p| p.gated_us[0])),
        (percentiles[1], per_pass(&|p| p.gated_us[1])),
    ];
    let [timed @ .., (rss, rss_unit)] = END_TO_END;
    let mut metrics: Vec<Metric> = timed
        .into_iter()
        .zip(&values)
        .map(|((name, unit), (value, repeats))| Metric::reduced(name, unit, *value, repeats))
        .collect();
    metrics.push(Metric::single(rss, rss_unit, peak_rss_mib()));
    RunReport {
        workload: W::NAME,
        seed: config.seed,
        passes: passes.len(),
        attempted,
        failed,
        metrics,
        details,
    }
}

/// The traced run: untraced and traced passes in turn (the ratio of the
/// fastest of each is the tracing overhead), the last traced pass's span
/// file, and the per-layer probes.
pub fn trace<W: Workload>(config: &RunConfig, out_dir: &Path) -> RunReport {
    let mut workload = set_up::<W>(config, 1).workload;
    let mut passes = Vec::new();
    let mut tracer = Tracer::off();
    for _ in 0..if config.smoke { 1 } else { TRACE_PAIRS } {
        passes.push(summarize::<W>(workload.pass(&mut Tracer::off())));
        tracer = Tracer::on();
        passes.push(summarize::<W>(workload.pass(&mut tracer)));
    }
    let inputs = workload.probe_inputs();
    drop(workload);

    let (attempted, failed, mut details) = audit(&passes);
    // Even passes are untraced, odd ones traced.
    let fastest_s = |traced: usize| {
        let walls = passes.iter().skip(traced).step_by(2);
        walls.map(|p| p.wall.as_secs_f64()).fold(f64::MAX, f64::min)
    };
    let plain = &passes[0];

    std::fs::create_dir_all(out_dir).expect("trace output directory");
    let span_file = out_dir.join(format!("trace-{}.json", W::NAME));
    std::fs::write(&span_file, tracer.to_json(W::NAME, config.seed).to_string())
        .expect("span file is writable");
    details.push(format!(
        "{} span(s) written to {}",
        tracer.spans().len(),
        span_file.display()
    ));
    for (name, t) in tracer.totals() {
        details.push(format!(
            "span {name:<30} {:>7} × mean {:>12.2} us  self {:>12.2} us",
            t.count,
            t.total_ns as f64 / t.count as f64 / 1e3,
            t.self_ns as f64 / t.count as f64 / 1e3
        ));
    }

    let mut metrics = layers::probe(&inputs, config);
    let counter = |name: &str| {
        let found = plain.counters.iter().find(|(n, _)| *n == name);
        found.map_or(0.0, |(_, count)| *count as f64)
    };
    let hit_ratio = match counter("reads") {
        0.0 => 0.0,
        reads => counter("cache_hits") / reads,
    };
    metrics.extend([
        Metric::single("concurrent.hit_ratio", "ratio", hit_ratio),
        Metric::single("client.op_p99_us", "us", plain.gated_us[2]),
        Metric::single("client.op_max_us", "us", plain.gated_us[3]),
        Metric::single("trace.spans", "count", tracer.spans().len() as f64),
        Metric::single("trace.overhead_ratio", "ratio", fastest_s(1) / fastest_s(0)),
    ]);
    RunReport {
        workload: W::NAME,
        seed: config.seed,
        passes: passes.len(),
        attempted,
        failed,
        metrics,
        details,
    }
}
