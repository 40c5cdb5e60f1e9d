//! The repository benchmark: one command, four workloads, end-to-end
//! metrics with tracing off and per-layer metrics with it on.
//!
//! ```text
//! perfbench --workload serve-mixed|epoch-credit|epoch-wide|dst-sweep
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The lines before it
//! record provenance and each workload's detail (sample counts, exact
//! percentiles with how many samples lie beyond them, the rate ladder).
//! The exit code is non-zero when any output check fails. See
//! `perfbench/README.md` for the workloads and the metric map.

mod dst_sweep;
mod epochs;
mod layers;
mod openloop;
mod rng;
mod serve_mixed;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use ref_serve::Value;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("si_ratio_min", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("serve.protocol.parse_us", "us"),
    ("serve.json.encode_us", "us"),
    ("serve.core.handle_us.write", "us"),
    ("serve.core.handle_us.read", "us"),
    ("serve.core.tick_ms", "ms"),
    ("serve.wal.append_us", "us"),
    ("serve.wal.bytes_per_write", "bytes"),
    ("serve.server.transport_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.inflight_max", "count"),
    ("core.mechanism.allocate_ms", "ms"),
    ("core.properties.audit_ms", "ms"),
    ("sched.stride.enforce_ms", "ms"),
    ("core.online.refit_us", "us"),
    ("market.ledger.accrue_us", "us"),
    ("market.snapshot.encode_ms", "ms"),
    ("market.engine.other_ms", "ms"),
    ("market.engine.realloc_frac", "frac"),
    ("market.engine.cache_hit_frac", "frac"),
    ("market.warm.hit_frac", "frac"),
    ("dst.run_seed_ms.p50", "ms"),
    ("dst.run_seed_ms.p90", "ms"),
    ("dst.pooled_run_seed_ms.p50", "ms"),
    ("dst.sim_events_per_seed", "count"),
    ("dst.acked_per_seed", "count"),
    ("trace.e2e_p50_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["serve-mixed", "epoch-credit", "epoch-wide", "dst-sweep"];

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// No metrics yet.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }
}

/// What a workload hands back.
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (requests, epochs, or seeds).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Metric values (end-to-end always, per-layer when traced).
    pub metrics: Metrics,
    /// Workload detail for the report line.
    pub details: Vec<(&'static str, Value)>,
}

/// A per-run scratch directory under the working directory, removed when
/// the run ends.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new() -> Scratch {
        let root = PathBuf::from(".bench_run").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("scratch directory");
        Scratch { root }
    }

    /// A fresh, empty subdirectory path (created by whoever uses it).
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave nothing behind once the last concurrent run is done.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// Runs `setup` at least `SETUP_TRIES.0` times, and more while the set-ups
/// so far took under `SETUP_BUDGET` (at most `SETUP_TRIES.1`), so a quick
/// set-up is timed often enough for a steady median. Returns the last
/// call's value with the median wall time in seconds.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_TRIES.0
        || (times.len() < SETUP_TRIES.1 && started.elapsed() < SETUP_BUDGET)
    {
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), stats::median(&times))
}

/// Fewest and most set-ups a run times.
const SETUP_TRIES: (usize, usize) = (3, 60);
/// Past the fewest, set-ups repeat while their total is below this.
const SETUP_BUDGET: std::time::Duration = std::time::Duration::from_secs(4);

/// Host parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Connections (one receiver thread each) the open-loop generator uses:
/// with its sender thread, at most `nproc` threads in all.
pub fn generator_connections() -> usize {
    nproc().saturating_sub(1).max(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let provenance = Value::obj(vec![
        ("workload", Value::str(args.workload.clone())),
        ("seed", Value::from_u64(args.seed)),
        ("seconds", Value::from_u64(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", Value::from_u64(nproc() as u64)),
        ("cpu", Value::str(cpu_model())),
        ("git_rev", Value::str(git_rev())),
        (
            "pool_width",
            Value::from_u64(match args.workload.as_str() {
                "dst-sweep" => dst_sweep::POOL_WIDTH as u64,
                _ => ref_pool::threads() as u64,
            }),
        ),
        (
            "generator_connections",
            Value::from_u64(generator_connections() as u64),
        ),
        ("wal_flush_policy", Value::str(serve_mixed::WAL_POLICY)),
        (
            "workload_seeds",
            match args.workload.as_str() {
                "dst-sweep" => Value::obj(vec![
                    ("order", Value::from_u64(args.seed)),
                    ("block", Value::from_u64(dst_sweep::RANGE)),
                    ("setup", Value::from_u64(dst_sweep::SETUP_SEED)),
                ]),
                _ => Value::obj(vec![("inputs", Value::from_u64(args.seed))]),
            },
        ),
    ]);
    println!("{}", Value::obj(vec![("provenance", provenance)]).encode());

    let scratch = Scratch::new();
    let result = match args.workload.as_str() {
        "serve-mixed" => serve_mixed::run(args.seed, args.seconds, args.trace, &scratch),
        "epoch-credit" => epochs::run(epochs::Shape::Credit, args.seed, args.seconds, args.trace),
        "epoch-wide" => epochs::run(epochs::Shape::Wide, args.seed, args.seconds, args.trace),
        "dst-sweep" => dst_sweep::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("validated workload"),
    };
    drop(scratch);

    let mut details = result.details;
    details.insert(0, ("workload", Value::str(args.workload.clone())));
    println!(
        "{}",
        Value::obj(vec![("report", Value::obj(details))]).encode()
    );

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        // End-to-end metrics are measured on every workload; a per-layer
        // metric a workload does not exercise reads 0.
        assert!(
            args.trace || result.metrics.has(name),
            "{} did not measure {name}",
            args.workload
        );
        metrics.push((
            *name,
            Value::obj(vec![
                ("value", Value::Num(result.metrics.get(name))),
                ("unit", Value::str(*unit)),
            ]),
        ));
    }
    let line = Value::obj(vec![
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::from_u64(result.attempted.max(1))),
        ("failed", Value::from_u64(result.failed)),
        ("metrics", Value::obj(metrics)),
    ]);
    println!("{}", line.encode());
    if !result.correct {
        std::process::exit(1);
    }
}
