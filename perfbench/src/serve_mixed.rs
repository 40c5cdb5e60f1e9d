//! `serve-mixed`: a WAL-backed single-node server under open-loop,
//! pipelined newline-JSON traffic — two `observe` writes to one `query`
//! read — at a fixed rate, then up a rate ladder to the highest rate it
//! sustains.

use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use ref_core::resource::Capacity;
use ref_market::{MarketConfig, MarketEngine, MarketEvent, MechanismKind};
use ref_serve::{
    parse_request, FaultPlan, JournalLimit, ServeConfig, ServeMetrics, Server, ServiceCore, Value,
    Wal, WalConfig,
};

use crate::epochs::EpochStats;
use crate::openloop::{inflight_at, inflight_max, run_phase, Outcome, Planned, Verdict};
use crate::rng::Rng;
use crate::stats::Samples;
use crate::{Metrics, RunResult, Scratch};

/// External agents joined during set-up.
pub const AGENTS: u64 = 64;
/// Requests per second of the fixed-rate phase.
pub const FIXED_RATE: f64 = 2000.0;
/// The ladder's rungs are `LADDER_BASE · LADDER_STEP^k`, `k` in
/// `0..LADDER_RUNGS`.
pub const LADDER_BASE: f64 = 6000.0;
/// Ratio between neighbouring rungs.
pub const LADDER_STEP: f64 = 1.05;
/// Rungs on the ladder (6000 to about 50000 requests per second).
pub const LADDER_RUNGS: usize = 45;
/// The climb visits every `COARSE`-th rung and `SLO_RUNG`, then bisects
/// the rungs it skipped below the first failure.
const COARSE: usize = 8;
/// The top of the gated part of the ladder (6000 · 1.05^14 ≈ 11900
/// requests/s). `rate_per_s` is the highest rung up to here that the
/// server sustains: a regression below it shows, while the knee above it
/// (`max_rate_rps` in the report) moved between 18k and 41k requests/s
/// with the state of a shared 2-vCPU host, too far for any usable bound.
pub const SLO_RUNG: usize = 14;
/// A rung passes only if its p99 (refused or failed requests counting as
/// over the limit) stays within this.
pub const P99_LIMIT: Duration = Duration::from_millis(50);
/// A run (or rung) whose generator sent later than this at p99 measured
/// the generator, not the server.
pub const LATE_LIMIT: Duration = Duration::from_millis(5);
/// Tries the fixed phase gets (each on a fresh server) before a
/// generator that keeps falling behind marks the run invalid.
const FIXED_TRIES: usize = 3;
/// The server's epoch timer.
pub const EPOCH_INTERVAL: Duration = Duration::from_millis(10);
/// The WAL flush policy under test, as recorded in every result.
pub const WAL_POLICY: &str =
    "default: one write per event, no per-record fsync, checkpoint every 4096 events";

const WRITE: usize = 0;
const READ: usize = 1;
/// Slices of the fixed phase; `p50_ms` and `tail_ms` come from the
/// calmest slice.
const WINDOWS: u32 = 16;
/// How long a phase waits for stragglers after its last due time.
const DRAIN: Duration = Duration::from_secs(3);

fn market(seed: u64) -> MarketConfig {
    MarketConfig::new(Capacity::new(vec![64.0, 32.0]).expect("static capacity"))
        .with_mechanism(MechanismKind::ProportionalElasticity)
        .with_seed(seed)
}

fn serve_config(seed: u64, wal_dir: &Path) -> ServeConfig {
    ServeConfig::new(market(seed))
        .with_epoch_interval(Some(EPOCH_INTERVAL))
        .with_wal(WalConfig::new(wal_dir))
}

/// The rate of ladder rung `k`.
pub fn rung_rate(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}

/// The seeded request stream: each agent's hidden elasticity, and every
/// line of every phase, each phase from its own stream so the lines do
/// not depend on which rungs a run visits.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    seed: u64,
    truths: Vec<f64>,
}

impl Inputs {
    /// The inputs for `seed`.
    pub fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 0x5E7E);
        let truths = (0..AGENTS).map(|_| rng.range(0.15, 0.85)).collect();
        Inputs { seed, truths }
    }

    /// One `join` per agent.
    pub fn joins(&self) -> Vec<String> {
        (1..=AGENTS)
            .map(|agent| {
                Value::obj(vec![
                    ("op", Value::str("join")),
                    ("agent", Value::from_u64(agent)),
                    ("source", Value::obj(vec![("kind", Value::str("external"))])),
                ])
                .encode()
            })
            .collect()
    }

    /// An `observe` of `agent` at a jittered share, reporting the
    /// performance its hidden Cobb-Douglas truth yields there.
    fn observe(&self, rng: &mut Rng, agent: u64) -> String {
        let e = self.truths[(agent - 1) as usize];
        let a = [
            64.0 / AGENTS as f64 * rng.range(0.5, 2.0),
            32.0 / AGENTS as f64 * rng.range(0.5, 2.0),
        ];
        Value::obj(vec![
            ("op", Value::str("observe")),
            ("agent", Value::from_u64(agent)),
            ("allocation", Value::num_array(&a)),
            ("performance", Value::Num(a[0].powf(e) * a[1].powf(1.0 - e))),
        ])
        .encode()
    }

    /// Four observes per agent: the set-up warm-up batch.
    pub fn warmup(&self) -> Vec<String> {
        let mut rng = Rng::new(self.seed, 0x3A3A);
        (0..4)
            .flat_map(|_| 1..=AGENTS)
            .map(|agent| self.observe(&mut rng, agent))
            .collect()
    }

    /// Stream `stream`'s phase: `rate` requests per second for
    /// `duration`, round-robin over `conns` connections. In every block
    /// of three, one random slot is a `query`, the others `observe`s.
    pub fn plan(&self, stream: u64, rate: f64, duration: Duration, conns: usize) -> Vec<Planned> {
        let mut rng = Rng::new(self.seed, stream);
        let n = (rate * duration.as_secs_f64()).round() as usize;
        let mut read_slot = 0;
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    read_slot = rng.below(3) as usize;
                }
                let agent = 1 + rng.below(AGENTS);
                let (line, class) = if i % 3 == read_slot {
                    (
                        Value::obj(vec![
                            ("op", Value::str("query")),
                            ("agent", Value::from_u64(agent)),
                        ])
                        .encode(),
                        READ,
                    )
                } else {
                    (self.observe(&mut rng, agent), WRITE)
                };
                Planned {
                    due: Duration::from_secs_f64(i as f64 / rate),
                    conn: i % conns,
                    line,
                    class,
                    tag: agent,
                }
            })
            .collect()
    }
}

/// Judges one reply against its request: a write's reply carries the
/// epoch, a read's names the agent asked about.
fn judge(p: &Planned, reply: &str) -> Verdict {
    let Ok(v) = Value::parse(reply) else {
        return Verdict::Wrong;
    };
    if v.get("ok") != Some(&Value::Bool(true)) {
        return Verdict::Failed;
    }
    let right = match p.class {
        READ => v.get("agent").and_then(Value::as_u64) == Some(p.tag),
        _ => v.get("epoch").is_some() && v.get("agent").is_none(),
    };
    if right {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

/// Sends `lines` pipelined over `conn` and waits for every reply.
fn batch(conn: &TcpStream, lines: &[String]) -> Result<(), String> {
    let plan: Vec<Planned> = lines
        .iter()
        .map(|line| Planned {
            due: Duration::ZERO,
            conn: 0,
            line: line.clone(),
            class: WRITE,
            tag: 0,
        })
        .collect();
    let out = run_phase(
        std::slice::from_ref(conn),
        &plan,
        DRAIN * 10,
        &|_, reply| match Value::parse(reply) {
            Ok(v) if v.get("ok") == Some(&Value::Bool(true)) => Verdict::Ok,
            _ => Verdict::Failed,
        },
    );
    match out.iter().filter(|o| o.verdict != Verdict::Ok).count() {
        0 => Ok(()),
        bad => Err(format!("{bad} of {} set-up requests failed", lines.len())),
    }
}

/// Boots a WAL-backed server, opens the generator's connections, joins
/// the agents and sends the warm-up batch.
fn boot(
    config: ServeConfig,
    conns: usize,
    joins: &[String],
    warm: &[String],
) -> (Server, Vec<TcpStream>) {
    let server = Server::start("127.0.0.1:0", config).expect("server boots");
    let conns: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let c = TcpStream::connect(server.addr()).expect("connect");
            c.set_nodelay(true).expect("nodelay");
            c
        })
        .collect();
    batch(&conns[0], joins).expect("joins");
    batch(&conns[0], warm).expect("warm-up");
    (server, conns)
}

/// One open-loop phase and what came of it.
struct Phase {
    rate: f64,
    duration: Duration,
    outcomes: Vec<Outcome>,
}

impl Phase {
    fn run(conns: &[TcpStream], plan: &[Planned], rate: f64, duration: Duration) -> Phase {
        Phase {
            rate,
            duration,
            outcomes: run_phase(conns, plan, DRAIN, &judge),
        }
    }

    /// Latencies (ms) of one class, or of all; a failed request counts as
    /// infinitely slow.
    fn latencies(&self, class: Option<usize>) -> Samples {
        Samples::new(
            self.outcomes
                .iter()
                .filter(|o| class.is_none_or(|c| o.class == c))
                .map(|o| o.latency().map_or(f64::INFINITY, |l| l.as_secs_f64() * 1e3))
                .collect(),
        )
    }

    /// The `q`-quantile of one class's (or all) latencies (ms) in each of
    /// `windows` equal slices of the phase, by due time; the lowest of
    /// those. Noise from other tenants of the host only ever adds
    /// latency, so the calmest slice is the steadiest estimate of the
    /// program's own figure. A slice still spans over a hundred epoch
    /// ticks, the stall that sets the p99.
    fn windowed(&self, class: Option<usize>, q: f64, windows: u32) -> f64 {
        let span = self.duration / windows;
        let per_window: Vec<f64> = (0..windows)
            .map(|w| {
                Samples::new(
                    self.outcomes
                        .iter()
                        .filter(|o| class.is_none_or(|c| o.class == c))
                        .filter(|o| o.due >= span * w && o.due < span * (w + 1))
                        .map(|o| o.latency().map_or(f64::INFINITY, |l| l.as_secs_f64() * 1e3))
                        .collect(),
                )
                .at(q)
                .value
            })
            .collect();
        per_window.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Whether the generator kept to its schedule: a phase whose p99
    /// send is later than `LATE_LIMIT` did not offer the load it claims.
    fn kept_up(&self) -> bool {
        self.late().at(0.99).value <= LATE_LIMIT.as_secs_f64() * 1e3
    }

    /// How late the generator sent each request (ms).
    fn late(&self) -> Samples {
        Samples::new(
            self.outcomes
                .iter()
                .map(|o| o.late().as_secs_f64() * 1e3)
                .collect(),
        )
    }

    fn count(&self, verdict: Verdict) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.verdict == verdict)
            .count()
    }

    /// Whether the backlog grew: more requests in flight at the end of
    /// the phase than at its midpoint, by more than one latency limit's
    /// worth of arrivals (in-flight counts jitter by that much at any
    /// steady rate).
    fn backlog_grew(&self) -> bool {
        let mid = inflight_at(&self.outcomes, self.duration / 2);
        let end = inflight_at(&self.outcomes, self.duration);
        end > mid + (self.rate * P99_LIMIT.as_secs_f64()).ceil() as usize
    }

    /// Requests answered per second, from the first due time to the last
    /// reply.
    fn achieved_rate(&self) -> f64 {
        let last = self.outcomes.iter().filter_map(|o| o.recv).max();
        match last {
            Some(last) if !last.is_zero() => self.count(Verdict::Ok) as f64 / last.as_secs_f64(),
            _ => 0.0,
        }
    }

    /// The ladder's pass rule.
    fn sustained(&self) -> bool {
        self.count(Verdict::Ok) == self.outcomes.len()
            && self.latencies(None).at(0.99).value <= P99_LIMIT.as_secs_f64() * 1e3
            && self.kept_up()
            && !self.backlog_grew()
    }

    fn to_json(&self, pass: bool) -> Value {
        Value::obj(vec![
            ("rate_rps", Value::Num(self.rate)),
            ("achieved_rps", Value::Num(self.achieved_rate())),
            ("samples", Value::from_u64(self.outcomes.len() as u64)),
            ("p99", self.latencies(None).json(0.99)),
            ("late_p99", self.late().json(0.99)),
            (
                "failed",
                Value::from_u64(self.count(Verdict::Failed) as u64),
            ),
            ("backlog_grew", Value::Bool(self.backlog_grew())),
            ("pass", Value::Bool(pass)),
        ])
    }
}

/// The seeded inputs every session of a run shares.
struct Workload<'a> {
    seed: u64,
    scratch: &'a Scratch,
    inputs: Inputs,
    joins: Vec<String>,
    warm: Vec<String>,
    conns: usize,
    trace: bool,
}

/// One server lifetime: boot, one open-loop phase, drain, and the output
/// checks on its journal. Every phase gets a fresh server, so each rung
/// starts from the same state whichever rungs ran before it.
struct Session {
    boot_s: f64,
    phase: Phase,
    replayed: EpochStats,
    /// Output checks that failed, by name.
    failed_checks: Vec<&'static str>,
    journal_events: usize,
}

impl Workload<'_> {
    fn session(
        &self,
        name: &str,
        plan: &[Planned],
        rate: f64,
        duration: Duration,
        trace: bool,
    ) -> Session {
        let started = Instant::now();
        let config = serve_config(self.seed, &self.scratch.dir(name));
        let (server, generator) = boot(config, self.conns, &self.joins, &self.warm);
        let boot_s = started.elapsed().as_secs_f64();
        let phase = Phase::run(&generator, plan, rate, duration);
        drop(generator);
        let report = server.shutdown();

        // The journal replays to the live snapshot byte for byte, epochs
        // timed and audited on the way.
        let mut engine = MarketEngine::new(market(self.seed)).expect("market config");
        let mut replayed = EpochStats::new(trace);
        for event in &report.journal {
            if matches!(event, MarketEvent::EpochTick) {
                replayed.tick(&mut engine, self.seed);
            } else {
                let _ = engine.apply_now(event.clone());
            }
        }
        let checks = [
            ("journal_complete", !report.journal_overflowed),
            (
                "replay_identical",
                engine.snapshot().encode() == report.snapshot,
            ),
            ("protocol_errors_zero", report.metrics.protocol_errors == 0),
            ("replies_paired", phase.count(Verdict::Wrong) == 0),
            ("fair_after_warmup", replayed.fairness_violations == 0),
        ];
        Session {
            boot_s,
            phase,
            replayed,
            failed_checks: checks
                .iter()
                .filter(|(_, ok)| !ok)
                .map(|(n, _)| *n)
                .collect(),
            journal_events: report.journal.len(),
        }
    }

    /// Climbs the ladder: every `COARSE`-th rung and `SLO_RUNG` until one
    /// fails, then bisects between the last rung that passed and the
    /// first that failed. A failing rung gets one more try on a fresh server: host
    /// noise only ever fails a rung, and a second try tells a burst of it
    /// from a rate the server cannot sustain. Returns every session with
    /// its rung and verdict.
    fn climb(&self, rung_time: Duration) -> Vec<(usize, Session, bool)> {
        let mut visited = Vec::new();
        let mut visit = |k: usize| {
            let rate = rung_rate(k);
            let plan = self
                .inputs
                .plan(0x1ADD_0000 + k as u64, rate, rung_time, self.conns);
            for attempt in 0..2 {
                let session = self.session(
                    &format!("rung-{k}-{attempt}"),
                    &plan,
                    rate,
                    rung_time,
                    false,
                );
                let pass = session.phase.sustained();
                eprintln!(
                    "serve-mixed: rung {k} ({rate:.0} rps) try {attempt}: p99 {:.3} ms, late p99 {:.3} ms, backlog grew {}: {}",
                    session.phase.latencies(None).at(0.99).value,
                    session.phase.late().at(0.99).value,
                    session.phase.backlog_grew(),
                    if pass { "pass" } else { "fail" }
                );
                visited.push((k, session, pass));
                if pass {
                    return true;
                }
            }
            false
        };
        let mut coarse: Vec<usize> = (0..LADDER_RUNGS).step_by(COARSE).collect();
        coarse.push(SLO_RUNG);
        coarse.sort_unstable();
        // `pass` is the highest rung known to pass, if any.
        let mut pass = None;
        let mut first_fail = None;
        for k in coarse {
            if !visit(k) {
                first_fail = Some(k);
                break;
            }
            pass = Some(k);
        }
        if let Some(mut fail) = first_fail {
            while fail > pass.map_or(0, |p| p + 1) {
                let lo = pass.map_or(0, |p| p + 1);
                let mid = lo + (fail - lo) / 2;
                if visit(mid) {
                    pass = Some(mid);
                } else {
                    fail = mid;
                }
            }
        }
        visited
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool, scratch: &Scratch) -> RunResult {
    let inputs = Inputs::new(seed);
    let work = Workload {
        seed,
        scratch,
        joins: inputs.joins(),
        warm: inputs.warmup(),
        inputs,
        conns: crate::generator_connections(),
        trace,
    };
    let fixed_time = Duration::from_secs(seconds) / 2;
    let rung_time = Duration::from_secs(seconds) / 25;
    let fixed_plan = work.inputs.plan(0xF1ED, FIXED_RATE, fixed_time, work.conns);

    // A generator that falls behind its schedule did not offer the load
    // it claims; the phase is rerun on a fresh server, and a run whose
    // every try fell behind is marked invalid. That judges the
    // measurement, not the program, so it is not an output check.
    let mut fixed_tries: Vec<Session> = Vec::new();
    while fixed_tries.last().is_none_or(|s| !s.phase.kept_up()) && fixed_tries.len() < FIXED_TRIES {
        let name = format!("fixed-{}", fixed_tries.len());
        fixed_tries.push(work.session(&name, &fixed_plan, FIXED_RATE, fixed_time, work.trace));
    }
    let (fixed, discarded) = fixed_tries.split_last().expect("one try at least");
    let rungs = work.climb(rung_time);
    let sessions = || {
        discarded
            .iter()
            .chain(std::iter::once(fixed))
            .chain(rungs.iter().map(|(_, s, _)| s))
    };

    // Set-up is every boot of the run: connect, join and warm up.
    let boots: Vec<f64> = sessions().map(|s| s.boot_s).collect();
    let setup_s = crate::stats::median(&boots);

    let f = &fixed.phase;
    let fixed_late = f.late();
    let mut failed_checks: Vec<&str> = sessions().flat_map(|s| s.failed_checks.clone()).collect();
    failed_checks.sort_unstable();
    failed_checks.dedup();

    let writes = f.latencies(Some(WRITE));
    let reads = f.latencies(Some(READ));
    // The highest passing rung sets the sustainable rate; the fixed rate
    // stands in if none passed.
    let highest = |limit: usize| {
        rungs
            .iter()
            .filter(|(k, _, pass)| *pass && *k <= limit)
            .max_by_key(|(k, _, _)| *k)
            .map_or_else(|| f.achieved_rate(), |(_, s, _)| s.phase.achieved_rate())
    };
    let max_rate = highest(LADDER_RUNGS);
    let slo_rate = highest(SLO_RUNG);
    // Failures count on the fixed phase and every passing rung; a rung
    // past capacity is expected to fail and ends the climb.
    let (mut attempted, mut failed) = (f.outcomes.len(), f.count(Verdict::Failed));
    for (_, s, pass) in &rungs {
        if *pass {
            attempted += s.phase.outcomes.len();
            failed += s.phase.count(Verdict::Failed);
        }
    }
    let si_ratio_min = sessions()
        .map(|s| s.replayed.si_ratio_min())
        .fold(f64::INFINITY, f64::min);

    let mut metrics = Metrics::new();
    metrics.set("setup_s", setup_s);
    metrics.set(
        "p50_ms",
        f.windowed(Some(WRITE), 0.5, WINDOWS)
            .max(f.windowed(Some(READ), 0.5, WINDOWS)),
    );
    metrics.set("tail_ms", f.windowed(None, 0.99, WINDOWS));
    metrics.set("rate_per_s", slo_rate);
    metrics.set("ok_frac", 1.0 - failed as f64 / attempted as f64);
    metrics.set("si_ratio_min", si_ratio_min);

    let mut details = vec![
        ("fixed_rate_rps", Value::Num(FIXED_RATE)),
        ("write_samples", Value::from_u64(writes.len() as u64)),
        ("read_samples", Value::from_u64(reads.len() as u64)),
        ("write_p50", writes.json(0.5)),
        ("write_p99", writes.json(0.99)),
        ("read_p50", reads.json(0.5)),
        ("read_p99", reads.json(0.99)),
        ("late_p99", fixed_late.json(0.99)),
        (
            "inflight_max",
            Value::from_u64(inflight_max(&f.outcomes) as u64),
        ),
        ("max_rate_rps", Value::Num(max_rate)),
        ("slo_rate_rps", Value::Num(slo_rate)),
        (
            "ladder",
            Value::Arr(
                rungs
                    .iter()
                    .map(|(_, s, pass)| s.phase.to_json(*pass))
                    .collect(),
            ),
        ),
        ("boots", Value::from_u64(boots.len() as u64)),
        ("fixed_tries", Value::from_u64(fixed_tries.len() as u64)),
        ("valid", Value::Bool(f.kept_up())),
        (
            "fixed_journal_events",
            Value::from_u64(fixed.journal_events as u64),
        ),
        (
            "fixed_epochs",
            Value::from_u64(fixed.replayed.epochs() as u64),
        ),
    ];

    if trace {
        let t = trace_requests(seed, scratch, &work.joins, &work.warm, &fixed_plan);
        let e2e_p50_us = f.latencies(None).at(0.5).value * 1e3;
        metrics.set("serve.protocol.parse_us", t.parse_us);
        metrics.set("serve.json.encode_us", t.encode_us);
        metrics.set("serve.core.handle_us.write", t.handle_write_us);
        metrics.set("serve.core.handle_us.read", t.handle_read_us);
        metrics.set("serve.core.tick_ms", t.tick_ms);
        metrics.set("serve.wal.append_us", t.append_us);
        metrics.set("serve.wal.bytes_per_write", t.bytes_per_write);
        metrics.set(
            "serve.server.transport_us",
            e2e_p50_us - t.parse_us - t.handle_us - t.encode_us,
        );
        metrics.set("loadgen.late_p99_us", fixed_late.at(0.99).value * 1e3);
        metrics.set("loadgen.inflight_max", inflight_max(&f.outcomes) as f64);
        fixed.replayed.layer_metrics(&mut metrics);
        fixed.replayed.counter_metrics(&mut metrics);
        metrics.set("trace.e2e_p50_ms", metrics.get("p50_ms"));
        // Every replay runs after the measured window closed.
        metrics.set("trace.overhead_frac", 0.0);
        details.push(("e2e_p50_all_us", Value::Num(e2e_p50_us)));
    }

    for name in &failed_checks {
        eprintln!("serve-mixed: CHECK FAILED: {name}");
    }
    if !f.kept_up() {
        eprintln!("serve-mixed: INVALID: the generator fell behind its schedule on every try");
    }
    details.push((
        "failed_checks",
        Value::Arr(failed_checks.iter().map(|n| Value::str(*n)).collect()),
    ));
    RunResult {
        correct: failed_checks.is_empty(),
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
        details,
    }
}

/// Median per-request layer times of the in-process replay.
struct TracedRequests {
    parse_us: f64,
    handle_us: f64,
    encode_us: f64,
    handle_write_us: f64,
    handle_read_us: f64,
    tick_ms: f64,
    append_us: f64,
    bytes_per_write: f64,
}

/// Replays the set-up and fixed-phase request lines in process — with a
/// `tick` every epoch-timer period of due time, as the server's timer
/// would — through a fresh WAL-backed `ServiceCore` of the same
/// configuration, timing each layer a request crosses; then appends the
/// same events to a bare WAL under the same flush policy.
fn trace_requests(
    seed: u64,
    scratch: &Scratch,
    joins: &[String],
    warm: &[String],
    plan: &[Planned],
) -> TracedRequests {
    let config = serve_config(seed, &scratch.dir("trace-core"));
    let mut core = ServiceCore::recover(
        config.market.clone(),
        JournalLimit::default(),
        config.wal.clone().expect("wal configured"),
        FaultPlan::default(),
    )
    .expect("core boots");
    let metrics = ServeMetrics::new();
    for line in joins.iter().chain(warm) {
        core.handle(&parse_request(line).expect("set-up line").request, &metrics);
    }

    let tick_line = Value::obj(vec![("op", Value::str("tick"))]).encode();
    let mut lines: Vec<(&str, Option<usize>)> = Vec::with_capacity(plan.len() * 2);
    let mut next_tick = EPOCH_INTERVAL;
    for p in plan {
        while p.due >= next_tick {
            lines.push((&tick_line, None));
            next_tick += EPOCH_INTERVAL;
        }
        lines.push((&p.line, Some(p.class)));
    }

    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let (mut parse, mut handle, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    let (mut write, mut read, mut tick) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = Vec::new();
    for (line, class) in lines {
        let t0 = Instant::now();
        let envelope = parse_request(line).expect("recorded line parses");
        let t1 = Instant::now();
        let reply = core.handle(&envelope.request, &metrics);
        let t2 = Instant::now();
        std::hint::black_box(reply.encode());
        let t3 = Instant::now();
        match class {
            None => tick.push(us(t2 - t1) / 1e3),
            Some(class) => {
                parse.push(us(t1 - t0));
                handle.push(us(t2 - t1));
                encode.push(us(t3 - t2));
                if class == WRITE {
                    write.push(us(t2 - t1));
                } else {
                    read.push(us(t2 - t1));
                }
            }
        }
        events.extend(envelope.request.to_event());
    }

    let mut wal = Wal::open(
        WalConfig::new(scratch.dir("trace-wal")),
        FaultPlan::default(),
    )
    .expect("wal opens")
    .wal;
    let before = wal.total_bytes();
    let mut append = Vec::with_capacity(events.len());
    for event in &events {
        let t = Instant::now();
        wal.append(event).expect("append");
        append.push(us(t.elapsed()));
    }
    let bytes_per_write = (wal.total_bytes() - before) as f64 / events.len().max(1) as f64;

    let p50 = |v: Vec<f64>| Samples::new(v).at(0.5).value;
    TracedRequests {
        parse_us: p50(parse),
        handle_us: p50(handle),
        encode_us: p50(encode),
        handle_write_us: p50(write),
        handle_read_us: p50(read),
        tick_ms: p50(tick),
        append_us: p50(append),
        bytes_per_write,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_yields_identical_inputs() {
        let a = Inputs::new(9);
        let b = Inputs::new(9);
        assert_eq!(a, b);
        assert_eq!(a.joins(), b.joins());
        assert_eq!(a.warmup(), b.warmup());
        let pa = a.plan(5, 3000.0, Duration::from_millis(100), 2);
        assert_eq!(pa, b.plan(5, 3000.0, Duration::from_millis(100), 2));
        assert_eq!(pa.len(), 300);
        // Another seed or another stream gives other lines.
        assert_ne!(
            pa,
            Inputs::new(10).plan(5, 3000.0, Duration::from_millis(100), 2)
        );
        assert_ne!(pa, a.plan(6, 3000.0, Duration::from_millis(100), 2));
        // Two writes to one read, exactly, and every line parses.
        let reads = pa.iter().filter(|p| p.class == READ).count();
        assert_eq!(reads, 100);
        assert!(pa.iter().all(|p| parse_request(&p.line).is_ok()));
    }

    #[test]
    fn ladder_is_geometric() {
        assert_eq!(rung_rate(0), LADDER_BASE);
        assert!((rung_rate(1) / rung_rate(0) - LADDER_STEP).abs() < 1e-12);
        assert!(rung_rate(LADDER_RUNGS - 1) > 45_000.0);
    }
}
