//! `epoch-credit` and `epoch-wide`: an in-process `MarketEngine` of
//! ground-truth agents driven by `apply_now`, with a seeded
//! `DemandChanged` every few epochs; plus the per-epoch bookkeeping the
//! serving workload reuses when it replays its journal.

use std::time::{Duration, Instant};

use ref_core::mechanism::CreditInner;
use ref_core::resource::Capacity;
use ref_core::utility::CobbDouglas;
use ref_market::{
    MarketConfig, MarketEngine, MarketEvent, MarketMetrics, MechanismKind, ObservationSource,
};
use ref_serve::Value;

use crate::layers::{self, EpochLayers};
use crate::rng::Rng;
use crate::stats::{calmest, median, Samples};
use crate::{median_setup, Metrics, RunResult};

/// Epochs in one pass: a round of demand changes, then this many ticks.
/// Longer than the market's warm-up window, so every change is followed
/// by audited epochs. Each round swaps the same pairs of truths back, so
/// every pass does the same work, epoch for epoch, up to mirroring.
pub const PASS: usize = 12;
/// Every this many traced epochs, time a snapshot encode.
const ENCODE_EVERY: usize = 8;

/// Which epoch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 64 agents under the credit-tilted max-welfare GP.
    Credit,
    /// 1000 agents under closed-form proportional elasticity.
    Wide,
}

impl Shape {
    /// Number of ground-truth agents.
    pub fn agents(self) -> u64 {
        match self {
            Shape::Credit => 64,
            Shape::Wide => 1000,
        }
    }

    fn mechanism(self) -> MechanismKind {
        match self {
            Shape::Credit => MechanismKind::Credit {
                inner: CreditInner::MaxWelfare,
            },
            Shape::Wide => MechanismKind::ProportionalElasticity,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Shape::Credit => "epoch-credit",
            Shape::Wide => "epoch-wide",
        }
    }
}

/// The seeded inputs of an epoch workload.
///
/// The population is stratified: agent elasticities sit on an even grid
/// over `[0.1, 0.9]` and the seed shuffles which agent holds which grid
/// point. Demand changes swap the truths of mirrored grid points, with
/// the same jump sizes every time. Every seed therefore runs the same
/// market up to a relabelling of agents, and the run-to-run spread
/// measures the program and the host rather than the luck of the draw.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The market configuration.
    pub config: MarketConfig,
    /// Join events, one per agent.
    pub joins: Vec<MarketEvent>,
    /// Each agent's grid point (agent `id` at index `id - 1`).
    rank: Vec<usize>,
}

/// The truth at grid point `rank` of `n`.
fn truth(rank: usize, n: usize) -> CobbDouglas {
    let e = 0.1 + 0.8 * (rank as f64 + 0.5) / n as f64;
    CobbDouglas::new(1.0, vec![e, 1.0 - e]).expect("valid elasticities")
}

impl Inputs {
    /// The inputs for `shape` and `seed`.
    pub fn new(shape: Shape, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 0xE90C);
        let n = shape.agents() as usize;
        let mut rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let config = MarketConfig::new(Capacity::new(vec![64.0, 32.0]).expect("static capacity"))
            .with_mechanism(shape.mechanism())
            .with_seed(seed);
        let joins = rank
            .iter()
            .zip(1..)
            .map(|(&r, id)| MarketEvent::AgentJoined {
                id,
                source: ObservationSource::GroundTruth(truth(r, n)),
            })
            .collect();
        Inputs {
            config,
            joins,
            rank,
        }
    }

    /// The next round of demand changes: for each of three pairs of grid
    /// points mirrored around 0.5, the agents holding them swap truths.
    /// The pairs make jumps of about 0.2, 0.4 and 0.6 in elasticity, so
    /// every round meets the same mix of small and large changes; the
    /// seed decides which agents.
    pub fn demand_change(&mut self) -> Vec<MarketEvent> {
        let n = self.rank.len();
        let mut changes = Vec::with_capacity(6);
        for low in [3 * n / 8, n / 4, n / 8] {
            let holder = |point: usize| {
                self.rank
                    .iter()
                    .position(|&r| r == point)
                    .expect("every grid point is held")
            };
            let (a, b) = (holder(low), holder(n - 1 - low));
            self.rank.swap(a, b);
            changes.extend([a, b].map(|i| MarketEvent::DemandChanged {
                id: i as u64 + 1,
                new_truth: Some(truth(self.rank[i], n)),
            }));
        }
        changes
    }
}

/// Per-epoch outcomes of a run of ticks, and (when tracing) the layer
/// times of each.
pub struct EpochStats {
    trace: bool,
    walls_ms: Vec<f64>,
    /// Post-warm-up epochs whose SI/EF/PE audit found a violation.
    pub fairness_violations: usize,
    /// Post-warm-up epochs with at least one envy edge.
    pub envy_epochs: usize,
    /// Ticks that returned an error.
    pub errors: usize,
    si_min: Option<f64>,
    layers: Vec<(f64, EpochLayers)>,
    encode_ms: Vec<f64>,
    unfaithful: usize,
    traced_for: Duration,
    /// Market counters before the first tick and after the latest.
    counters: Option<(MarketMetrics, MarketMetrics)>,
}

impl EpochStats {
    /// Empty stats; `trace` turns on layer replays.
    pub fn new(trace: bool) -> EpochStats {
        EpochStats {
            trace,
            walls_ms: Vec::new(),
            fairness_violations: 0,
            envy_epochs: 0,
            errors: 0,
            si_min: None,
            layers: Vec::new(),
            encode_ms: Vec::new(),
            unfaithful: 0,
            traced_for: Duration::ZERO,
            counters: None,
        }
    }

    /// Applies one `EpochTick`, timing it (and, when tracing, replaying
    /// its layers).
    pub fn tick(&mut self, engine: &mut MarketEngine, salt: u64) {
        let traced = Instant::now();
        let capture = self.trace.then(|| layers::capture(engine));
        self.traced_for += traced.elapsed();

        let before = engine.metrics().clone();
        let started = Instant::now();
        let result = engine.apply_now(MarketEvent::EpochTick);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        self.walls_ms.push(wall_ms);
        let first = self.counters.take().map_or(before, |(first, _)| first);
        self.counters = Some((first, engine.metrics().clone()));

        let report = match result {
            Ok(Some(report)) => report,
            _ => {
                self.errors += 1;
                return;
            }
        };
        if !report.warm {
            if let Some(f) = &report.fairness {
                // Credit weights make the solve a weighted Nash welfare
                // — a market with unequal budgets — so per-epoch envy is
                // part of its design; SI and PE still hold every epoch.
                let ef_promised = !engine.config().mechanism.credit_weighted();
                self.envy_epochs += usize::from(!f.envy_free());
                if !(f.sharing_incentives()
                    && f.pareto_efficient
                    && (f.envy_free() || !ef_promised))
                {
                    self.fairness_violations += 1;
                }
            }
            self.si_min = Some(self.si_min.map_or(report.worst_temporal_ratio, |m| {
                m.min(report.worst_temporal_ratio)
            }));
        }
        if let Some(capture) = capture {
            let traced = Instant::now();
            if report.allocation.is_some() {
                let l = layers::replay(capture, &report, engine.config(), salt ^ report.epoch);
                self.unfaithful += usize::from(!l.faithful);
                self.layers.push((wall_ms, l));
            }
            if self.walls_ms.len() % ENCODE_EVERY == 1 {
                let snapshot = engine.snapshot();
                let t = Instant::now();
                std::hint::black_box(snapshot.encode());
                self.encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            self.traced_for += traced.elapsed();
        }
    }

    /// Epochs ticked.
    pub fn epochs(&self) -> usize {
        self.walls_ms.len()
    }

    /// Epoch wall times, ms.
    pub fn walls(&self) -> Samples {
        Samples::new(self.walls_ms.clone())
    }

    /// The calmest wall time (ms) of each epoch of a pass over the
    /// passes ticked so far (see [`calmest`]).
    pub fn calm_walls(&self) -> Vec<f64> {
        let passes: Vec<Vec<f64>> = self.walls_ms.chunks(PASS).map(<[f64]>::to_vec).collect();
        calmest(&passes)
    }

    /// Passes begun.
    pub fn passes(&self) -> usize {
        self.walls_ms.len().div_ceil(PASS)
    }

    /// The smallest post-warm-up temporal SI ratio (1.0 if no epoch was
    /// past warm-up).
    pub fn si_ratio_min(&self) -> f64 {
        self.si_min.unwrap_or(1.0)
    }

    /// Epochs whose replayed layers disagreed with the engine's own
    /// outputs (the capture missed an input).
    pub fn unfaithful(&self) -> usize {
        self.unfaithful
    }

    /// Time spent capturing and replaying.
    pub fn traced_for(&self) -> Duration {
        self.traced_for
    }

    /// Reallocations, cache hits and warm-start hits over the ticks run,
    /// as fractions, into `metrics`.
    pub fn counter_metrics(&self, metrics: &mut Metrics) {
        let Some((before, after)) = &self.counters else {
            return;
        };
        let epochs = (after.epochs - before.epochs).max(1) as f64;
        metrics.set(
            "market.engine.realloc_frac",
            (after.reallocations - before.reallocations) as f64 / epochs,
        );
        metrics.set(
            "market.engine.cache_hit_frac",
            (after.cache_hits - before.cache_hits) as f64 / epochs,
        );
        let hits = after.warm_start_hits - before.warm_start_hits;
        let misses = after.warm_start_misses - before.warm_start_misses;
        metrics.set(
            "market.warm.hit_frac",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        );
    }

    /// Reallocations over the ticks run.
    pub fn reallocations(&self) -> u64 {
        self.counters.as_ref().map_or(0, |(before, after)| {
            after.reallocations - before.reallocations
        })
    }

    /// Medians of the replayed layers, per epoch, into `metrics`.
    pub fn layer_metrics(&self, metrics: &mut Metrics) {
        let med = |f: &dyn Fn(&(f64, EpochLayers)) -> Option<f64>| {
            let v: Vec<f64> = self.layers.iter().filter_map(f).collect();
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        metrics.set(
            "core.mechanism.allocate_ms",
            med(&|(_, l)| l.allocate.map(ms)),
        );
        metrics.set("core.properties.audit_ms", med(&|(_, l)| Some(ms(l.audit))));
        metrics.set(
            "sched.stride.enforce_ms",
            med(&|(_, l)| Some(ms(l.enforce))),
        );
        metrics.set(
            "core.online.refit_us",
            med(&|(_, l)| Some(ms(l.refit) * 1e3)),
        );
        metrics.set(
            "market.ledger.accrue_us",
            med(&|(_, l)| Some(ms(l.accrue) * 1e3)),
        );
        metrics.set(
            "market.engine.other_ms",
            med(&|(wall, l)| Some(wall - ms(l.total()))),
        );
        metrics.set(
            "market.snapshot.encode_ms",
            if self.encode_ms.is_empty() {
                0.0
            } else {
                median(&self.encode_ms)
            },
        );
    }
}

/// Builds the market, joins every agent, and ticks it out of warm-up.
fn boot(inputs: &Inputs, salt: u64) -> MarketEngine {
    let mut engine = MarketEngine::new(inputs.config.clone()).expect("market config");
    for join in &inputs.joins {
        engine.apply_now(join.clone()).expect("join");
    }
    let mut warm = EpochStats::new(false);
    for _ in 0..=inputs.config.warmup_epochs {
        warm.tick(&mut engine, salt);
    }
    assert_eq!(warm.errors, 0, "warm-up epoch failed");
    engine
}

/// Runs an epoch workload.
pub fn run(shape: Shape, seed: u64, seconds: u64, trace: bool) -> RunResult {
    let mut inputs = Inputs::new(shape, seed);
    let (mut engine, setup_s) = median_setup(|| boot(&inputs, seed));

    let window = Duration::from_secs(seconds);
    let mut stats = EpochStats::new(trace);
    let mut demand_errors = 0;
    let started = Instant::now();
    // The first pass always completes, so every epoch of a pass is timed.
    while stats.epochs() < PASS || started.elapsed() < window {
        if stats.epochs().is_multiple_of(PASS) {
            for change in inputs.demand_change() {
                demand_errors += usize::from(engine.apply_now(change).is_err());
            }
        }
        stats.tick(&mut engine, seed);
    }
    let elapsed = started.elapsed();

    let walls = stats.walls();
    let calm = stats.calm_walls();
    let calm_rate = calm.len() as f64 * 1e3 / calm.iter().sum::<f64>();
    let calm = Samples::new(calm);
    let epochs = stats.epochs();
    let failed = stats.errors + demand_errors;
    let checks = [
        ("epochs_ok", failed == 0),
        ("fair_after_warmup", stats.fairness_violations == 0),
        ("replay_faithful", stats.unfaithful() == 0),
    ];
    for (name, ok) in &checks {
        if !ok {
            eprintln!("{}: CHECK FAILED: {name}", shape.name());
        }
    }

    let mut metrics = Metrics::new();
    metrics.set("setup_s", setup_s);
    metrics.set("p50_ms", calm.at(0.5).value);
    metrics.set("tail_ms", calm.at(0.9).value);
    metrics.set("rate_per_s", calm_rate);
    metrics.set("ok_frac", 1.0 - failed as f64 / epochs as f64);
    metrics.set("si_ratio_min", stats.si_ratio_min());
    if trace {
        stats.counter_metrics(&mut metrics);
        stats.layer_metrics(&mut metrics);
        metrics.set("trace.e2e_p50_ms", calm.at(0.5).value);
        metrics.set(
            "trace.overhead_frac",
            stats.traced_for().as_secs_f64() / elapsed.as_secs_f64(),
        );
    }

    let details = vec![
        ("agents", Value::from_u64(shape.agents())),
        ("mechanism", Value::str(inputs.config.mechanism.label())),
        ("epochs", Value::from_u64(epochs as u64)),
        ("passes", Value::from_u64(stats.passes() as u64)),
        ("calm_epoch_p50", calm.json(0.5)),
        ("calm_epoch_p90", calm.json(0.9)),
        ("calm_epochs_per_s", Value::Num(calm_rate)),
        ("epoch_p50", walls.json(0.5)),
        ("epoch_p90", walls.json(0.9)),
        (
            "epochs_per_s",
            Value::Num(epochs as f64 / elapsed.as_secs_f64()),
        ),
        ("si_ratio_min", Value::Num(stats.si_ratio_min())),
        (
            "envy_epochs_after_warmup",
            Value::from_u64(stats.envy_epochs as u64),
        ),
        ("reallocations", Value::from_u64(stats.reallocations())),
        (
            "checks",
            Value::obj(
                checks
                    .iter()
                    .map(|(n, ok)| (*n, Value::Bool(*ok)))
                    .collect(),
            ),
        ),
    ];
    RunResult {
        correct: checks.iter().all(|(_, ok)| *ok),
        attempted: epochs as u64,
        failed: failed as u64,
        metrics,
        details,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_yields_identical_inputs() {
        for shape in [Shape::Credit, Shape::Wide] {
            let mut a = Inputs::new(shape, 42);
            let mut b = Inputs::new(shape, 42);
            assert_eq!(a, b);
            for _ in 0..5 {
                assert_eq!(a.demand_change(), b.demand_change());
            }
            assert_ne!(Inputs::new(shape, 43).joins, a.joins);
            assert_eq!(a.joins.len() as u64, shape.agents());
        }
    }

    #[test]
    fn demand_changes_swap_mirrored_truths_and_keep_the_population() {
        let mut inputs = Inputs::new(Shape::Credit, 7);
        let mut grid = inputs.rank.clone();
        grid.sort_unstable();
        let elasticity = |event: &MarketEvent| match event {
            MarketEvent::DemandChanged {
                new_truth: Some(t), ..
            } => t.elasticities()[0],
            other => panic!("not a demand change: {other:?}"),
        };
        for _ in 0..4 {
            let changes = inputs.demand_change();
            assert_eq!(changes.len(), 6);
            for pair in changes.chunks(2) {
                // Mirrored around 0.5, so the pair's first elasticities
                // sum to one.
                assert!((elasticity(&pair[0]) + elasticity(&pair[1]) - 1.0).abs() < 1e-12);
            }
            let mut now = inputs.rank.clone();
            now.sort_unstable();
            assert_eq!(now, grid, "a swap keeps every grid point held once");
        }
    }
}
