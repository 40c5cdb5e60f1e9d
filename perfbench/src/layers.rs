//! Per-layer timing of one market epoch, measured from outside the
//! program.
//!
//! Before a tick, [`capture`] copies the inputs the epoch will consume
//! through the engine's public accessors. After the tick, [`replay`]
//! reruns each layer on those inputs through its public entry point and
//! times it: the mechanism, the SI/EF/PE audit, stride enforcement, the
//! online refits, and the credit ledger. Whatever the epoch spent beyond
//! those layers is the engine's own overhead (`market.engine.other_ms`).
//! Layers the engine fans out over the worker pool are replayed with the
//! same fan-out, so their wall times compare with the epoch's.

use std::time::{Duration, Instant};

use ref_core::mechanism::{CreditMechanism, GpWarmStart, Mechanism, ProportionalElasticity};
use ref_core::online::OnlineEstimator;
use ref_core::properties::FairnessReport;
use ref_core::resource::{Allocation, Capacity};
use ref_core::utility::{CobbDouglas, Utility};
use ref_market::{
    AgentId, CreditLedger, EpochReport, MarketConfig, MarketEngine, MechanismKind,
    ObservationSource, ReallocationOutcome,
};
use ref_sched::StrideScheduler;

use crate::rng::Rng;

/// What the engine will read during the next epoch.
pub struct Capture {
    ids: Vec<AgentId>,
    reported: Vec<CobbDouglas>,
    weights: Vec<f64>,
    hint: Option<GpWarmStart>,
    ledger: CreditLedger,
    /// Per agent: its estimator and, for ground-truth agents that will
    /// observe this epoch, the hidden truth.
    agents: Vec<(OnlineEstimator, Option<CobbDouglas>)>,
}

/// Copies the next epoch's inputs out of `engine`.
pub fn capture(engine: &MarketEngine) -> Capture {
    let ids = engine.live_agents();
    let nr = engine.config().capacity.num_resources();
    let kind = engine.config().mechanism;
    let states: Vec<_> = ids
        .iter()
        .map(|id| engine.agent(*id).expect("live agent"))
        .collect();
    Capture {
        reported: states.iter().map(|a| a.reported_utility()).collect(),
        weights: if kind.credit_weighted() {
            engine.ledger().weights(&ids)
        } else {
            Vec::new()
        },
        hint: if kind.warm_startable() {
            engine.warm_cache().hint(&ids, nr)
        } else {
            None
        },
        ledger: engine.ledger().clone(),
        agents: states
            .iter()
            .map(|a| {
                let truth = match &a.source {
                    ObservationSource::GroundTruth(t) if !a.quarantined() => Some(t.clone()),
                    _ => None,
                };
                (a.estimator.clone(), truth)
            })
            .collect(),
        ids,
    }
}

/// Replayed layer times for one epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochLayers {
    /// The mechanism; `None` when the epoch reused its cached allocation.
    pub allocate: Option<Duration>,
    /// `FairnessReport::check_with_tolerance`.
    pub audit: Duration,
    /// Stride schedulers, one per resource, over the pool.
    pub enforce: Duration,
    /// One observation + refit per observing agent, over the pool.
    pub refit: Duration,
    /// `CreditLedger::accrue`.
    pub accrue: Duration,
    /// Whether the replayed mechanism reproduced the epoch's allocation
    /// bit for bit (proof the capture saw the epoch's real inputs).
    pub faithful: bool,
}

impl EpochLayers {
    /// Sum of the replayed layers.
    pub fn total(&self) -> Duration {
        self.allocate.unwrap_or_default() + self.audit + self.enforce + self.refit + self.accrue
    }
}

/// Reruns each layer of the epoch that produced `report` on the captured
/// inputs and times it.
///
/// # Panics
///
/// Panics if `report` has no allocation (an empty market).
pub fn replay(cap: Capture, report: &EpochReport, config: &MarketConfig, salt: u64) -> EpochLayers {
    let allocation = report.allocation.as_ref().expect("non-empty market");
    let capacity = &config.capacity;
    let mut layers = EpochLayers {
        faithful: true,
        ..EpochLayers::default()
    };

    if report.realloc == ReallocationOutcome::Reallocated {
        let started = Instant::now();
        let replayed = allocate(config.mechanism, &cap, capacity);
        layers.allocate = Some(started.elapsed());
        layers.faithful = replayed.as_ref() == Some(allocation);
    }

    let started = Instant::now();
    let audit = FairnessReport::check_with_tolerance(
        &cap.reported,
        allocation,
        capacity,
        config.audit_tolerance,
    );
    layers.audit = started.elapsed();
    layers.faithful &= report.fairness.as_ref() == Some(&audit);

    layers.enforce = enforce(allocation, capacity, config.enforcement_quanta);

    // Ledger inputs are computed exactly as the engine does, outside the
    // timed call.
    let equal_share: Vec<f64> = capacity
        .as_slice()
        .iter()
        .map(|c| c / cap.ids.len() as f64)
        .collect();
    let measured: Vec<(AgentId, f64, f64)> = cap
        .ids
        .iter()
        .zip(&cap.agents)
        .zip(&cap.reported)
        .enumerate()
        .map(|(i, ((id, (_, truth)), reported))| {
            let u = truth.as_ref().unwrap_or(reported);
            let delivered = u.value_slice(allocation.bundle(i).as_slice());
            (*id, delivered, u.value_slice(&equal_share))
        })
        .collect();
    let mut ledger = cap.ledger;
    let started = Instant::now();
    ledger.accrue(&measured, config.temporal_window as usize);
    layers.accrue = started.elapsed();

    layers.refit = refit(cap.agents, allocation, config.excitation, salt);
    layers
}

fn allocate(kind: MechanismKind, cap: &Capture, capacity: &Capacity) -> Option<Allocation> {
    let hint = cap.hint.as_ref();
    let result = match kind {
        MechanismKind::ProportionalElasticity => {
            ProportionalElasticity.allocate_warm(&cap.reported, capacity, hint)
        }
        MechanismKind::Credit { inner } => CreditMechanism::new(inner, cap.weights.clone())
            .and_then(|m| m.allocate_warm(&cap.reported, capacity, hint)),
        other => panic!("no replay for mechanism {}", other.label()),
    };
    result.ok().map(|(alloc, _)| alloc)
}

/// The engine's enforcement: one stride scheduler per resource, each run
/// for `quanta` quanta, fanned out over the pool.
fn enforce(allocation: &Allocation, capacity: &Capacity, quanta: u64) -> Duration {
    let started = Instant::now();
    let deviations: Vec<f64> = ref_pool::par_map(capacity.num_resources(), |resource| {
        let target: Vec<f64> = allocation
            .bundles()
            .iter()
            .map(|b| b.get(resource) / capacity.get(resource))
            .collect();
        let weights: Vec<f64> = target.iter().map(|w| w.max(1e-9)).collect();
        let mut stride = StrideScheduler::new(weights).expect("positive weights");
        for _ in 0..quanta {
            stride.next_quantum();
        }
        stride
            .service_shares()
            .iter()
            .zip(&target)
            .map(|(a, t)| (a - t).abs())
            .fold(0.0, f64::max)
    });
    let elapsed = started.elapsed();
    std::hint::black_box(deviations);
    elapsed
}

/// One jittered observation and refit per ground-truth agent on cloned
/// estimators, fanned out over the pool like the engine's ingest.
fn refit(
    agents: Vec<(OnlineEstimator, Option<CobbDouglas>)>,
    allocation: &Allocation,
    excitation: f64,
    salt: u64,
) -> Duration {
    struct Slot {
        estimator: OnlineEstimator,
        allocation: Vec<f64>,
        performance: f64,
    }
    let mut slots: Vec<Slot> = agents
        .into_iter()
        .enumerate()
        .filter_map(|(i, (estimator, truth))| {
            let truth = truth?;
            let mut rng = Rng::new(salt, i as u64);
            let allocation: Vec<f64> = allocation
                .bundle(i)
                .as_slice()
                .iter()
                .map(|q| (q * rng.range(1.0 - excitation, 1.0 + excitation)).max(1e-9))
                .collect();
            let performance = truth.value_slice(&allocation);
            Some(Slot {
                estimator,
                allocation,
                performance,
            })
        })
        .collect();
    if slots.is_empty() {
        return Duration::ZERO;
    }
    let started = Instant::now();
    ref_pool::par_for_each_mut(&mut slots, |_, slot| {
        if slot.performance.is_finite() && slot.performance > 0.0 {
            let _ = slot
                .estimator
                .observe(std::mem::take(&mut slot.allocation), slot.performance);
        }
    });
    started.elapsed()
}
