//! `dst-sweep`: `ref_dst::run_seed` over a fixed block of simulator
//! seeds, in an order the seed argument shuffles, swept in passes until
//! the window closes. Every repeat of a simulator seed must reproduce its
//! first trace hash. Each simulator seed's time is its calmest over the
//! passes.
//!
//! The block is the same on every run, as the epoch workloads run the
//! same market up to a relabelling: which simulator seeds a run drew
//! would otherwise set its figures. A seed's cost grows with the agents
//! its script admits (4 to 7), and between ranges of 48 to 64 drawn seeds
//! the p90 moved by 10–13%.
//!
//! The sweep runs with the worker pool at width 1. At the default width,
//! `ref_pool` starts and joins scoped threads for engine work too small
//! to split, and every fan-out waits for the other vCPU: on a shared
//! 2-vCPU host the same block's p50 moved between 34 and 65 ms from run to
//! run. The traced run times one more pass at the default width, so that
//! cost stays in view as `dst.pooled_run_seed_ms.p50`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ref_dst::{run_seed, RunOutcome, SimOptions};
use ref_serve::Value;

use crate::rng::Rng;
use crate::stats::{calmest, Samples};
use crate::{median_setup, Metrics, RunResult};

/// Worker-pool width of the measured sweep (see the module docs).
pub const POOL_WIDTH: usize = 1;
/// Simulator seeds in the swept block: `0..RANGE`.
pub const RANGE: u64 = 64;
/// The seed simulated during set-up (fixed, so set-up does the same work
/// on every run).
pub const SETUP_SEED: u64 = 0x5E7_0DD5;

/// The simulator seeds a pass sweeps, in the order `seed` gives them.
pub fn seeds(seed: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..RANGE).collect();
    let mut rng = Rng::new(seed, 0xD57);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, trace: bool) -> RunResult {
    let opts = SimOptions::default();
    ref_pool::set_threads(POOL_WIDTH);
    let ((), setup_s) = median_setup(|| {
        std::hint::black_box(run_seed(SETUP_SEED, &opts));
    });

    let order = seeds(seed);
    let window = Duration::from_secs(seconds);
    let mut first: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let (mut attempted, mut violated, mut nondeterministic) = (0u64, 0u64, 0u64);
    let mut check = |outcome: &RunOutcome, first: &mut BTreeMap<u64, (u64, u64, u64)>| {
        attempted += 1;
        if !outcome.violations.is_empty() {
            violated += 1;
            eprintln!(
                "dst-sweep: seed {} violated: {:?}",
                outcome.seed, outcome.violations
            );
        }
        let key = (outcome.trace_hash, outcome.sim_events, outcome.acked_events);
        if *first.entry(outcome.seed).or_insert(key) != key {
            nondeterministic += 1;
            eprintln!(
                "dst-sweep: seed {} rerun changed its trace hash",
                outcome.seed
            );
        }
    };
    let started = Instant::now();
    'sweep: loop {
        passes.push(Vec::new());
        for &s in &order {
            // The first pass always completes, so the exact counts cover
            // the whole range.
            if first.len() as u64 == RANGE && started.elapsed() >= window {
                break 'sweep;
            }
            let t = Instant::now();
            let outcome = run_seed(s, &opts);
            let pass = passes.last_mut().expect("a pass is open");
            pass.push(t.elapsed().as_secs_f64() * 1e3);
            check(&outcome, &mut first);
        }
    }
    let elapsed = started.elapsed();
    // The window may close just as a pass opens.
    if passes.last().is_some_and(Vec::is_empty) {
        passes.pop();
    }
    let swept: usize = passes.iter().map(Vec::len).sum();
    // Traced: one more pass with the worker pool at its default width.
    // Its gap to the calm times is what `ref_pool`'s threads cost the
    // simulator, and every seed must still reproduce its trace hash.
    let pooled = trace.then(|| {
        ref_pool::set_threads(0);
        let times = order
            .iter()
            .map(|&s| {
                let t = Instant::now();
                let outcome = run_seed(s, &opts);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                check(&outcome, &mut first);
                ms
            })
            .collect();
        ref_pool::set_threads(POOL_WIDTH);
        Samples::new(times)
    });
    // At least one seed runs twice, whatever the window allowed.
    check(&run_seed(order[0], &opts), &mut first);
    ref_pool::set_threads(0);

    let calm = calmest(&passes);
    let calm_rate = calm.len() as f64 * 1e3 / calm.iter().sum::<f64>();
    let times = Samples::new(calm);
    let events: u64 = first.values().map(|v| v.1).sum();
    let acked: u64 = first.values().map(|v| v.2).sum();
    let checks = [
        ("no_violations", violated == 0),
        ("reruns_reproduce", nondeterministic == 0),
    ];
    for (name, ok) in &checks {
        if !ok {
            eprintln!("dst-sweep: CHECK FAILED: {name}");
        }
    }

    let mut metrics = Metrics::new();
    metrics.set("setup_s", setup_s);
    metrics.set("p50_ms", times.at(0.5).value);
    metrics.set("tail_ms", times.at(0.9).value);
    metrics.set("rate_per_s", calm_rate);
    metrics.set("ok_frac", 1.0 - violated as f64 / attempted as f64);
    // The simulator exposes no market fairness margin; it judges its
    // invariants instead, so this workload reports the neutral ratio.
    metrics.set("si_ratio_min", 1.0);
    if trace {
        metrics.set("dst.run_seed_ms.p50", times.at(0.5).value);
        metrics.set("dst.run_seed_ms.p90", times.at(0.9).value);
        if let Some(pooled) = &pooled {
            metrics.set("dst.pooled_run_seed_ms.p50", pooled.at(0.5).value);
        }
        metrics.set("dst.sim_events_per_seed", events as f64 / RANGE as f64);
        metrics.set("dst.acked_per_seed", acked as f64 / RANGE as f64);
        metrics.set("trace.e2e_p50_ms", times.at(0.5).value);
        // Timing a seed is all the tracing this workload does.
        metrics.set("trace.overhead_frac", 0.0);
    }

    let details = vec![
        ("block", Value::from_u64(RANGE)),
        ("first_in_order", Value::from_u64(order[0])),
        ("seeds_run", Value::from_u64(swept as u64)),
        ("passes", Value::from_u64(passes.len() as u64)),
        ("calm_run_seed_p50", times.json(0.5)),
        ("calm_run_seed_p90", times.json(0.9)),
        ("calm_seeds_per_s", Value::Num(calm_rate)),
        (
            "seeds_per_s",
            Value::Num(swept as f64 / elapsed.as_secs_f64()),
        ),
        ("sim_events_in_range", Value::from_u64(events)),
        ("acked_in_range", Value::from_u64(acked)),
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
        attempted,
        failed: violated,
        metrics,
        details,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_orders_the_same_block() {
        let a = seeds(7);
        assert_eq!(a, seeds(7));
        assert_ne!(a, seeds(8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..RANGE).collect::<Vec<_>>());
    }
}
