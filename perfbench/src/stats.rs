//! Exact order statistics over raw samples.
//!
//! Every number the benchmark reports comes from the raw samples it
//! recorded, never from histogram bucket edges.

use ref_serve::Value;

/// The `q`-quantile of `sorted` (ascending) by the nearest-rank rule: the
/// smallest sample with at least `q · n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of unsorted values (nearest-rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Per-item calmest times over repeated passes of the same work: item
/// `i` gets the least time any pass took for it. Other tenants of a shared
/// host only ever add time, and their load comes and goes over seconds,
/// so the minimum over passes made at different moments is a steadier
/// estimate of the program's own cost than any one pass. A pass cut short
/// by the end of a run contributes the items it reached.
///
/// # Panics
///
/// Panics when there is no pass, or a later pass is longer than the first.
pub fn calmest(passes: &[Vec<f64>]) -> Vec<f64> {
    let (first, rest) = passes.split_first().expect("at least one pass");
    let mut calm = first.clone();
    for pass in rest {
        assert!(pass.len() <= calm.len(), "a pass longer than the first");
        for (c, t) in calm.iter_mut().zip(pass) {
            *c = c.min(*t);
        }
    }
    calm
}

/// A percentile of a sample set, with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The quantile level, e.g. 0.99.
    pub q: f64,
    /// The exact sample value at that level.
    pub value: f64,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// Sorted samples plus the percentiles the benchmark reports.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Takes ownership of raw samples (any order).
    pub fn new(mut raw: Vec<f64>) -> Samples {
        raw.sort_by(f64::total_cmp);
        Samples { sorted: raw }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The percentile at level `q` with its beyond-count.
    ///
    /// # Panics
    ///
    /// Panics when there are no samples.
    pub fn at(&self, q: f64) -> Percentile {
        assert!(!self.is_empty(), "percentile of no samples");
        let value = quantile(&self.sorted, q);
        let beyond = self.sorted.len() - self.sorted.partition_point(|x| *x <= value);
        Percentile { q, value, beyond }
    }

    /// The percentile at level `q` as report JSON: level, value (ms) and
    /// the number of samples beyond it.
    pub fn json(&self, q: f64) -> Value {
        let p = self.at(q);
        Value::obj(vec![
            ("q", Value::Num(q)),
            ("ms", Value::Num(p.value)),
            ("beyond", Value::from_u64(p.beyond as u64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_on_known_samples() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.len(), 100);
        assert_eq!(s.at(0.5).value, 50.0);
        assert_eq!(s.at(0.5).beyond, 50);
        assert_eq!(s.at(0.9).value, 90.0);
        assert_eq!(s.at(0.99).value, 99.0);
        assert_eq!(s.at(0.99).beyond, 1);
        assert_eq!(s.at(1.0).value, 100.0);
        assert_eq!(s.at(1.0).beyond, 0);
        assert_eq!(s.at(0.0).value, 1.0);
    }

    #[test]
    fn ties_are_not_counted_beyond() {
        let s = Samples::new(vec![5.0, 1.0, 5.0, 5.0, 9.0]);
        let p = s.at(0.5);
        assert_eq!(p.value, 5.0);
        assert_eq!(p.beyond, 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn calmest_takes_each_items_minimum_over_passes() {
        let passes = vec![vec![5.0, 1.0, 7.0], vec![4.0, 2.0, 9.0], vec![6.0]];
        assert_eq!(calmest(&passes), vec![4.0, 1.0, 7.0]);
        assert_eq!(calmest(&passes[..1]), passes[0]);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let s = Samples::new(vec![7.5]);
        assert_eq!(s.at(0.01).value, 7.5);
        assert_eq!(s.at(0.99).value, 7.5);
        assert_eq!(s.at(0.99).beyond, 0);
    }
}
