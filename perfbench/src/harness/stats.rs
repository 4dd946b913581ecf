//! Order statistics over latency samples, the per-op floor over passes,
//! and the mode-boundary guard.

/// One timed operation: which class the generator tagged it with, and
/// how long the single public call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Index into the workload's class table.
    pub class: u8,
    /// Latency in nanoseconds.
    pub ns: u64,
}

/// Half-width of the rank window the mode-boundary guard inspects, as a
/// share of the sample count.
pub const GUARD_WINDOW: f64 = 0.02;

/// 1-based nearest-rank position of percentile `p` (0–100) among `n`
/// sorted samples.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// The `p`-th percentile of an ascending slice, by the nearest-rank
/// method.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The `q`-quantile (`q` in 0–1) of `values`, linearly interpolated
/// between the two nearest order statistics.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are not NaN"));
    let position = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = (below + 1).min(v.len() - 1);
    v[below] + (v[above] - v[below]) * (position - below as f64)
}

/// The median of `values` (mean of the two middle values for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The fastest sample seen at each position of one fixed op sequence,
/// over every repeat of it.
///
/// Every pass issues the same ops from the same state, so the `i`-th
/// sample of every pass times the same computation, and what differs
/// between passes is what the host added. On the builder's host that is
/// 0–40 % for minutes at a time: a median over passes follows it (the
/// same code read 247 and 380 ops/s ten minutes apart), the fastest
/// repeat of each op does not (1–2 % between runs, and unchanged with a
/// competing process taking a fifth of the CPU in 2 ms bursts).
#[derive(Debug, Default)]
pub struct Floor {
    samples: Vec<Sample>,
}

impl Floor {
    /// Folds one repeat in. `false` — and nothing folded — when its
    /// class sequence is not that of the repeats before it.
    pub fn fold(&mut self, repeat: &[Sample]) -> bool {
        if self.samples.is_empty() {
            self.samples = repeat.to_vec();
            return true;
        }
        let same_ops = self.samples.len() == repeat.len()
            && self
                .samples
                .iter()
                .zip(repeat)
                .all(|(a, b)| a.class == b.class);
        if same_ops {
            for (best, new) in self.samples.iter_mut().zip(repeat) {
                best.ns = best.ns.min(new.ns);
            }
        }
        same_ops
    }

    /// The fastest sample per op, in issue order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The sum of the fastest samples, in seconds.
    pub fn total_s(&self) -> f64 {
        self.samples.iter().map(|s| s.ns).sum::<u64>() as f64 / 1e9
    }
}

/// The noise band of a metric over passes: `(max − min) / median`.
pub fn band(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (max - min) / med
    }
}

/// A latency percentile together with the guard's verdict on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardedPercentile {
    /// The percentile value in nanoseconds.
    pub ns: u64,
    /// `Some((own, other))`: among the samples at ranks
    /// `p ± GUARD_WINDOW`, too many carry a class other than the window's
    /// most common one (`other` is the first such class met), so a shift
    /// of a few ranks moves the percentile from one op class to another —
    /// the value is an artefact of the mix, not a latency.
    pub straddles: Option<(u8, u8)>,
}

/// The `p`-th percentile of `samples` plus the mode-boundary guard: of
/// the samples whose rank lies within `GUARD_WINDOW` of the percentile's
/// rank, at most a tenth (and always at least one, so that a single
/// pre-empted op of another class cannot fail a run) may carry a class
/// other than the window's most common one. A class boundary anywhere within
/// about 1.6 % of the percentile's rank trips it.
///
/// # Panics
/// Panics on an empty sample.
pub fn guarded_percentile(samples: &[Sample], p: f64) -> GuardedPercentile {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    // Ties are ordered by class so the verdict is a function of the
    // multiset of samples, not of their arrival order.
    sorted.sort_unstable_by_key(|s| (s.ns, s.class));
    let n = sorted.len();
    let at = rank(n, p);
    let lo = rank(n, (p - 100.0 * GUARD_WINDOW).max(0.0));
    let hi = rank(n, (p + 100.0 * GUARD_WINDOW).min(100.0));
    let window = &sorted[lo - 1..hi];
    let mut counts = [0usize; 256];
    for s in window {
        counts[s.class as usize] += 1;
    }
    let (own, own_count) = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(class, &c)| (class as u8, c))
        .expect("256 classes");
    let allowed = (window.len() / 10).max(1);
    let straddles = (window.len() - own_count > allowed).then(|| {
        let other = window
            .iter()
            .find(|s| s.class != own)
            .expect("strays exist")
            .class;
        (own, other)
    });
    GuardedPercentile {
        ns: sorted[at - 1].ns,
        straddles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_class(fast: usize, slow: usize) -> Vec<Sample> {
        let mut v: Vec<Sample> = (0..fast)
            .map(|i| Sample {
                class: 0,
                ns: 100 + i as u64,
            })
            .collect();
        v.extend((0..slow).map(|i| Sample {
            class: 1,
            ns: 5_000_000 + i as u64,
        }));
        v
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50);
        assert_eq!(percentile_sorted(&sorted, 95.0), 95);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 50.0), 7);
    }

    #[test]
    fn median_and_band() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((band(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn the_floor_keeps_the_fastest_repeat_of_each_op() {
        let repeat = |ns: [u64; 3]| {
            [0u8, 1, 0]
                .iter()
                .zip(ns)
                .map(|(&class, ns)| Sample { class, ns })
                .collect::<Vec<_>>()
        };
        let mut floor = Floor::default();
        assert!(floor.fold(&repeat([30, 500, 10])));
        assert!(floor.fold(&repeat([20, 900, 40])));
        assert_eq!(floor.samples(), repeat([20, 500, 10]).as_slice());
        assert_eq!(floor.total_s(), 530e-9);
        // Another op sequence is refused and changes nothing.
        assert!(!floor.fold(&repeat([1, 1, 1])[..2]));
        let mut other = repeat([1, 1, 1]);
        other[1].class = 0;
        assert!(!floor.fold(&other));
        assert_eq!(floor.total_s(), 530e-9);
    }

    #[test]
    fn a_median_on_the_class_boundary_is_unstable() {
        // PR 11's failure: two op classes split exactly at the median.
        let samples = two_class(500, 500);
        let p50 = guarded_percentile(&samples, 50.0);
        assert_eq!(p50.straddles, Some((0, 1)));
        // The same mix read well inside either class is fine.
        assert_eq!(guarded_percentile(&samples, 25.0).straddles, None);
        assert_eq!(guarded_percentile(&samples, 95.0).straddles, None);
    }

    #[test]
    fn a_percentile_inside_one_class_is_stable() {
        let samples = two_class(900, 100);
        let p50 = guarded_percentile(&samples, 50.0);
        assert_eq!(p50.straddles, None);
        assert_eq!(p50.ns, 100 + 499);
        // 88–92 % straddles the 90 % split.
        assert!(guarded_percentile(&samples, 90.0).straddles.is_some());
    }

    #[test]
    fn one_stray_sample_in_the_window_is_tolerated() {
        // 1,000 fast ops, one of them pre-empted into the slow class's
        // range: it sorts into the p95 window of the 10 % slow class.
        let mut samples = two_class(899, 100);
        samples.push(Sample {
            class: 0,
            ns: 5_000_050,
        });
        assert_eq!(guarded_percentile(&samples, 95.0).straddles, None);
    }

    #[test]
    fn the_verdict_ignores_arrival_order() {
        let mut samples = two_class(500, 500);
        samples.reverse();
        assert_eq!(
            guarded_percentile(&samples, 50.0).straddles,
            Some((0, 1)),
            "sorted by latency, the boundary is where it was"
        );
    }
}
