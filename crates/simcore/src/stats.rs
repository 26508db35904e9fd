//! Online statistics for simulation measurements.
//!
//! Benchmark harnesses record one sample per operation; the paper
//! reports *average time per operation*, so [`Summary`] keeps exact
//! mean/min/max plus Welford variance, and retains the raw samples so
//! quantiles can be computed after the run.

use crate::time::SimDuration;
use std::collections::BTreeMap;
use std::fmt;

/// Raw samples in recording order, 4 bytes each while every sample fits
/// in `u32` nanoseconds (under 4.29 s), 8 bytes each from the first
/// sample that does not.
#[derive(Debug, Clone)]
enum Store {
    Narrow(Vec<u32>),
    Wide(Vec<SimDuration>),
}

impl Store {
    fn len(&self) -> usize {
        match self {
            Store::Narrow(v) => v.len(),
            Store::Wide(v) => v.len(),
        }
    }

    fn push(&mut self, d: SimDuration) {
        match self {
            Store::Narrow(v) => match u32::try_from(d.as_nanos()) {
                Ok(ns) => v.push(ns),
                Err(_) => {
                    self.widen();
                    self.push(d);
                }
            },
            Store::Wide(v) => v.push(d),
        }
    }

    /// Switches to 8-byte storage, keeping every sample and its order.
    fn widen(&mut self) {
        if let Store::Narrow(v) = self {
            let wide = v
                .iter()
                .map(|&ns| SimDuration::from_nanos(u64::from(ns)))
                .collect();
            *self = Store::Wide(wide);
        }
    }
}

/// A borrowed view of a [`Summary`]'s raw samples, in recording order.
///
/// Two views are equal when they hold the same samples in the same
/// order, whichever width either summary stores them at.
#[derive(Clone, Copy)]
pub enum Samples<'a> {
    /// Samples stored as `u32` nanoseconds.
    Narrow(&'a [u32]),
    /// Samples stored as [`SimDuration`]s.
    Wide(&'a [SimDuration]),
}

impl<'a> Samples<'a> {
    /// Number of samples.
    pub fn len(&self) -> usize {
        match self {
            Samples::Narrow(v) => v.len(),
            Samples::Wide(v) => v.len(),
        }
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The samples in recording order.
    pub fn iter(&self) -> impl Iterator<Item = SimDuration> + 'a {
        // One of the two slices is empty; chaining them gives both
        // widths one iterator type.
        let (narrow, wide): (&'a [u32], &'a [SimDuration]) = match *self {
            Samples::Narrow(v) => (v, &[]),
            Samples::Wide(v) => (&[], v),
        };
        narrow
            .iter()
            .map(|&ns| SimDuration::from_nanos(u64::from(ns)))
            .chain(wide.iter().copied())
    }
}

impl PartialEq for Samples<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Samples::Narrow(a), Samples::Narrow(b)) => a == b,
            (Samples::Wide(a), Samples::Wide(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl fmt::Debug for Samples<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A collection of duration samples with summary statistics.
///
/// Samples are kept losslessly at 4 bytes each while every one fits in
/// `u32` nanoseconds, i.e. is under 4.29 s. The first sample that does
/// not fit widens the store once to 8-byte [`SimDuration`]s, and it
/// stays wide. The width never shows in results: [`Summary::samples`]
/// returns the same durations in the same order either way.
///
/// # Examples
///
/// ```
/// use simcore::stats::Summary;
/// use simcore::time::SimDuration;
///
/// let mut s = Summary::new("create");
/// s.record(SimDuration::from_millis(2));
/// s.record(SimDuration::from_millis(4));
/// assert_eq!(s.mean().as_millis(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Summary {
    name: String,
    samples: Store,
    sum_ns: u128,
    min: SimDuration,
    max: SimDuration,
    mean_ns: f64,
    m2: f64,
}

impl Summary {
    /// Creates an empty summary with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Summary {
            name: name.into(),
            samples: Store::Narrow(Vec::new()),
            sum_ns: 0,
            min: SimDuration::from_nanos(u64::MAX),
            max: SimDuration::ZERO,
            mean_ns: 0.0,
            m2: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
        self.sum_ns += d.as_nanos() as u128;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
        let n = self.samples.len() as f64;
        let x = d.as_nanos() as f64;
        let delta = x - self.mean_ns;
        self.mean_ns += delta / n;
        self.m2 += delta * (x - self.mean_ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Arithmetic mean (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.is_empty() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.count() as u128) as u64)
        }
    }

    /// Mean in milliseconds as a float — the unit of the paper's figures.
    pub fn mean_millis(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.mean_ns / 1e6
        }
    }

    /// Smallest sample (zero when empty).
    pub fn min(&self) -> SimDuration {
        if self.is_empty() {
            SimDuration::ZERO
        } else {
            self.min
        }
    }

    /// Largest sample (zero when empty).
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(self.sum_ns.min(u64::MAX as u128) as u64)
    }

    /// Sample standard deviation (zero with fewer than two samples).
    pub fn std_dev_millis(&self) -> f64 {
        if self.count() < 2 {
            0.0
        } else {
            (self.m2 / (self.count() - 1) as f64).sqrt() / 1e6
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on sorted samples.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile must be within [0, 1]");
        if self.is_empty() {
            return SimDuration::ZERO;
        }
        let rank = ((q * (self.count() - 1) as f64).round()) as usize;
        match &self.samples {
            Store::Narrow(v) => {
                let mut sorted = v.clone();
                sorted.sort_unstable();
                SimDuration::from_nanos(u64::from(sorted[rank]))
            }
            Store::Wide(v) => {
                let mut sorted = v.clone();
                sorted.sort_unstable();
                sorted[rank]
            }
        }
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All raw samples, in recording order.
    pub fn samples(&self) -> Samples<'_> {
        match &self.samples {
            Store::Narrow(v) => Samples::Narrow(v),
            Store::Wide(v) => Samples::Wide(v),
        }
    }

    /// Merges another summary's samples into this one.
    pub fn merge(&mut self, other: &Summary) {
        for s in other.samples().iter() {
            self.record(s);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} mean={:.3}ms min={} max={}",
            self.name,
            self.count(),
            self.mean_millis(),
            self.min(),
            self.max()
        )
    }
}

/// A named bag of counters for protocol-level events (token revocations,
/// cache misses, flushes, …). Keys are static strings so recording is
/// allocation-free after first use of each key.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    counts: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// Creates an empty counter bag.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to counter `key`.
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
    }

    /// Increments counter `key` by one.
    pub fn bump(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Current value of counter `key` (zero if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }

    /// Resets every counter to zero (removes all keys).
    pub fn reset(&mut self) {
        self.counts.clear();
    }

    /// Merges another bag into this one by summing matching keys.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in self.iter() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        if first {
            write!(f, "(no counters)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = Summary::new("x");
        assert!(s.is_empty());
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.min(), SimDuration::ZERO);
        assert_eq!(s.max(), SimDuration::ZERO);
        assert_eq!(s.mean_millis(), 0.0);
        assert_eq!(s.quantile(0.5), SimDuration::ZERO);
    }

    #[test]
    fn mean_min_max() {
        let mut s = Summary::new("x");
        for v in [1, 2, 3, 4, 5] {
            s.record(ms(v));
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), ms(3));
        assert_eq!(s.min(), ms(1));
        assert_eq!(s.max(), ms(5));
        assert_eq!(s.total(), ms(15));
        assert!((s.mean_millis() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles() {
        let mut s = Summary::new("x");
        for v in 1..=100 {
            s.record(ms(v));
        }
        assert_eq!(s.quantile(0.0), ms(1));
        assert_eq!(s.quantile(1.0), ms(100));
        let median = s.quantile(0.5).as_millis();
        assert!((49..=51).contains(&median));
    }

    #[test]
    fn std_dev() {
        let mut s = Summary::new("x");
        for v in [2, 4, 4, 4, 5, 5, 7, 9] {
            s.record(ms(v));
        }
        // Known dataset: population sd = 2; sample sd ≈ 2.138.
        assert!((s.std_dev_millis() - 2.138).abs() < 0.01);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Summary::new("a");
        a.record(ms(1));
        let mut b = Summary::new("b");
        b.record(ms(3));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), ms(2));
    }

    /// Every statistic of `s` equals the same statistic computed
    /// directly from the plain sample list `reference`.
    fn assert_matches_reference(s: &Summary, reference: &[SimDuration]) {
        assert_eq!(s.samples().iter().collect::<Vec<_>>(), reference);
        assert_eq!(s.samples().len(), reference.len());
        let n = reference.len() as u64;
        let total: u64 = reference.iter().map(|d| d.as_nanos()).sum();
        assert_eq!(s.total(), SimDuration::from_nanos(total));
        assert_eq!(s.mean(), SimDuration::from_nanos(total / n));
        assert_eq!(s.min(), *reference.iter().min().unwrap());
        assert_eq!(s.max(), *reference.iter().max().unwrap());
        let mut sorted = reference.to_vec();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let rank = ((q * (sorted.len() - 1) as f64).round()) as usize;
            assert_eq!(s.quantile(q), sorted[rank], "q={q}");
        }
        let mean = total as f64 / n as f64;
        let sd = if n < 2 {
            0.0
        } else {
            let ss: f64 = reference
                .iter()
                .map(|d| (d.as_nanos() as f64 - mean).powi(2))
                .sum();
            (ss / (n - 1) as f64).sqrt() / 1e6
        };
        assert!(
            (s.std_dev_millis() - sd).abs() <= 1e-9 * sd.max(1.0),
            "std dev {} vs {sd}",
            s.std_dev_millis()
        );
    }

    #[test]
    fn storage_is_lossless_across_the_u32_boundary() {
        let limit = u64::from(u32::MAX);
        let mut s = Summary::new("x");
        let mut reference = Vec::new();
        for (ns, narrow_after) in [
            (7, true),
            (limit - 1, true),
            (0, true),
            (limit, true),
            (limit + 1, false),
            (3, false),
            (u64::from(u32::MAX) * 5, false),
            (limit, false),
        ] {
            let d = SimDuration::from_nanos(ns);
            s.record(d);
            reference.push(d);
            assert_eq!(
                matches!(s.samples(), Samples::Narrow(_)),
                narrow_after,
                "after recording {ns} ns"
            );
            assert_matches_reference(&s, &reference);
        }
    }

    #[test]
    fn narrow_and_widened_summaries_with_equal_samples_compare_equal() {
        let mut narrow = Summary::new("n");
        for v in [3, 1, 2, 2] {
            narrow.record(ms(v));
        }
        let mut wide = narrow.clone();
        wide.samples.widen();
        assert!(matches!(narrow.samples(), Samples::Narrow(_)));
        assert!(matches!(wide.samples(), Samples::Wide(_)));
        assert_eq!(narrow.samples(), wide.samples());
        assert_eq!(wide.samples(), narrow.samples());
        assert_eq!(
            format!("{:?}", narrow.samples()),
            format!("{:?}", wide.samples())
        );
        // Same multiset, different order: not equal.
        let mut reordered = Summary::new("r");
        for v in [1, 2, 2, 3] {
            reordered.record(ms(v));
        }
        reordered.samples.widen();
        assert_ne!(narrow.samples(), reordered.samples());
        assert_eq!(narrow.quantile(0.5), wide.quantile(0.5));
    }

    #[test]
    fn merging_a_wide_summary_into_a_narrow_one_widens() {
        let mut narrow = Summary::new("n");
        narrow.record(ms(1));
        narrow.record(ms(2));
        let mut wide = Summary::new("w");
        wide.record(SimDuration::from_secs(5));
        wide.record(ms(4));
        assert!(matches!(wide.samples(), Samples::Wide(_)));
        narrow.merge(&wide);
        assert!(matches!(narrow.samples(), Samples::Wide(_)));
        assert_matches_reference(&narrow, &[ms(1), ms(2), SimDuration::from_secs(5), ms(4)]);
    }

    #[test]
    fn display_contains_name_and_count() {
        let mut s = Summary::new("stat");
        s.record(ms(2));
        let text = s.to_string();
        assert!(text.contains("stat"));
        assert!(text.contains("n=1"));
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn quantile_out_of_range_panics() {
        Summary::new("x").quantile(1.5);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut c = Counters::new();
        c.bump("revocations");
        c.add("revocations", 2);
        c.bump("misses");
        assert_eq!(c.get("revocations"), 3);
        assert_eq!(c.get("misses"), 1);
        assert_eq!(c.get("unknown"), 0);
        let mut d = Counters::new();
        d.add("misses", 4);
        c.merge(&d);
        assert_eq!(c.get("misses"), 5);
        assert_eq!(c.iter().count(), 2);
        c.reset();
        assert_eq!(c.get("revocations"), 0);
        assert_eq!(c.to_string(), "(no counters)");
    }
}
