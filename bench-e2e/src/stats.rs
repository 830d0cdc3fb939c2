//! Order statistics and the comparison rule.
//!
//! Timings are summarised the way the choosing-metrics method asks: a
//! median plus the highest nearest-rank percentile that still has at
//! least [`TAIL_BEYOND`] samples beyond it. Run-to-run spread uses the
//! quartiles of Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so a spread computed here equals the one
//! Python computes from the same values.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples beyond it, as `(percentile, value)`; `None` when there are
/// too few samples for any. (The nearest-rank `p`th percentile is the
/// sample of rank `ceil(p/100 * n)`, so the highest usable rank is
/// `n - TAIL_BEYOND`.)
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    // Index by rank directly: going through `nearest_rank(p)` would
    // round-trip the rank through floating point.
    let rank = n - TAIL_BEYOND;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values).abs())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// True when `a` reads better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge runs of a change (`new`) against runs of its parent (`old`).
///
/// * improved: `new` wins at least nine tenths of the pairs (runs paired
///   in order, ties counting for neither) and the medians differ, in the
///   better direction, by more than the parent's interquartile range;
/// * unresolved: the parent's own spread is wider than the bound and
///   not every run of `new` reads better than every run of `old`;
/// * regressed: the median of `new` is worse than the parent's by more
///   than `bound` (a share of the parent's median);
/// * unchanged otherwise.
///
/// A metric without a bound can only be improved, regressed (by the
/// same pair rule in the other direction) or unchanged.
pub fn judge(old: &[f64], new: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let (m_old, m_new) = (median(old), median(new));
    let iqr = quartiles(old).map(|(q1, q3)| q3 - q1).unwrap_or(0.0);
    let pairs = old.len().min(new.len());
    let wins_of = |side: Better| {
        old.iter()
            .zip(new)
            .filter(|(o, n)| side.beats(**n, **o))
            .count()
    };
    let flip = match better {
        Better::Lower => Better::Higher,
        Better::Higher => Better::Lower,
    };
    let pair_rule = |side: Better| {
        pairs > 0 && wins_of(side) * 10 >= pairs * 9 && (m_new - m_old).abs() > iqr && {
            side.beats(m_new, m_old)
        }
    };
    if pair_rule(better) {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        return if pair_rule(flip) {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
    };
    let all_better = new.iter().all(|n| old.iter().all(|o| better.beats(*n, *o)));
    let spread = if m_old == 0.0 { 0.0 } else { iqr / m_old.abs() };
    if spread > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => m_new - m_old,
        Better::Higher => m_old - m_new,
    };
    if worse_by > bound * m_old.abs() {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook nearest-rank percentile, for checking [`tail`].
    fn nearest_rank(values: &[f64], p: f64) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
        v[rank.min(v.len()) - 1]
    }

    #[test]
    fn tail_is_the_nearest_rank_percentile_with_ten_beyond() {
        let forty: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let (p, value) = tail(&forty).unwrap();
        assert_eq!((p, value), (75.0, 30.0));
        assert_eq!(nearest_rank(&forty, p), value);
        assert_eq!(forty.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        // One more percent would leave fewer than ten beyond.
        assert_eq!(nearest_rank(&forty, p + 1.0), 31.0);
        let four_hundred: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&four_hundred), Some((97.5, 390.0)));
        assert_eq!(nearest_rank(&four_hundred, 97.5), 390.0);
        assert!(tail(&forty[..10]).is_none());
        assert_eq!(tail(&forty[..11]), Some((100.0 / 11.0, 30.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn judge_applies_the_pair_rule_and_bounds() {
        let old: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = old.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = old.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = old.iter().rev().copied().collect();
        assert_eq!(
            judge(&old, &faster, Better::Lower, Some(0.1)),
            Verdict::Improved
        );
        assert_eq!(
            judge(&old, &slower, Better::Lower, Some(0.1)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&old, &same, Better::Lower, Some(0.1)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&old, &slower, Better::Higher, Some(0.1)),
            Verdict::Improved
        );
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(
            judge(&noisy, &same, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&old, &slower, Better::Lower, None),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&[0.0; 10], &[0.0; 10], Better::Lower, Some(0.0)),
            Verdict::Unchanged
        );
    }
}
