//! Order statistics over benchmark samples.

use std::collections::BTreeMap;

/// Exact tally of integer samples: value -> occurrences.
pub type Tally = BTreeMap<u64, u64>;

/// Median of `values` (the mean of the two middle values for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Adds one sample to a tally.
pub fn record(tally: &mut Tally, value: u64) {
    *tally.entry(value).or_insert(0) += 1;
}

/// Samples in a tally.
pub fn count(tally: &Tally) -> u64 {
    tally.values().sum()
}

/// Parzen's mid-distribution quantile of a tally; 0 when empty.
///
/// Each distinct value `v` sits at the mid-point of its probability
/// mass, `P(X < v) + P(X = v) / 2`, and the quantile interpolates
/// linearly between neighbouring values. With all samples distinct this
/// is the usual interpolated quantile; with ties (modeled cycle counts
/// repeat exactly) it still moves with the mass on each tied value,
/// where a plain order statistic would stick to one value.
pub fn mid_quantile(tally: &Tally, q: f64) -> f64 {
    let n = count(tally) as f64;
    if n == 0.0 {
        return 0.0;
    }
    let mut below = 0u64;
    let mut prev: Option<(f64, f64)> = None;
    for (&value, &c) in tally {
        let mid = (below as f64 + c as f64 / 2.0) / n;
        below += c;
        let v = value as f64;
        if q <= mid {
            return match prev {
                None => v,
                Some((pv, pmid)) => pv + (q - pmid) / (mid - pmid) * (v - pv),
            };
        }
        prev = Some((v, mid));
    }
    prev.map_or(0.0, |(v, _)| v)
}

/// Ratio that reads 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(values: &[u64]) -> Tally {
        let mut t = Tally::new();
        for &v in values {
            record(&mut t, v);
        }
        t
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn distinct_samples_give_the_interpolated_quantile() {
        // Mid-points of 1..=4 sit at 1/8, 3/8, 5/8, 7/8.
        let t = tally(&[1, 2, 3, 4]);
        assert_eq!(mid_quantile(&t, 0.5), 2.5);
        assert_eq!(mid_quantile(&t, 0.125), 1.0);
        assert_eq!(mid_quantile(&t, 0.99), 4.0);
        assert_eq!(mid_quantile(&t, 0.0), 1.0);
    }

    #[test]
    fn tied_samples_move_the_quantile_with_their_mass() {
        let light = tally(&[10, 10, 10, 20, 20]);
        let heavy = tally(&[10, 10, 20, 20, 20]);
        let (a, b) = (mid_quantile(&light, 0.5), mid_quantile(&heavy, 0.5));
        assert!(a > 10.0 && a < 20.0 && b > a, "{a} {b}");
    }
}
