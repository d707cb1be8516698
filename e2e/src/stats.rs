//! Order statistics and span self-time arithmetic.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The value at percentile `p` (0–100) of an ascending slice: the smallest
/// sample with at least `p` % of the samples at or below it. 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based rank of percentile `p` among `n > 0` samples, in integer
/// arithmetic on hundredths of a percent so 99.9 % of 10 000 is exactly
/// 9 990.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round().clamp(0.0, 10_000.0) as u128;
    let r = (hundredths * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n)
}

/// `v` in ascending order.
pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The median of an ascending slice, as a float (mean of the two middle
/// samples for even lengths). 0 when empty.
pub fn median_sorted(sorted: &[u64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2] as f64,
        _ => (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0,
    }
}

/// The median of unordered floats. 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples strictly beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|p| beyond(n, *p) >= MIN_BEYOND)
}

/// Samples of `n` that lie strictly beyond percentile `p` (as chosen by
/// [`percentile`]).
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// A span's self time: its duration minus the part of `[start, end)` that
/// the union of its children's intervals covers. Children may overlap each
/// other (parallel workers), nest inside one another, or stick out of the
/// parent (a batch finishing after its requester returned); only the
/// covered part inside the parent is subtracted. Sorts `children`.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    let total = end.saturating_sub(start);
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(start), e.min(end));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    total - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time(100, 250, &mut []), 150);
    }

    #[test]
    fn disjoint_children_are_both_subtracted() {
        assert_eq!(self_time(0, 100, &mut [(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn nested_children_count_once() {
        // (20, 30) lies inside (10, 60): the union is 50 long.
        assert_eq!(self_time(0, 100, &mut [(20, 30), (10, 60)]), 50);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two parallel workers overlapping on [40, 50).
        assert_eq!(self_time(0, 100, &mut [(10, 50), (40, 70)]), 40);
        // Touching intervals merge without a gap.
        assert_eq!(self_time(0, 100, &mut [(10, 40), (40, 70)]), 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // One child starts before the parent, one ends after it, one lies
        // entirely outside.
        assert_eq!(
            self_time(100, 200, &mut [(50, 120), (180, 260), (300, 400)]),
            60
        );
    }

    #[test]
    fn fully_covered_span_has_no_self_time() {
        assert_eq!(self_time(10, 20, &mut [(0, 15), (12, 30)]), 0);
    }

    #[test]
    fn percentile_picks_the_covering_sample() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        assert_eq!(tail_percentile(100), Some(90.0));
        // 999 samples: p99 leaves 9 beyond — not enough.
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn beyond_matches_percentile_rank() {
        let n = 1_000;
        let v: Vec<u64> = (0..n as u64).collect();
        for p in TAIL_CANDIDATES {
            let at = percentile(&v, p);
            let strictly_above = v.iter().filter(|&&x| x > at).count();
            assert_eq!(beyond(n, p), strictly_above, "p{p}");
        }
    }

    #[test]
    fn medians() {
        assert_eq!(median_sorted(&[1, 2, 3]), 2.0);
        assert_eq!(median_sorted(&[1, 2, 3, 4]), 2.5);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
