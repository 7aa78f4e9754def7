//! Small statistics helpers shared by the journey, the reports and `--aa`.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample by
/// construction, so an empty input is a bug in the benchmark.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value a quarter of the way up the sorted `values`: the estimate of
/// what a step takes when the host leaves it alone. Other tenants of the box
/// only ever add time — a step's samples have a floor and a tail of
/// +20–80 % — and half the samples of a run can sit in that tail, which
/// moves the median but not the lower quartile.
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 4]
}

/// Nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the usual ladder that still has at least ten
/// samples beyond it in a sample of `n` (choosing-metrics §1). `50.0` when
/// even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // Per mille, so that "ten samples beyond" is exact integer arithmetic.
    const LADDER: [usize; 5] = [999, 990, 950, 900, 500];
    let p = LADDER.into_iter().find(|p| n * (1000 - p) >= 10_000);
    p.unwrap_or(500) as f64 / 10.0
}

/// By how large a share of `base` the value `new` is worse, given the
/// metric's direction; negative when it is better.
pub fn worse_share(base: f64, new: f64, higher_is_better: bool) -> f64 {
    if base == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (new - base) / base.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// One recorded interval with the index of the interval that caused it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the parent interval, if any.
    pub parent: Option<usize>,
}

/// Self time per interval: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(ps, pe), s.end_ns.clamp(ps, pe));
            children[p].push((a, b));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Send offsets (nanoseconds from the start of the window) of an open loop
/// issuing `n` requests at `rate` per second: slot `k` is due at `k / rate`.
/// The schedule never looks at completions.
pub fn open_schedule(rate: f64, n: usize) -> Vec<u64> {
    assert!(rate > 0.0, "open loop needs a rate");
    (0..n).map(|k| (k as f64 * 1e9 / rate) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn lower_quartile_ignores_the_slow_tail() {
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 1.0);
        let v = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0];
        assert_eq!(lower_quartile(&v), 3.0);
        // Five of nine samples disturbed: the median moves, the quartile stays.
        let disturbed = [1.0, 1.1, 1.2, 1.3, 9.0, 9.0, 9.0, 9.0, 9.0];
        assert_eq!(lower_quartile(&disturbed), 1.2);
        assert_eq!(median(&disturbed), 9.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(10), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn worse_share_respects_direction() {
        assert!((worse_share(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worse_share(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worse_share(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worse_share(0.0, 0.0, false), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let iv = |start_ns, end_ns, parent| Interval {
            start_ns,
            end_ns,
            parent,
        };
        let spans = [
            iv(0, 100, None),     // root
            iv(10, 40, Some(0)),  // child a
            iv(30, 60, Some(0)),  // child b overlaps a by 10
            iv(35, 38, Some(2)),  // grandchild of root, child of b
            iv(90, 120, Some(0)), // child running past its parent: clamped
        ];
        // root: 100 - (10..60 = 50) - (90..100 = 10) = 40
        assert_eq!(self_times(&spans), vec![40, 30, 27, 3, 30]);
        // Without overlap or overrun, self times add up to the root.
        let clean = [iv(0, 100, None), iv(10, 40, Some(0)), iv(50, 60, Some(0))];
        assert_eq!(self_times(&clean).iter().sum::<u64>(), 100);
    }

    #[test]
    fn open_schedule_is_fixed() {
        assert_eq!(
            open_schedule(1000.0, 4),
            vec![0, 1_000_000, 2_000_000, 3_000_000]
        );
        let s = open_schedule(333.0, 1000);
        assert_eq!(s.len(), 1000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }
}
