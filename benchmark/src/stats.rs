//! Order statistics over latency samples.

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Rank (0-based) of the `p`-th percentile of `n` sorted samples, nearest
/// rank: the smallest sample with at least `p` of the samples at or below.
pub fn percentile_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile (`p` in `0..=1`); NaN for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    v[percentile_rank(v.len(), p)]
}

/// Median with the midpoint rule for even counts; NaN for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method) — the driver computes spreads with that function, so `compare`
/// must agree with it. One value yields itself three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The highest percentile `n` samples support with at least ten samples
/// beyond it (0 when there are too few).
pub fn supported_percentile(n: usize) -> f64 {
    if n <= 10 {
        0.0
    } else {
        1.0 - 10.0 / n as f64
    }
}

/// Where a percentile lands among op classes.
#[derive(Debug, Clone, PartialEq)]
pub struct Landing {
    /// The class whose share of the ops, in latency order, holds the
    /// percentile.
    pub class: usize,
    /// Percentile points between the percentile and the nearer neighbouring
    /// class (100 when there is no other class).
    pub margin_points: f64,
}

/// Finds the class a percentile lands in. `samples` are `(class, latency)`.
/// Classes are ranked by their median latency and each takes as many ranks
/// as it has ops; the percentile lands in the class whose ranks hold it. A
/// class boundary close to the percentile would let it flip between two
/// latency modes from run to run, so the distance to the nearer boundary is
/// reported with it. Decided by op counts and by the order of the class
/// medians, not by single latencies: ops a busy host delays into a costlier
/// class's range move neither.
pub fn landing(samples: &[(usize, f64)], p: f64) -> Option<Landing> {
    if samples.is_empty() {
        return None;
    }
    let classes = samples.iter().map(|s| s.0).max()? + 1;
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); classes];
    for &(class, latency) in samples {
        latencies[class].push(latency);
    }
    let mut ranked: Vec<(f64, usize, usize)> = latencies
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(class, v)| (median(v), class, v.len()))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (at, n) = (100.0 * p, samples.len() as f64);
    let mut below = 0usize;
    for (i, &(_, class, count)) in ranked.iter().enumerate() {
        let (lo, hi) = (100.0 * below as f64 / n, 100.0 * (below + count) as f64 / n);
        below += count;
        if at < hi || i + 1 == ranked.len() {
            let to_cheaper = if i > 0 { at - lo } else { 100.0 };
            let to_costlier = if i + 1 < ranked.len() { hi - at } else { 100.0 };
            return Some(Landing { class, margin_points: to_cheaper.min(to_costlier) });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Order of arrival does not matter.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&shuffled, 0.5), 3.0);
        assert_eq!(percentile(&shuffled, 0.95), 5.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_takes_the_midpoint_of_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]), [15.0, 30.0, 45.0]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile(10), 0.0);
        assert_eq!(supported_percentile(200), 0.95);
        assert_eq!(supported_percentile(1000), 0.99);
    }

    #[test]
    fn landing_names_the_class_and_its_margin() {
        // 60 fast ops of class 0, 25 of class 1, 15 slow ones of class 2,
        // given out of latency order.
        let mut samples = Vec::new();
        samples.extend((0..15).map(|i| (2usize, 9.0 + f64::from(i) * 0.001)));
        samples.extend((0..60).map(|i| (0usize, 1.0 + f64::from(i) * 0.001)));
        samples.extend((0..25).map(|i| (1usize, 5.0 + f64::from(i) * 0.001)));
        // Class 0 holds ranks 0–60 %: p50 is 10 points from class 1.
        let p50 = landing(&samples, 0.50).expect("samples");
        assert_eq!((p50.class, p50.margin_points), (0, 10.0));
        // Class 1 holds 60–85 %: p70 is 10 points from class 0, 15 from class 2.
        let p70 = landing(&samples, 0.70).expect("samples");
        assert_eq!((p70.class, p70.margin_points), (1, 10.0));
        // Class 2 holds the top 15 %: p95 is 10 points from class 1, and the
        // top of the order is no boundary.
        let p95 = landing(&samples, 0.95).expect("samples");
        assert_eq!((p95.class, p95.margin_points), (2, 10.0));
        assert_eq!(landing(&samples, 1.0).expect("samples").class, 2);
        assert_eq!(landing(&[], 0.5), None);
        assert_eq!(landing(&[(0, 1.0), (0, 2.0)], 0.5).expect("samples").margin_points, 100.0);
    }

    #[test]
    fn stragglers_do_not_move_the_landing_but_a_boundary_at_the_percentile_does() {
        // Class 0 holds the fast 80 %, class 1 the slow 20 %, and six ops of
        // class 0 were delayed past all of class 1.
        let mut samples: Vec<(usize, f64)> =
            (0..74).map(|i| (0, 1.0 + f64::from(i) * 0.001)).collect();
        samples.extend((0..20).map(|i| (1usize, 9.0 + f64::from(i) * 0.01)));
        samples.extend((0..6).map(|i| (0usize, 20.0 + f64::from(i))));
        let p95 = landing(&samples, 0.95).expect("samples");
        assert_eq!((p95.class, p95.margin_points), (1, 15.0));
        // Two classes of equal size: the median sits on their boundary.
        let halves: Vec<(usize, f64)> = (0..100).map(|i| (i / 50, f64::from(i as u32))).collect();
        assert_eq!(landing(&halves, 0.5).expect("samples").margin_points, 0.0);
    }
}
