//! Order statistics for the harness: percentiles of latency samples, the
//! rule for which tail percentile a sample count supports, and the quartile
//! spread used for noise characterisation.

/// Sort a sample set ascending (NaNs cannot occur: samples are durations).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The `p`-th percentile (0..=100) of an ascending sample set, by linear
/// interpolation between closest ranks. Empty input reads as 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it: a tail estimate resting on fewer is mostly noise.
pub fn supported_tail(n: usize) -> f64 {
    // (percentile, one sample in this many lies beyond it)
    [(99.9, 1000), (99.0, 100), (90.0, 10)]
        .into_iter()
        .find(|&(_, one_in)| n / one_in >= 10)
        .map_or(50.0, |(p, _)| p)
}

/// Windows a timed phase is cut into for the burst-tolerant estimators below.
pub const WINDOWS: usize = 5;

/// Which of `windows` equal slices of `[0, span)` the instant `t` falls in.
fn window_of(t: f64, span: f64, windows: usize) -> usize {
    ((t / span * windows as f64) as usize).min(windows - 1)
}

/// The 90th percentile as the median, over equal time windows, of each
/// window's own 90th percentile. A tail read off the whole phase is set by
/// whichever burst of outside interference hit it; the median window is not,
/// as long as the bursts leave half the windows alone. `samples` are
/// `(instant, value)`; with fewer than ten samples per window the plain
/// percentile is all the data supports.
pub fn windowed_p90(samples: &[(f64, f64)], span: f64, windows: usize) -> f64 {
    let mut by_window = vec![Vec::new(); windows];
    for &(t, v) in samples {
        by_window[window_of(t, span, windows)].push(v);
    }
    if span <= 0.0 || by_window.iter().any(|w| w.len() < 10) {
        return percentile(&sorted(samples.iter().map(|s| s.1).collect()), 90.0);
    }
    let tails: Vec<f64> = by_window
        .into_iter()
        .map(|w| percentile(&sorted(w), 90.0))
        .collect();
    median(&tails)
}

/// Work per second as the median, over equal time windows, of the work
/// completed in each window. `events` are `(instant, amount)`.
pub fn windowed_rate(events: &[(f64, f64)], span: f64, windows: usize) -> f64 {
    if span <= 0.0 {
        return 0.0;
    }
    let mut done = vec![0.0; windows];
    for &(t, amount) in events {
        done[window_of(t, span, windows)] += amount;
    }
    let width = span / windows as f64;
    median(&done.iter().map(|d| d / width).collect::<Vec<_>>())
}

/// First quartile, median and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what the
/// acceptance driver uses for run-to-run spread.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        let x = data.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(5), 50.0);
        assert_eq!(supported_tail(99), 50.0);
        assert_eq!(supported_tail(100), 90.0);
        assert_eq!(supported_tail(999), 90.0);
        assert_eq!(supported_tail(1000), 99.0);
        assert_eq!(supported_tail(9_999), 99.0);
        assert_eq!(supported_tail(10_000), 99.9);
    }

    #[test]
    fn percentile_interpolates() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert!((percentile(&s, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn windowed_estimators_shrug_off_a_burst() {
        // 100 samples over 10 s, value 1.0, except one second-long burst of 9.0
        let samples: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let t = i as f64 / 10.0;
                (t, if (4.0..5.0).contains(&t) { 9.0 } else { 1.0 })
            })
            .collect();
        // the plain p90 sits on the edge of the burst; the windowed one ignores it
        let plain = percentile(&sorted(samples.iter().map(|s| s.1).collect()), 90.0);
        assert!(plain > 1.0);
        assert_eq!(windowed_p90(&samples, 10.0, 5), 1.0);
        // too few samples per window: falls back to the plain percentile
        assert_eq!(windowed_p90(&samples[..40], 4.0, 5), 1.0);

        // ten events a second, except a stalled fifth second
        let events: Vec<(f64, f64)> = (0..100)
            .map(|i| i as f64 / 10.0)
            .filter(|t| !(4.0..5.0).contains(t))
            .map(|t| (t, 1.0))
            .collect();
        assert_eq!(windowed_rate(&events, 10.0, 5), 10.0);
        assert_eq!(windowed_rate(&[], 0.0, 5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
