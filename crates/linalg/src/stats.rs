//! Scalar statistics: sample moments, quantiles, the standard normal
//! distribution, and the SMAPE forecasting metric used by Table 1.

/// Arithmetic mean. Returns 0 for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(aqua_linalg::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance. Returns 0 for fewer than two samples.
pub fn sample_var(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Unbiased sample standard deviation.
pub fn sample_std(xs: &[f64]) -> f64 {
    sample_var(xs).sqrt()
}

/// Empirical quantile with linear interpolation, `q ∈ [0, 1]`: bit for bit
/// what [`quantile_sorted`] reads from [`sorted`]`(xs)`, found on the
/// borrowed sample by radix counting over [`f64::total_cmp`] keys — no
/// copy, no sort.
///
/// A sample holding both `-0.0` and `+0.0` is read as
/// [`select_quantiles`] reads it, from a sorted copy.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN, or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if check_sample(xs, &[q]) {
        let [v] = select_quantiles(&mut xs.to_vec(), [q]);
        return v;
    }
    let (lo, hi, pos) = rank_pos(xs.len(), q);
    let (at_lo, above) = radix_select(xs, lo);
    if lo == hi {
        at_lo
    } else {
        let w = pos - lo as f64;
        at_lo * (1.0 - w) + above * w
    }
}

/// Checks a quantile query the way a sort would meet it, panicking on an
/// empty sample, a NaN among two or more samples, or a `q` outside
/// `[0, 1]`. Returns whether `xs` holds both `-0.0` and `+0.0`, which
/// compare equal but differ in their bits: only a stable sort knows which
/// of them lands at a rank.
fn check_sample(xs: &[f64], qs: &[f64]) -> bool {
    let (mut nan, mut pos_zero, mut neg_zero) = (false, false, false);
    for &x in xs {
        nan |= x.is_nan();
        pos_zero |= x == 0.0 && x.is_sign_positive();
        neg_zero |= x == 0.0 && x.is_sign_negative();
    }
    // A sort of two or more samples compares each one, so it meets any NaN.
    assert!(!(nan && xs.len() > 1), "NaN in quantile input");
    assert!(!xs.is_empty(), "quantile of an empty slice");
    assert!(
        qs.iter().all(|q| (0.0..=1.0).contains(q)),
        "q must be in [0, 1]"
    );
    pos_zero && neg_zero
}

/// The order statistic at `rank` of `xs` under [`f64::total_cmp`], and
/// the one at `rank + 1` (meaningless when `rank` is the last), read from
/// the borrowed slice with no allocation.
///
/// Each pass counts, among the samples whose key agrees with the bytes
/// fixed so far, how many carry each value of the next byte, and fixes the
/// byte whose bucket holds `rank` — eight 8-bit passes at most, over keys
/// that order like `total_cmp`. It stops early once one sample is left. A
/// last pass reads the sample(s) left and the least sample above them.
///
/// Under `total_cmp`, values that share a key share their bits, and it
/// orders like the comparison sort only where `-0.0` and `+0.0` do not
/// meet — the caller's job.
fn radix_select(xs: &[f64], rank: usize) -> (f64, f64) {
    /// `total_cmp`'s order as an unsigned integer order.
    fn key(x: f64) -> u64 {
        let bits = x.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }
    fn value(key: u64) -> f64 {
        f64::from_bits(if key >> 63 == 1 {
            key & !(1 << 63)
        } else {
            !key
        })
    }

    // `rank` among the `left` samples whose key has `prefix` under `mask`.
    let (mut prefix, mut mask, mut rank, mut left) = (0u64, 0u64, rank, xs.len());
    for shift in (0..64).step_by(8).rev() {
        if left == 1 {
            break;
        }
        let mut counts = [0usize; 256];
        for &x in xs {
            let k = key(x);
            if k & mask == prefix {
                counts[(k >> shift) as usize & 0xff] += 1;
            }
        }
        let mut byte = 0;
        while rank >= counts[byte] {
            rank -= counts[byte];
            byte += 1;
        }
        prefix |= (byte as u64) << shift;
        mask |= 0xff << shift;
        left = counts[byte];
    }
    // Every sample left shares the selected key once all eight bytes are
    // fixed; before that, exactly one is left.
    let (mut at, mut above) = (prefix, u64::MAX);
    for &x in xs {
        let k = key(x);
        if k & mask == prefix {
            at = k;
        } else if k & mask > prefix {
            above = above.min(k);
        }
    }
    if rank + 1 < left {
        above = at;
    }
    (value(at), value(above))
}

/// The quantiles `qs` of `xs`, each bit for bit what [`quantile_sorted`]
/// reads from [`sorted`]`(xs)`, from order statistics placed by
/// `select_nth_unstable` — O(n) per distinct rank instead of a sort.
/// Reorders `xs`.
///
/// Values that compare equal share their bits, so it cannot matter which
/// of them selection puts at a rank — except `-0.0` and `+0.0`, which
/// compare equal and where the stable sort keeps input order. A sample
/// holding both falls back to that sort.
///
/// # Panics
///
/// As [`quantile`]: if `xs` is empty or (with two or more samples) holds a
/// NaN, or any `q` is outside `[0, 1]`.
pub fn select_quantiles<const N: usize>(xs: &mut [f64], qs: [f64; N]) -> [f64; N] {
    if check_sample(xs, &qs) {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
        return qs.map(|q| quantile_sorted(xs, q));
    }
    let mut ranks = qs.map(|q| {
        let (lo, hi, _) = rank_pos(xs.len(), q);
        [lo, hi]
    });
    // Sorted pairs flatten to ascending ranks (`hi` is `lo` or `lo + 1`).
    ranks.sort_unstable();
    // Each selection runs on what lies above the previous rank, so it
    // leaves that rank's order statistic in place.
    let mut from = 0;
    for r in ranks.into_iter().flatten() {
        if r >= from {
            xs[from..].select_nth_unstable_by(r - from, f64::total_cmp);
            from = r + 1;
        }
    }
    qs.map(|q| interpolate(xs, q))
}

/// The two ranks [`quantile_sorted`] interpolates between for `q` in a
/// sample of `n`, and the fractional position between them.
fn rank_pos(n: usize, q: f64) -> (usize, usize, f64) {
    let pos = q * (n - 1) as f64;
    (pos.floor() as usize, pos.ceil() as usize, pos)
}

/// Linear interpolation between the order statistics at the ranks of `q`,
/// read from a slice where at least those two ranks hold their values.
fn interpolate(ranked: &[f64], q: f64) -> f64 {
    let (lo, hi, pos) = rank_pos(ranked.len(), q);
    if lo == hi {
        ranked[lo]
    } else {
        let w = pos - lo as f64;
        ranked[lo] * (1.0 - w) + ranked[hi] * w
    }
}

/// Ascending copy of `xs`, the order [`quantile_sorted`] interpolates over.
///
/// # Panics
///
/// Panics if `xs` holds a NaN.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    sorted
}

/// [`quantile`] of a sample already in [`sorted`] order.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty slice");
    assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    interpolate(sorted, q)
}

/// Standard normal probability density function.
pub fn normal_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution function.
///
/// Uses the complementary-error-function relation with an Abramowitz &
/// Stegun 7.1.26-style rational approximation (|error| < 1.5e-7), more than
/// enough for acquisition-function arithmetic.
pub fn normal_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * x.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let tail = normal_pdf(x.abs()) * poly;
    if x >= 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

/// Standard normal quantile (inverse CDF) via the Acklam approximation,
/// refined with one Newton step. `p` must lie strictly inside `(0, 1)`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    let x = if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Newton refinement against the accurate CDF.
    let e = normal_cdf(x) - p;
    x - e / normal_pdf(x).max(1e-300)
}

/// Symmetric Mean Absolute Percentage Error, as used by the paper's Table 1.
///
/// `SMAPE = mean( |f - a| / ((|a| + |f|) / 2) )`, reported as a fraction in
/// `[0, 2]`. Pairs where both values are zero contribute zero error.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
///
/// # Examples
///
/// ```
/// let err = aqua_linalg::smape(&[100.0, 100.0], &[100.0, 100.0]);
/// assert_eq!(err, 0.0);
/// ```
pub fn smape(actual: &[f64], forecast: &[f64]) -> f64 {
    assert_eq!(actual.len(), forecast.len(), "length mismatch");
    assert!(!actual.is_empty(), "SMAPE of empty series");
    let total: f64 = actual
        .iter()
        .zip(forecast)
        .map(|(a, f)| {
            let denom = (a.abs() + f.abs()) / 2.0;
            if denom == 0.0 {
                0.0
            } else {
                (f - a).abs() / denom
            }
        })
        .sum();
    total / actual.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_var_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((sample_var(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((sample_std(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(sample_var(&[3.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    /// The pre-split `quantile`, sort and interpolation in one body.
    fn quantile_oracle(xs: &[f64], q: f64) -> f64 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        if lo == hi {
            sorted[lo]
        } else {
            let w = pos - lo as f64;
            sorted[lo] * (1.0 - w) + sorted[hi] * w
        }
    }

    #[test]
    fn quantile_sorted_reads_what_quantile_reads() {
        for n in [1usize, 2, 3, 1_000] {
            // Awkward mantissas with duplicates (values repeat every 7).
            let xs: Vec<f64> = (0..n)
                .map(|i| ((i % 7) as f64 * 1.37).sin() * 3.0 + (i / 7 % 3) as f64 * 0.1)
                .collect();
            let once = sorted(&xs);
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                let want = quantile_oracle(&xs, q).to_bits();
                assert_eq!(quantile(&xs, q).to_bits(), want, "n={n} q={q}");
                assert_eq!(quantile_sorted(&once, q).to_bits(), want, "n={n} q={q}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN in quantile input")]
    fn quantile_rejects_nan() {
        quantile(&[1.0, f64::NAN, 0.5], 0.5);
    }

    #[test]
    fn normal_cdf_key_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-6, "p={p} x={x}");
        }
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Trapezoid over [-8, 8].
        let n = 4_000;
        let h = 16.0 / n as f64;
        let integral: f64 = (0..=n)
            .map(|i| {
                let x = -8.0 + i as f64 * h;
                let w = if i == 0 || i == n { 0.5 } else { 1.0 };
                w * normal_pdf(x)
            })
            .sum::<f64>()
            * h;
        assert!((integral - 1.0).abs() < 1e-6);
    }

    #[test]
    fn smape_basics() {
        assert_eq!(smape(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        // Forecast double the actual: |2-1| / 1.5 = 2/3.
        assert!((smape(&[1.0], &[2.0]) - 2.0 / 3.0).abs() < 1e-12);
        // Symmetric in its arguments.
        assert_eq!(smape(&[1.0], &[2.0]), smape(&[2.0], &[1.0]));
    }

    proptest! {
        /// CDF is monotone non-decreasing.
        #[test]
        fn prop_cdf_monotone(a in -6.0f64..6.0, b in -6.0f64..6.0) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
        }

        /// SMAPE is bounded by 2 and zero only for identical series.
        #[test]
        fn prop_smape_bounds(xs in prop::collection::vec(0.0f64..100.0, 1..50),
                             ys in prop::collection::vec(0.0f64..100.0, 1..50)) {
            let n = xs.len().min(ys.len());
            let s = smape(&xs[..n], &ys[..n]);
            prop_assert!((0.0..=2.0 + 1e-12).contains(&s));
            let self_err = smape(&xs[..n], &xs[..n]);
            prop_assert!(self_err.abs() < 1e-12);
        }

        /// Quantile output lies within data range.
        #[test]
        fn prop_quantile_in_range(xs in prop::collection::vec(-50.0f64..50.0, 1..40),
                                  q in 0.0f64..=1.0) {
            let v = quantile(&xs, q);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }
    }
}
