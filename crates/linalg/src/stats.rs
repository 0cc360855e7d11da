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
/// borrowed sample by [`chunked_quantiles`] — no copy, no sort.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN, or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let [v] = chunked_quantiles(std::iter::once(xs), [q]);
    v
}

/// The quantiles `qs` of the concatenation of `chunks`, each bit for bit
/// what [`select_quantiles`] reads from it, found by radix counting over
/// [`f64::total_cmp`] keys on the borrowed chunks: no copy, no heap, and
/// every quantile's ranks selected in the same passes.
///
/// `-0.0` and `+0.0` share one key; a rank that lands on a zero reads the
/// zero the stable sort would put there, found by counting zeros in input
/// order.
///
/// # Panics
///
/// As [`select_quantiles`]: if the chunks hold no sample or (with two or
/// more samples) a NaN, or any `q` is outside `[0, 1]`.
pub fn chunked_quantiles<'a, const N: usize>(
    chunks: impl Iterator<Item = &'a [f64]> + Clone,
    qs: [f64; N],
) -> [f64; N] {
    /// `total_cmp`'s order as an unsigned integer order, `-0.0` read as
    /// `+0.0`.
    fn key(x: &f64) -> u64 {
        let bits = match x.to_bits() {
            z if z == 1 << 63 => 0,
            bits => bits,
        };
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }
    let range = key_range(chunks.clone(), key);
    // NaNs are the keys outside the infinities'.
    let nan = range.1 < key(&f64::NEG_INFINITY) || range.2 > key(&f64::INFINITY);
    check_query(nan, range.0, &qs);
    let zero = key(&0.0);
    quantiles_at_keys(chunks.clone(), key, range, qs, |k, equal_below| {
        if k == zero {
            // The stable sort keeps zeros in input order.
            *chunks
                .clone()
                .flatten()
                .filter(|x| **x == 0.0)
                .nth(equal_below)
                .expect("a selected zero is in the sample")
        } else {
            f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
        }
    })
}

/// The quantiles `qs` of the elements of `chunks`, read through an
/// integer `key` of each and a `value` of the key, as [`chunked_quantiles`]
/// finds them. Bit for bit what [`select_quantiles`] reads from the values
/// of the concatenation when `value` is non-decreasing in the key and maps
/// equal keys to equal bits — e.g. whole microseconds read as seconds.
///
/// # Panics
///
/// Panics if the chunks hold no element or any `q` is outside `[0, 1]`.
pub fn chunked_quantiles_by_key<'a, T: 'a, const N: usize>(
    chunks: impl Iterator<Item = &'a [T]> + Clone,
    key: impl Fn(&T) -> u64,
    value: impl Fn(u64) -> f64,
    qs: [f64; N],
) -> [f64; N] {
    let range = key_range(chunks.clone(), &key);
    check_query(false, range.0, &qs);
    quantiles_at_keys(chunks, key, range, qs, |k, _| value(k))
}

/// Panics on a query a sort could not answer, in the order a sort meets
/// them: a NaN among two or more samples, an empty sample, a `q` outside
/// `[0, 1]`.
fn check_query(nan: bool, n: usize, qs: &[f64]) {
    // A sort of two or more samples compares each one, so it meets any NaN.
    assert!(!(nan && n > 1), "NaN in quantile input");
    assert!(n > 0, "quantile of an empty slice");
    assert!(
        qs.iter().all(|q| (0.0..=1.0).contains(q)),
        "q must be in [0, 1]"
    );
}

/// Checks a quantile query the way a sort would meet it ([`check_query`]).
/// Returns whether `xs` holds both `-0.0` and `+0.0`, which compare equal
/// but differ in their bits: only a stable sort knows which of them lands
/// at a rank.
fn check_sample(xs: &[f64], qs: &[f64]) -> bool {
    let (mut nan, mut pos_zero, mut neg_zero) = (false, false, false);
    for &x in xs {
        nan |= x.is_nan();
        pos_zero |= x == 0.0 && x.is_sign_positive();
        neg_zero |= x == 0.0 && x.is_sign_negative();
    }
    check_query(nan, xs.len(), qs);
    pos_zero && neg_zero
}

/// The number of elements of `chunks` and the least and greatest of their
/// keys.
fn key_range<'a, T: 'a>(
    chunks: impl Iterator<Item = &'a [T]>,
    key: impl Fn(&T) -> u64,
) -> (usize, u64, u64) {
    let (mut n, mut min, mut max) = (0, u64::MAX, 0);
    for chunk in chunks {
        n += chunk.len();
        for x in chunk {
            let k = key(x);
            min = min.min(k);
            max = max.max(k);
        }
    }
    (n, min, max)
}

/// The quantiles `qs` of a non-empty sample whose keys span `range`
/// ([`key_range`]), interpolated between the values `value(key,
/// equal_below)` of the order statistics [`select_ranks`] finds.
fn quantiles_at_keys<'a, T: 'a, const N: usize>(
    chunks: impl Iterator<Item = &'a [T]> + Clone,
    key: impl Fn(&T) -> u64,
    range: (usize, u64, u64),
    qs: [f64; N],
    value: impl Fn(u64, usize) -> f64,
) -> [f64; N] {
    let n = range.0;
    let ranks = qs.map(|q| {
        let (lo, hi, _) = rank_pos(n, q);
        [lo, hi]
    });
    let mut at = select_ranks(chunks, key, range, ranks).into_iter();
    qs.map(|q| {
        let [lo, hi] = at.next().expect("one selection per quantile");
        interpolate(n, q, value(lo.0, lo.1), value(hi.0, hi.1))
    })
}

/// The histogram one counting pass fills: 8 Ki counts (64 KiB), split
/// evenly among the key prefixes the pass refines.
const BUCKETS: usize = 1 << 13;

/// For each of `ranks`, the key at that rank of the keys of the elements
/// of `chunks` in ascending order, and how many keys equal to it rank
/// below it. `range` is the sample's [`key_range`]; the sample is not
/// empty.
///
/// Every bit above the highest one where the least and greatest keys
/// differ is common to all keys. Each pass then fixes the next digit of
/// every rank's key: it counts, for each distinct prefix fixed so far, how
/// many keys under that prefix carry each value of the digit, and moves
/// each rank into the bucket that holds it. A pass refining `g` prefixes
/// uses `log2(BUCKETS / g)`-bit digits. The passes stop once every bit is
/// fixed, or once every rank is the only key under its prefix, and then
/// one last pass reads those keys.
fn select_ranks<'a, T: 'a, const N: usize>(
    chunks: impl Iterator<Item = &'a [T]> + Clone,
    key: impl Fn(&T) -> u64,
    (n, min, max): (usize, u64, u64),
    ranks: [[usize; 2]; N],
) -> [[(u64, usize); 2]; N] {
    /// A rank being selected.
    #[derive(Clone, Copy)]
    struct Rank {
        /// Its rank among the `left` keys that share `prefix`.
        rank: usize,
        /// The key bits fixed so far; the rest are 0.
        prefix: u64,
        left: usize,
    }
    const { assert!(2 * N <= BUCKETS, "too many quantiles for one histogram") };
    let above = |low: u32| u64::MAX.checked_shl(low).unwrap_or(0);
    // Bits below `low` are still open.
    let mut low = u64::BITS - (min ^ max).leading_zeros();
    let mut sel = ranks.map(|pair| {
        pair.map(|rank| Rank {
            rank,
            prefix: min & above(low),
            left: n,
        })
    });
    let sel_flat = sel.as_flattened_mut();
    let mut prefixes = [[0u64; 2]; N];
    let prefixes = prefixes.as_flattened_mut();
    let mut hist = [0usize; BUCKETS];
    while low > 0 && sel_flat.iter().any(|s| s.left > 1) {
        let mut groups = 0;
        for s in sel_flat.iter() {
            if !prefixes[..groups].contains(&s.prefix) {
                prefixes[groups] = s.prefix;
                groups += 1;
            }
        }
        let prefixes = &prefixes[..groups];
        let bits = (BUCKETS / groups).ilog2().min(low);
        let (shift, mask) = (low - bits, above(low));
        let hist = &mut hist[..groups << bits];
        hist.fill(0);
        for chunk in chunks.clone() {
            for x in chunk {
                let k = key(x);
                if let Some(g) = prefixes.iter().position(|&p| p == k & mask) {
                    hist[g << bits | (k >> shift) as usize & ((1 << bits) - 1)] += 1;
                }
            }
        }
        for s in sel_flat.iter_mut() {
            let g = prefixes
                .iter()
                .position(|&p| p == s.prefix)
                .expect("a group per prefix");
            let counts = &hist[g << bits..(g + 1) << bits];
            let mut digit = 0;
            while s.rank >= counts[digit] {
                s.rank -= counts[digit];
                digit += 1;
            }
            s.prefix |= (digit as u64) << shift;
            s.left = counts[digit];
        }
        low = shift;
    }
    if low > 0 {
        // Each rank is the one key under its prefix.
        let mask = above(low);
        for chunk in chunks {
            for x in chunk {
                let k = key(x);
                for s in sel_flat.iter_mut().filter(|s| s.prefix & mask == k & mask) {
                    s.prefix = k;
                }
            }
        }
    }
    sel.map(|pair| pair.map(|s| (s.prefix, s.rank)))
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
    qs.map(|q| interpolate_ranked(xs, q))
}

/// The two ranks [`quantile_sorted`] interpolates between for `q` in a
/// sample of `n`, and the fractional position between them.
fn rank_pos(n: usize, q: f64) -> (usize, usize, f64) {
    let pos = q * (n - 1) as f64;
    (pos.floor() as usize, pos.ceil() as usize, pos)
}

/// Linear interpolation for `q` in a sample of `n` between the order
/// statistics at its two ranks ([`rank_pos`]).
fn interpolate(n: usize, q: f64, at_lo: f64, at_hi: f64) -> f64 {
    let (lo, hi, pos) = rank_pos(n, q);
    if lo == hi {
        at_lo
    } else {
        let w = pos - lo as f64;
        at_lo * (1.0 - w) + at_hi * w
    }
}

/// [`interpolate`] read from a slice where at least the two ranks of `q`
/// hold their values.
fn interpolate_ranked(ranked: &[f64], q: f64) -> f64 {
    let (lo, hi, _) = rank_pos(ranked.len(), q);
    interpolate(ranked.len(), q, ranked[lo], ranked[hi])
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
    interpolate_ranked(sorted, q)
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
