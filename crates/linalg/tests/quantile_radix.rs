//! `quantile` reads its order statistics from the borrowed sample by radix
//! counting over `total_cmp` keys. The oracle is the full stable sort,
//! `quantile_sorted(&sorted(xs), q)`, and the two must agree bit for bit:
//! on duplicates, negatives, infinities and subnormals, on samples of one to
//! three values and of more than 10⁵, and at `q = 0`, `q = 1` and the
//! quantiles that land on (or a rounding away from) a rank. A sample with
//! both zeros takes the sorted-copy path, and the panics stay the sort's.

use aqua_linalg::{quantile, quantile_sorted, sorted};
use proptest::prelude::*;

/// Values that stress the key transform and the interpolation: both
/// infinities, subnormals of either sign, the extremes of the finite range,
/// and ordinary values close together. `+0.0` is the only zero.
const SPECIAL: [f64; 14] = [
    f64::NEG_INFINITY,
    f64::INFINITY,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 2.0,
    -f64::MIN_POSITIVE / 3.0,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    0.0,
    -1.0,
    1.0,
    0.1 + 0.2,
    0.3,
];

/// A value: a special one, or a small integer scaled to repeat often, or
/// any finite `f64` bit pattern.
fn value() -> impl Strategy<Value = f64> {
    (0u64..u64::MAX).prop_map(|r| match r % 4 {
        0 => SPECIAL[(r / 4 % SPECIAL.len() as u64) as usize],
        1 => (r / 4 % 17) as f64 * 0.25 - 2.0,
        _ => match f64::from_bits(r) {
            x if x.is_nan() || x == 0.0 => -2.5,
            x => x,
        },
    })
}

/// `q = 0`, `q = 1`, `q`, and for each of a few ranks `k` the quantile
/// `k / (n - 1)` and its two neighbouring floats.
fn queries(n: usize, q: f64) -> Vec<f64> {
    let mut qs = vec![0.0, 1.0, q];
    if n > 1 {
        for k in [1, n / 2, n - 2] {
            let edge = k as f64 / (n - 1) as f64;
            qs.extend([edge, f64::from_bits(edge.to_bits() + 1)]);
            if edge > 0.0 {
                qs.push(f64::from_bits(edge.to_bits() - 1));
            }
        }
    }
    qs.retain(|q| (0.0..=1.0).contains(q));
    qs
}

fn check(xs: &[f64], q: f64) {
    let once = sorted(xs);
    for q in queries(xs.len(), q) {
        let want = quantile_sorted(&once, q).to_bits();
        assert_eq!(quantile(xs, q).to_bits(), want, "n={} q={q}", xs.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn short_samples_read_the_sorted_bits(
        xs in prop::collection::vec(value(), 1..=3),
        q in 0.0f64..=1.0,
    ) {
        check(&xs, q);
    }

    #[test]
    fn samples_read_the_sorted_bits(
        xs in prop::collection::vec(value(), 1..300),
        q in 0.0f64..=1.0,
    ) {
        check(&xs, q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Long samples run every counting pass over many candidates.
    #[test]
    fn long_samples_read_the_sorted_bits(
        xs in prop::collection::vec(value(), 100_000..120_000),
        q in 0.0f64..=1.0,
    ) {
        check(&xs, q);
    }
}

#[test]
fn long_samples_of_few_distinct_values_read_the_sorted_bits() {
    // Every rank sits in a long run of equal keys, so all eight passes run
    // and the neighbour rank is often the same value.
    let xs: Vec<f64> = (0..150_000u64)
        .map(|i| SPECIAL[(i * 7 % 13) as usize] * ((i % 3) as f64 - 1.0))
        .map(|x| if x == 0.0 || x.is_nan() { 1.5 } else { x })
        .collect();
    check(&xs, 0.99);
}

#[test]
fn both_zeros_take_the_stable_sort_path() {
    for xs in [
        vec![0.0, -0.0],
        vec![-0.0, 0.0],
        vec![1.0, -0.0, 0.0, -1.0, -0.0],
    ] {
        check(&xs, 0.5);
    }
}

#[test]
fn one_nan_sample_is_never_compared() {
    assert!(quantile(&[f64::NAN], 0.5).is_nan());
}

#[test]
#[should_panic(expected = "NaN in quantile input")]
fn nan_among_two_panics() {
    quantile(&[1.0, f64::NAN], 0.5);
}

#[test]
#[should_panic(expected = "quantile of an empty slice")]
fn empty_sample_panics() {
    quantile(&[], 0.5);
}

#[test]
#[should_panic(expected = "q must be in [0, 1]")]
fn q_above_one_panics() {
    quantile(&[1.0, 2.0], 1.5);
}
