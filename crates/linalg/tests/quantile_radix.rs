//! `quantile` reads its order statistics from the borrowed sample by radix
//! counting over `total_cmp` keys. The oracle is the full stable sort,
//! `quantile_sorted(&sorted(xs), q)`, and the two must agree bit for bit:
//! on duplicates, negatives, infinities and subnormals, on samples of one to
//! three values and of more than 10⁵, and at `q = 0`, `q = 1` and the
//! quantiles that land on (or a rounding away from) a rank. A sample with
//! both zeros reads the stable sort's zeros, and the panics stay the sort's.
//!
//! `quantile` is the one-slice call of `chunked_quantiles`, which selects
//! over a sequence of borrowed slices. Over random chunkings — empty and
//! one-element chunks, chunk edges at the selected ranks — it must read
//! what `select_quantiles` reads from the concatenation, bit for bit, and
//! panic where and as that does; `chunked_quantiles_by_key` likewise over
//! integer keys read through a monotone value.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aqua_linalg::{
    chunked_quantiles, chunked_quantiles_by_key, quantile, quantile_sorted, select_quantiles,
    sorted,
};
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

/// `xs` cut at the prefix sums of `sizes` and at each of `edges` (clamped
/// to the sample): a repeated cut makes an empty chunk, and the cut at 0
/// always leads with one.
fn chunked<'a>(xs: &'a [f64], sizes: &[usize], edges: &[usize]) -> Vec<&'a [f64]> {
    let mut cuts = vec![0, 0];
    let mut at = 0;
    for &size in sizes {
        at = (at + size).min(xs.len());
        cuts.push(at);
    }
    cuts.extend(edges.iter().map(|&e| e.min(xs.len())));
    cuts.push(xs.len());
    cuts.sort_unstable();
    cuts.windows(2).map(|w| &xs[w[0]..w[1]]).collect()
}

/// Each rank `select_quantiles` reads for `qs` in a sample of `n`, and
/// the one after it: cutting there puts a chunk edge at every selected
/// rank of a sorted sample.
fn rank_edges(n: usize, qs: &[f64]) -> Vec<usize> {
    qs.iter()
        .filter(|q| n > 0 && (0.0..=1.0).contains(*q))
        .flat_map(|q| {
            let pos = q * (n - 1) as f64;
            [pos.floor() as usize, pos.ceil() as usize + 1]
        })
        .collect()
}

/// The quantiles' bits, or the panic's message.
fn outcome(f: impl FnOnce() -> [f64; 6]) -> Result<[u64; 6], String> {
    catch_unwind(AssertUnwindSafe(f))
        .map(|v| v.map(f64::to_bits))
        .map_err(|e| match e.downcast::<&str>() {
            Ok(msg) => msg.to_string(),
            Err(e) => *e.downcast::<String>().expect("a panic message"),
        })
}

/// `chunked_quantiles` over `chunks` against `select_quantiles` over their
/// concatenation, at `q = 0`, `q = 1`, the summary's quantiles and `q`.
fn check_chunked(chunks: &[&[f64]], q: f64) {
    let qs = [0.0, 0.5, 0.9, 0.99, 1.0, q];
    let whole = chunks.concat();
    let want = outcome(|| select_quantiles(&mut whole.clone(), qs));
    let got = outcome(|| chunked_quantiles(chunks.iter().copied(), qs));
    assert_eq!(got, want, "chunks={chunks:?}");
}

/// Sizes that favour empty and one-element chunks.
fn sizes() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(
        (0usize..10).prop_map(|r| if r < 6 { r % 2 } else { r * 3 }),
        0..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn chunked_samples_read_the_concatenations_bits(
        xs in prop::collection::vec(value(), 0..200),
        sizes in sizes(),
        sort in 0u8..2,
        q in 0.0f64..=1.0,
    ) {
        let mut xs = xs;
        if sort == 1 {
            xs = sorted(&xs);
        }
        let edges = rank_edges(xs.len(), &[0.0, 0.5, 0.9, 0.99, 1.0, q]);
        check_chunked(&chunked(&xs, &sizes, &edges), q);
        check_chunked(&chunked(&xs, &sizes, &[]), q);
    }

    /// Every rank lands in one run of equal keys: all bits get fixed.
    #[test]
    fn chunked_samples_of_one_value_read_its_bits(
        x in value(),
        n in 1usize..100,
        sizes in sizes(),
        q in 0.0f64..=1.0,
    ) {
        let xs = vec![x; n];
        check_chunked(&chunked(&xs, &sizes, &[]), q);
    }

    /// Both zeros, wherever the chunk edges fall: a rank on a zero reads
    /// the zero the stable sort puts there.
    #[test]
    fn chunked_samples_with_both_zeros_read_the_sorts_zeros(
        signs in prop::collection::vec(0u8..4, 1..60),
        sizes in sizes(),
        q in 0.0f64..=1.0,
    ) {
        let xs: Vec<f64> = signs
            .iter()
            .map(|s| [0.0, -0.0, -1.0, 5e-324][*s as usize])
            .collect();
        check_chunked(&chunked(&xs, &sizes, &[]), q);
    }

    /// A NaN among two or more samples, an empty sample and a `q` outside
    /// `[0, 1]` panic as `select_quantiles` panics; one NaN alone reads as
    /// itself.
    #[test]
    fn chunked_samples_panic_as_the_concatenation_does(
        xs in prop::collection::vec(value(), 0..6),
        nan_at in 0usize..12,
        sizes in sizes(),
        q in -0.5f64..1.5,
    ) {
        let mut xs = xs;
        if nan_at < 6 {
            xs.insert(nan_at.min(xs.len()), f64::NAN);
        }
        check_chunked(&chunked(&xs, &sizes, &[]), q);
    }

    /// Whole microseconds read as seconds, the live plane's latencies.
    #[test]
    fn keyed_chunks_read_the_bits_of_their_values(
        keys in prop::collection::vec(
            (0u64..u64::MAX).prop_map(|r| match r % 3 {
                0 => r / 3 % 40,
                1 => r >> 24,
                _ => r,
            }),
            1..200,
        ),
        sizes in sizes(),
        q in 0.0f64..=1.0,
    ) {
        let value = |us: u64| us as f64 / 1e6;
        let qs = [0.0, 0.5, 0.9, 0.99, 1.0, q];
        let mut values: Vec<f64> = keys.iter().map(|&k| value(k)).collect();
        let want = select_quantiles(&mut values, qs).map(f64::to_bits);
        let mut at = 0;
        let mut chunks: Vec<&[u64]> = vec![&[]];
        for size in sizes {
            let end = (at + size).min(keys.len());
            chunks.push(&keys[at..end]);
            at = end;
        }
        chunks.push(&keys[at..]);
        let got = chunked_quantiles_by_key(chunks.iter().copied(), |&k| k, value, qs);
        prop_assert_eq!(got.map(f64::to_bits), want);
    }
}
