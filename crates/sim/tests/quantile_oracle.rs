//! `quantile` and `LatencySummary::of` read their percentiles from order
//! statistics placed by selection. The oracle is the full stable sort they
//! replaced, `quantile_sorted(&sorted(xs), q)`, and the two must agree bit
//! for bit: on samples full of duplicates, on samples holding `-0.0` and
//! `+0.0` (equal under comparison, different in their bits), on single
//! samples and at `q = 0` and `q = 1`. Both must refuse a NaN the way the
//! sort did.

use aqua_linalg::{quantile, quantile_sorted, select_quantiles, sorted};
use aqua_sim::LatencySummary;
use proptest::prelude::*;

/// A few values, so samples repeat them; both zeros are among them.
const VALUES: [f64; 8] = [-0.0, 0.0, 0.25, 0.1 + 0.2, 1.0, -3.5, 7.0e-3, 2.0];

/// Draws from [`VALUES`]; with `signed_zeros` false every `-0.0` becomes
/// `+0.0`, so selection (not the sort fallback) reads the sample.
fn sample(max_len: usize, signed_zeros: bool) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0usize..VALUES.len(), 1..max_len).prop_map(move |ix| {
        ix.into_iter()
            .map(|i| match VALUES[i] {
                z if z == 0.0 && !signed_zeros => 0.0,
                v => v,
            })
            .collect()
    })
}

fn oracle(xs: &[f64], q: f64) -> u64 {
    quantile_sorted(&sorted(xs), q).to_bits()
}

fn check(xs: &[f64], q: f64) {
    let qs = [0.0, q, 0.5, 0.9, 0.99, 1.0];
    for q in qs {
        assert_eq!(quantile(xs, q).to_bits(), oracle(xs, q), "q={q} xs={xs:?}");
    }
    let got = select_quantiles(&mut xs.to_vec(), qs);
    for (g, q) in got.iter().zip(qs) {
        assert_eq!(g.to_bits(), oracle(xs, q), "select q={q} xs={xs:?}");
    }
    let s = LatencySummary::of(xs);
    let want = [oracle(xs, 0.5), oracle(xs, 0.9), oracle(xs, 0.99)];
    assert_eq!(
        [s.p50.to_bits(), s.p90.to_bits(), s.p99.to_bits()],
        want,
        "summary xs={xs:?}"
    );
    assert_eq!(s.mean.to_bits(), aqua_linalg::mean(xs).to_bits());
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(s.max.to_bits(), max.to_bits());
    assert_eq!(s.count, xs.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn selection_reads_the_sorted_bits(xs in sample(40, false), q in 0.0f64..=1.0) {
        check(&xs, q);
    }

    #[test]
    fn signed_zeros_read_the_stable_sort_bits(xs in sample(24, true), q in 0.0f64..=1.0) {
        check(&xs, q);
    }

    /// Long samples: the selections recurse instead of insertion-sorting.
    #[test]
    fn long_samples_read_the_sorted_bits(xs in sample(3000, false), q in 0.0f64..=1.0) {
        check(&xs, q);
    }
}

#[test]
fn one_sample_and_the_ends_of_the_range() {
    for v in VALUES {
        check(&[v], 0.5);
    }
    // One NaN sample is never compared, by the sort or by selection.
    assert_eq!(
        quantile(&[f64::NAN], 0.5).to_bits(),
        oracle(&[f64::NAN], 0.5)
    );
    check(&[0.0, -0.0], 0.5);
    check(&[-0.0, 0.0, -0.0], 0.5);
}

#[test]
#[should_panic(expected = "NaN in quantile input")]
fn quantile_refuses_nan() {
    quantile(&[1.0, 2.0, f64::NAN, 0.5], 0.5);
}

#[test]
#[should_panic(expected = "NaN in quantile input")]
fn summary_refuses_nan() {
    LatencySummary::of(&[f64::NAN, 1.0]);
}

#[test]
#[should_panic(expected = "NaN in quantile input")]
fn the_oracle_refuses_nan_too() {
    sorted(&[1.0, f64::NAN]);
}
