//! Deterministic, branch-free transcendentals for the NN hot paths.
//!
//! The engine's contract is *bit-identity* across batch sizes and with the
//! per-vector reference in `tests/batched_equiv.rs`, so every loop must
//! evaluate exactly the same activation function per element. `libm`'s
//! `tanh`/`exp` satisfy that but are opaque scalar calls the compiler can
//! neither inline nor vectorize — and the gate activations dominate the
//! rollout profile once the matrix products run through the blocked GEMM
//! kernels. This module supplies the one implementation every caller uses:
//!
//! * **Deterministic**: pure IEEE-754 `mul`/`add`/`div`/`floor`/`min`/
//!   `max` plus exponent-bit assembly — every operation is exactly
//!   rounded, so scalar and SIMD instantiations produce identical bits
//!   on every platform.
//! * **Branch-free**: range handling via `clamp`, never `if`, so the
//!   slice variants auto-vectorize (and are re-instantiated under
//!   `avx512f` and `avx2`, picked in that order by a runtime check, like
//!   the GEMM kernels; FMA stays off, so lane width cannot change
//!   results).
//! * **NN-grade accuracy**: `exp` is a degree-13 Taylor kernel after
//!   two-part Cody–Waite reduction — relative error ≲ 1e-15, absolute
//!   error of `tanh`/`sigmoid` ≲ 4e-15. The composed forms differ from
//!   `libm` in the last bits; everything downstream of the models is
//!   threshold-based, and the golden-trace runs never reach a trained
//!   model, so the swap is behavior-safe (verified by the tier-1 suite).

use std::f64::consts::LOG2_E;

/// High bits of `ln 2` (Cody–Waite split; exact in 32 mantissa bits).
const LN2_HI: f64 = 6.931_457_519_531_25e-1;
/// Low-order remainder `ln 2 − LN2_HI`.
const LN2_LO: f64 = 1.428_606_820_309_417_2e-6;

const C2: f64 = 1.0 / 2.0;
const C3: f64 = 1.0 / 6.0;
const C4: f64 = 1.0 / 24.0;
const C5: f64 = 1.0 / 120.0;
const C6: f64 = 1.0 / 720.0;
const C7: f64 = 1.0 / 5_040.0;
const C8: f64 = 1.0 / 40_320.0;
const C9: f64 = 1.0 / 362_880.0;
const C10: f64 = 1.0 / 3_628_800.0;
const C11: f64 = 1.0 / 39_916_800.0;
const C12: f64 = 1.0 / 479_001_600.0;
const C13: f64 = 1.0 / 6_227_020_800.0;

/// `e^x` with inputs clamped to ±708 (past which the true value under-
/// or overflows f64 anyway). Exactly the kernel used by [`sigmoid`] and
/// [`tanh`]; NaN propagates.
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    let x = x.clamp(-708.0, 708.0);
    // Reduce: x = k·ln2 + r with |r| ≤ ½·ln2, in two parts so r keeps
    // full precision.
    let kf = (x * LOG2_E + 0.5).floor();
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    // Degree-13 Taylor of e^r, Estrin-evaluated: short dependency
    // chains the CPU pipelines and the vectorizer likes, one fixed
    // summation order so every call site agrees bitwise.
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let p01 = 1.0 + r;
    let p23 = C2 + C3 * r;
    let p45 = C4 + C5 * r;
    let p67 = C6 + C7 * r;
    let p89 = C8 + C9 * r;
    let p1011 = C10 + C11 * r;
    let p1213 = C12 + C13 * r;
    let a = p01 + p23 * r2;
    let b = p45 + p67 * r2;
    let c = p89 + p1011 * r2;
    let poly = a + b * r4 + (c + p1213 * r4) * r8;
    // 2^k via direct exponent assembly. `kf + 1023` is a small integer
    // (k ∈ [-1022, 1023] after the clamp above), extracted branch-free
    // with the 2^52 trick: adding 2^52 parks the integer in the low
    // mantissa bits, exactly — no float→int cast, so the loop stays
    // vectorizable.
    let biased = (kf + 1023.0) + 4_503_599_627_370_496.0; // + 2^52
    let scale = f64::from_bits((biased.to_bits() & 0x7FF) << 52);
    poly * scale
}

/// Logistic sigmoid `1 / (1 + e^{-x})`, saturating cleanly at both ends.
#[inline(always)]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + exp(-x))
}

/// `tanh x = (e^{2x} − 1) / (e^{2x} + 1)`. Inputs are clamped to ±22,
/// beyond which the quotient rounds to exactly ±1.0 (as true `tanh`
/// does in f64).
#[inline(always)]
pub fn tanh(x: f64) -> f64 {
    let e = exp(2.0 * x.clamp(-22.0, 22.0));
    (e - 1.0) / (e + 1.0)
}

macro_rules! slice_map {
    ($(#[$doc:meta])* $name:ident, $portable:ident, $avx2:ident, $avx512:ident, $f:ident) => {
        $(#[$doc])*
        pub fn $name(xs: &mut [f64]) {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: AVX-512F availability was just checked.
                    unsafe { $avx512(xs) };
                    return;
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 availability was just checked.
                    unsafe { $avx2(xs) };
                    return;
                }
            }
            $portable(xs);
        }

        #[inline(always)]
        fn $portable(xs: &mut [f64]) {
            for v in xs.iter_mut() {
                *v = $f(*v);
            }
        }

        /// AVX2 re-instantiation: wider IEEE lanes, identical bits.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn $avx2(xs: &mut [f64]) {
            $portable(xs);
        }

        /// AVX-512 re-instantiation: widest IEEE lanes, identical bits.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        unsafe fn $avx512(xs: &mut [f64]) {
            $portable(xs);
        }
    };
}

slice_map!(
    /// Applies [`sigmoid`] to every element in place, vectorized.
    sigmoid_mut,
    sigmoid_mut_portable,
    sigmoid_mut_avx2,
    sigmoid_mut_avx512,
    sigmoid
);
slice_map!(
    /// Applies [`tanh`] to every element in place, vectorized.
    tanh_mut,
    tanh_mut_portable,
    tanh_mut_avx2,
    tanh_mut_avx512,
    tanh
);

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(lo: f64, hi: f64, n: usize) -> impl Iterator<Item = f64> {
        (0..=n).map(move |i| lo + (hi - lo) * i as f64 / n as f64)
    }

    #[test]
    fn exp_matches_libm_closely() {
        for x in sweep(-700.0, 700.0, 20_000) {
            let got = exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-13, "exp({x}): got {got}, want {want}");
        }
    }

    #[test]
    fn tanh_matches_libm_closely() {
        for x in sweep(-30.0, 30.0, 50_000) {
            let got = tanh(x);
            let want = x.tanh();
            assert!(
                (got - want).abs() < 5e-14,
                "tanh({x}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn sigmoid_matches_reference_closely() {
        for x in sweep(-50.0, 50.0, 50_000) {
            let got = sigmoid(x);
            let want = 1.0 / (1.0 + (-x).exp());
            assert!((got - want).abs() < 5e-14, "sigmoid({x})");
        }
    }

    #[test]
    fn saturation_is_exact() {
        assert_eq!(tanh(25.0), 1.0);
        assert_eq!(tanh(-25.0), -1.0);
        assert_eq!(tanh(1e300), 1.0);
        assert_eq!(sigmoid(1e300), 1.0);
        assert!(sigmoid(-1e300) >= 0.0);
        assert!(sigmoid(-1e300) < 1e-300);
        assert_eq!(tanh(0.0), 0.0);
        assert_eq!(sigmoid(0.0), 0.5);
    }

    #[test]
    fn nan_propagates() {
        assert!(exp(f64::NAN).is_nan());
        assert!(tanh(f64::NAN).is_nan());
        assert!(sigmoid(f64::NAN).is_nan());
    }

    #[test]
    fn slice_forms_match_scalar_bitwise() {
        let xs: Vec<f64> = sweep(-25.0, 25.0, 1_000).collect();
        let mut t = xs.clone();
        tanh_mut(&mut t);
        let mut s = xs.clone();
        sigmoid_mut(&mut s);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(t[i].to_bits(), tanh(x).to_bits(), "tanh lane {i}");
            assert_eq!(s[i].to_bits(), sigmoid(x).to_bits(), "sigmoid lane {i}");
        }
    }
}
