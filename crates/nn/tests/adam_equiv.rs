//! `Adam::step` against the scalar loop it replaced, bit for bit.
//!
//! `aqua_nn::adam` has one implementation, a private slice kernel. This
//! file keeps the loop every golden trace was recorded under as the oracle
//! and asserts the optimizer leg of the contract (DESIGN.md "BNN engine &
//! bit-identity contract") with `to_bits`: [`Adam::step`] leaves the
//! oracle's weights for every block length the compiler's vector body and
//! scalar tail can split, also for gradients that are NaN, infinite,
//! signed zeros, subnormal or sit on the clip boundary.

use aqua_nn::{Adam, Parameterized};

const LR: f64 = 1.5e-3;

/// The scalars of one step, as the pre-kernel `Adam::step` derived them.
struct StepScalars {
    clip: Option<f64>,
    wd: f64,
    bc1: f64,
    bc2: f64,
}

/// The scalars at step `t` (1-based) from the optimizer's defaults.
fn scalars(t: u64, clip: Option<f64>, wd: f64) -> StepScalars {
    StepScalars {
        clip,
        wd,
        bc1: 1.0 - 0.9f64.powf(t as f64),
        bc2: 1.0 - 0.999f64.powf(t as f64),
    }
}

/// The pre-kernel `Adam::step` closure body, verbatim.
fn oracle(k: &StepScalars, w: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64]) {
    let (lr, beta1, beta2, eps, clip, wd) = (LR, 0.9, 0.999, 1e-8, k.clip, k.wd);
    let (bc1, bc2) = (k.bc1, k.bc2);
    for i in 0..w.len() {
        let mut grad = g[i];
        if let Some(c) = clip {
            grad = grad.clamp(-c, c);
        }
        m[i] = beta1 * m[i] + (1.0 - beta1) * grad;
        v[i] = beta2 * v[i] + (1.0 - beta2) * grad * grad;
        let mhat = m[i] / bc1;
        let vhat = v[i] / bc2;
        w[i] -= lr * (mhat / (vhat.sqrt() + eps) + wd * w[i]);
    }
}

/// Values every lane position must survive: non-finite, signed zeros,
/// subnormals, and the clip boundary from both sides.
const SPECIALS: [f64; 14] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -2.2e-308,
    1.0,
    -1.0,
    1.0 + f64::EPSILON,
    -1.0 - f64::EPSILON,
    1.0 - f64::EPSILON / 2.0,
    -1.0 + f64::EPSILON / 2.0,
    1e300,
];

/// Deterministic awkward-mantissa values in `(-scale, scale)`.
fn arb(n: usize, seed: u64, scale: f64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as u64 + 1)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed.wrapping_mul(1442695040888963407));
            (((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0) * scale
        })
        .collect()
}

/// Gradients of step `t`: ordinary values straddling ±1 with one special
/// planted at a position that walks across the block (so every vector
/// lane and the scalar tail meet every special).
fn gradients(n: usize, t: u64) -> Vec<f64> {
    let mut g = arb(n, 100 + t, 2.5);
    if n > 0 {
        let special = SPECIALS[t as usize % SPECIALS.len()];
        g[(t as usize * 7) % n] = special;
    }
    g
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a} vs {b}");
    }
}

/// Parameter blocks as a model presents them: `(weights, gradients)`.
struct Blocks(Vec<(Vec<f64>, Vec<f64>)>);

impl Parameterized for Blocks {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        for (w, g) in &mut self.0 {
            f(w, g);
        }
    }
}

/// `Adam::step` end to end — step counter, bias corrections, per-block
/// moments, the block kernel — against the oracle for 50 consecutive
/// steps: every length 0 ..= 67, one 4 096 block and one with a tail.
#[test]
fn adam_step_matches_the_scalar_loop_bitwise() {
    let lens: Vec<usize> = (0..=67).chain([4096, 4096 + 3]).collect();
    for clip in [None, Some(1.0)] {
        for wd in [0.0, 1e-4] {
            let mut model = Blocks(
                lens.iter()
                    .map(|&n| (arb(n, n as u64, 1.0), vec![0.0; n]))
                    .collect(),
            );
            let mut want: Vec<Vec<f64>> = model.0.iter().map(|(w, _)| w.clone()).collect();
            let mut moments: Vec<(Vec<f64>, Vec<f64>)> =
                lens.iter().map(|&n| (vec![0.0; n], vec![0.0; n])).collect();
            let mut adam = Adam::new(LR).with_weight_decay(wd);
            if let Some(c) = clip {
                adam = adam.with_clip(c);
            }
            for t in 1..=50 {
                let k = scalars(t, clip, wd);
                for (b, (_, g)) in model.0.iter_mut().enumerate() {
                    *g = gradients(g.len(), t + b as u64);
                }
                adam.step(&mut model);
                for (b, (w, g)) in model.0.iter().enumerate() {
                    let (m, v) = &mut moments[b];
                    oracle(&k, &mut want[b], g, m, v);
                    let n = w.len();
                    assert_bits(w, &want[b], &format!("n={n} clip={clip:?} wd={wd} t={t}"));
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "length mismatch")]
fn step_checks_block_lengths() {
    let mut model = Blocks(vec![(vec![0.0; 3], vec![0.0; 2])]);
    Adam::new(LR).step(&mut model);
}
