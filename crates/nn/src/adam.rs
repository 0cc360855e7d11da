//! Adam optimizer over [`Parameterized`] models.

use crate::Parameterized;

/// Adam with bias correction and optional gradient clipping.
///
/// Moment buffers are keyed by visit order, so the same optimizer instance
/// must always be used with the same model structure.
///
/// # Examples
///
/// ```
/// use aqua_linalg::Matrix;
/// use aqua_nn::{Adam, Linear, Parameterized};
/// use aqua_sim::SimRng;
///
/// let mut rng = SimRng::seed(0);
/// let mut layer = Linear::new(1, 1, &mut rng);
/// let mut adam = Adam::new(0.05);
/// let x = Matrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]);
/// let y = [1.0, 3.0, 5.0];
/// for _ in 0..300 {
///     layer.zero_grad();
///     let out = layer.forward_batch(&x);
///     let g = Matrix::from_fn(3, 1, |r, _| 2.0 * (out[(r, 0)] - y[r]));
///     layer.backward_batch(&x, &g);
///     adam.step(&mut layer);
/// }
/// let pred = layer.forward(&[3.0]);
/// assert!((pred[0] - 7.0).abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    clip: Option<f64>,
    weight_decay: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates Adam with the given learning rate and standard betas
    /// (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: None,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Enables elementwise gradient clipping to `[-c, c]`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not positive.
    pub fn with_clip(mut self, c: f64) -> Self {
        assert!(c > 0.0, "clip must be positive");
        self.clip = Some(c);
        self
    }

    /// Enables decoupled weight decay (AdamW-style).
    ///
    /// # Panics
    ///
    /// Panics if `wd` is negative.
    pub fn with_weight_decay(mut self, wd: f64) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative");
        self.weight_decay = wd;
        self
    }

    /// Applies one update step using the gradients accumulated in `model`.
    ///
    /// # Panics
    ///
    /// Panics if `model` does not present the parameter blocks the first
    /// step saw: a block of another length, or fewer or more blocks (which
    /// would leave moments stale or attach them to the wrong weights).
    pub fn step(&mut self, model: &mut dyn Parameterized) {
        self.t += 1;
        let t = self.t as f64;
        let k = StepScalars {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            clip: self.clip,
            weight_decay: self.weight_decay,
            bc1: 1.0 - self.beta1.powf(t),
            bc2: 1.0 - self.beta2.powf(t),
        };
        let first = self.t == 1;
        let mut idx = 0;
        let m = &mut self.m;
        let v = &mut self.v;
        model.visit_params(&mut |w, g| {
            if first {
                m.push(vec![0.0; w.len()]);
                v.push(vec![0.0; w.len()]);
            }
            assert!(
                idx < m.len() && m[idx].len() == w.len(),
                "model structure changed between steps"
            );
            update_block(&k, w, g, &mut m[idx], &mut v[idx]);
            idx += 1;
        });
        assert_eq!(idx, self.m.len(), "model structure changed between steps");
    }
}

/// The scalars of one optimizer step, shared by every parameter block.
#[derive(Debug, Clone, Copy)]
struct StepScalars {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    /// Elementwise gradient clip to `[-c, c]`, `c > 0`.
    clip: Option<f64>,
    weight_decay: f64,
    /// Bias corrections `1 − βᵗ` of this step.
    bc1: f64,
    bc2: f64,
}

/// One Adam update of a parameter block: weights `w`, gradients `g` and
/// the two moment blocks `m`, `v`, element by element.
///
/// The arithmetic contract (DESIGN.md "BNN engine & bit-identity
/// contract"): every element runs the expression tree of
/// [`update_block_impl`], the scalar loop's, with the clip branch hoisted
/// out of the loop. Handing the compiler four equal-length slices is the
/// whole optimisation; the loop is divider-bound, so wider-lane
/// instantiations measured no faster (EXPERIMENTS.md) and there are none.
///
/// # Panics
///
/// Panics if the four slices differ in length.
fn update_block(k: &StepScalars, w: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64]) {
    match k.clip {
        Some(c) => update_block_impl::<true>(k, c, w, g, m, v),
        None => update_block_impl::<false>(k, 0.0, w, g, m, v),
    }
}

fn update_block_impl<const CLIP: bool>(
    k: &StepScalars,
    c: f64,
    w: &mut [f64],
    g: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    let n = w.len();
    assert!(
        g.len() == n && m.len() == n && v.len() == n,
        "parameter block length mismatch"
    );
    let StepScalars {
        lr,
        beta1,
        beta2,
        eps,
        weight_decay: wd,
        bc1,
        bc2,
        ..
    } = *k;
    for (((wk, &gk), mk), vk) in w.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        let mut grad = gk;
        if CLIP {
            // `f64::clamp(-c, c)` spelled out (its bounds assert hoisted
            // to `Adam::with_clip`): a NaN gradient fails both comparisons
            // and stays NaN.
            if grad < -c {
                grad = -c;
            }
            if grad > c {
                grad = c;
            }
        }
        // No reciprocal-multiply: `/ bc` is a division here because it is
        // one in the scalar loop these bits were recorded under.
        *mk = beta1 * *mk + (1.0 - beta1) * grad;
        *vk = beta2 * *vk + (1.0 - beta2) * grad * grad;
        let mhat = *mk / bc1;
        let vhat = *vk / bc2;
        *wk -= lr * (mhat / (vhat.sqrt() + eps) + wd * *wk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal quadratic "model" to test the optimizer in isolation.
    struct Quad {
        x: Vec<f64>,
        g: Vec<f64>,
    }

    impl Parameterized for Quad {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
            f(&mut self.x, &mut self.g);
        }
    }

    #[test]
    fn minimizes_quadratic() {
        let mut q = Quad {
            x: vec![5.0, -3.0],
            g: vec![0.0; 2],
        };
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            // f(x) = sum (x - target)^2 with target (1, 2).
            q.g[0] = 2.0 * (q.x[0] - 1.0);
            q.g[1] = 2.0 * (q.x[1] - 2.0);
            adam.step(&mut q);
        }
        assert!((q.x[0] - 1.0).abs() < 1e-3);
        assert!((q.x[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn clipping_limits_update_magnitude() {
        let mut q = Quad {
            x: vec![0.0],
            g: vec![1e9],
        };
        let mut adam = Adam::new(0.1).with_clip(1.0);
        adam.step(&mut q);
        // First Adam step magnitude is ~lr regardless, but the huge raw
        // gradient must not produce NaN/inf.
        assert!(q.x[0].is_finite());
        assert!(q.x[0] < 0.0);
    }

    /// A model that stops visiting its second block.
    struct Shrinking {
        blocks: [Quad; 2],
        visit: usize,
    }

    impl Parameterized for Shrinking {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
            for q in &mut self.blocks[..self.visit] {
                f(&mut q.x, &mut q.g);
            }
        }
    }

    fn two_blocks() -> Shrinking {
        let quad = || Quad {
            x: vec![1.0; 3],
            g: vec![0.5; 3],
        };
        Shrinking {
            blocks: [quad(), quad()],
            visit: 2,
        }
    }

    #[test]
    #[should_panic(expected = "model structure changed")]
    fn rejects_a_model_that_visits_fewer_blocks() {
        let mut model = two_blocks();
        let mut adam = Adam::new(0.1);
        adam.step(&mut model);
        model.visit = 1;
        adam.step(&mut model);
    }

    #[test]
    #[should_panic(expected = "model structure changed")]
    fn rejects_a_model_that_visits_more_blocks() {
        let mut model = two_blocks();
        model.visit = 1;
        let mut adam = Adam::new(0.1);
        adam.step(&mut model);
        model.visit = 2;
        adam.step(&mut model);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_bad_lr() {
        let _ = Adam::new(0.0);
    }
}
