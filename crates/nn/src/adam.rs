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

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Overrides the learning rate (e.g. for decay schedules).
    pub fn set_lr(&mut self, lr: f64) {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one update step using the gradients accumulated in `model`.
    pub fn step(&mut self, model: &mut dyn Parameterized) {
        self.t += 1;
        let t = self.t as f64;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, beta1, beta2, eps, clip, wd) = (
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            self.clip,
            self.weight_decay,
        );
        let mut idx = 0;
        let m = &mut self.m;
        let v = &mut self.v;
        model.visit_params(&mut |w, g| {
            if m.len() <= idx {
                m.push(vec![0.0; w.len()]);
                v.push(vec![0.0; w.len()]);
            }
            assert_eq!(
                m[idx].len(),
                w.len(),
                "model structure changed between steps"
            );
            for k in 0..w.len() {
                let mut grad = g[k];
                if let Some(c) = clip {
                    grad = grad.clamp(-c, c);
                }
                m[idx][k] = beta1 * m[idx][k] + (1.0 - beta1) * grad;
                v[idx][k] = beta2 * v[idx][k] + (1.0 - beta2) * grad * grad;
                let mhat = m[idx][k] / bc1;
                let vhat = v[idx][k] / bc2;
                w[k] -= lr * (mhat / (vhat.sqrt() + eps) + wd * w[k]);
            }
            idx += 1;
        });
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

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_bad_lr() {
        let _ = Adam::new(0.0);
    }
}
