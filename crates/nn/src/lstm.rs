//! Stacked LSTM with exact backpropagation through time and variational
//! (per-sequence) recurrent dropout.
//!
//! Gate layout in all `4H`-sized buffers is `[i | f | g | o]`.
//!
//! One engine: every pass advances `B` lanes per step through GEMM
//! kernels ([`Lstm::forward_seq_batch`] / [`Lstm::backward_seq_batch`]); a
//! single sequence is the `B = 1` case. The engine is **batch-size
//! invariant**: a `B`-lane pass leaves the bits and the RNG state of `B`
//! one-lane passes in order, because the GEMMs keep every output element's
//! contraction in scalar dot-product order, dropout masks are pre-drawn
//! lane-major, and weight gradients accumulate lane-major/timestep-
//! descending. `tests/batched_equiv.rs` holds the scalar textbook
//! reference those bits are asserted against.

use aqua_linalg::{col_sum_acc, gemm, gemm_tn, pack_transpose, Matrix};
use aqua_sim::SimRng;

use crate::dropout::Dropout;
use crate::fastmath;
use crate::Parameterized;

/// Borrowed per-layer `(h, c)` states handed into sequence calls.
pub type LayerStates<'a> = (&'a [Vec<f64>], &'a [Vec<f64>]);

/// Borrowed per-layer batched `(h, c)` states, one `B×H` matrix per layer.
pub type BatchLayerStates<'a> = (&'a [Matrix], &'a [Matrix]);

/// Input presentation for a batched sequence rollout.
#[derive(Debug, Clone, Copy)]
pub enum BatchInput<'a> {
    /// One sequence shared by (broadcast across) every batch lane — the
    /// MC-dropout case: same window, different masks per lane.
    Shared(&'a [Vec<f64>]),
    /// Step-major `B×I` matrices, one row per lane — the mini-batch case.
    PerLane(&'a [Matrix]),
}

/// One LSTM layer: `4H × I` input weights, `4H × H` recurrent weights, and
/// `4H` biases (forget-gate bias initialized to 1, the standard trick).
#[derive(Debug, Clone)]
struct LstmLayer {
    input_dim: usize,
    hidden: usize,
    wx: Vec<f64>,
    wh: Vec<f64>,
    b: Vec<f64>,
    gwx: Vec<f64>,
    gwh: Vec<f64>,
    gb: Vec<f64>,
}

impl LstmLayer {
    /// Creates a layer with Xavier-uniform weights.
    fn new(input_dim: usize, hidden: usize, rng: &mut SimRng) -> Self {
        assert!(input_dim > 0 && hidden > 0, "dimensions must be positive");
        let bx = (6.0 / (input_dim + hidden) as f64).sqrt();
        let bh = (6.0 / (2 * hidden) as f64).sqrt();
        let wx = (0..4 * hidden * input_dim)
            .map(|_| rng.uniform_range(-bx, bx))
            .collect();
        let wh = (0..4 * hidden * hidden)
            .map(|_| rng.uniform_range(-bh, bh))
            .collect();
        let mut b = vec![0.0; 4 * hidden];
        // Forget-gate bias = 1 helps gradient flow early in training.
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0;
        }
        LstmLayer {
            input_dim,
            hidden,
            wx,
            wh,
            b,
            gwx: vec![0.0; 4 * hidden * input_dim],
            gwh: vec![0.0; 4 * hidden * hidden],
            gb: vec![0.0; 4 * hidden],
        }
    }
}

impl Parameterized for LstmLayer {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.wx, &mut self.gwx);
        f(&mut self.wh, &mut self.gwh);
        f(&mut self.b, &mut self.gb);
    }
}

/// A stack of LSTM layers processed over a sequence, with per-sequence
/// variational dropout masks on each layer's hidden output.
#[derive(Debug, Clone)]
pub struct Lstm {
    layers: Vec<LstmLayer>,
    dropout: Dropout,
}

impl Lstm {
    /// Builds a stack: `dims = [input, h1, h2, ...]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn new(dims: &[usize], dropout: f64, rng: &mut SimRng) -> Self {
        assert!(dims.len() >= 2, "need at least input and one hidden size");
        let layers = dims
            .windows(2)
            .map(|w| LstmLayer::new(w[0], w[1], rng))
            .collect();
        Lstm {
            layers,
            dropout: Dropout::new(dropout),
        }
    }

    /// Number of stacked layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Hidden width of the top layer.
    pub fn top_hidden(&self) -> usize {
        self.layers.last().expect("at least one layer").hidden
    }

    /// Hidden width of layer `l`.
    pub fn hidden_of(&self, l: usize) -> usize {
        self.layers[l].hidden
    }
}

/// Working set of one rollout's step kernel, reused across every
/// (step, layer) pair: the packed transposed weights (`Wxᵀ: I×4H`,
/// `Whᵀ: H×4H` per layer, so the forward products `X · Wᵀ` run as plain
/// [`gemm`] calls with unit-stride inner loops) and the gate scratch
/// arenas. The packing is a pure data-layout transform of the weights as
/// they are now; build a fresh arena after an optimizer step.
#[derive(Debug)]
pub(crate) struct StepArena {
    packed: Vec<(Vec<f64>, Vec<f64>)>,
    zx: Vec<f64>,
    zh: Vec<f64>,
    tanh_c: Vec<f64>,
}

/// Per-step element-wise inputs for [`lstm_gates`], bundled so the dispatch
/// wrappers stay within a sane argument count.
struct GateCtx<'a> {
    batch: usize,
    hdim: usize,
    /// Input contribution `zx` (`B×4H` lane-major); with `shared0` only the
    /// first `4H` entries are valid and broadcast to every lane.
    zx: &'a [f64],
    shared0: bool,
    bias: &'a [f64],
    /// Variational masks (`B×H`, row = lane); `None` means all-ones.
    masks: Option<&'a [f64]>,
}

/// Fused element-wise stage of one batched LSTM step: bias add, gate
/// activations, cell update, `tanh(c)` and the (masked) hidden output for
/// every lane — one dispatched call per (step, layer) instead of four small
/// slice calls per lane. Per element this is the textbook cell's
/// expression tree (`z = b + (Wx·x + Wh·h)`, `c = f·c + i·g`,
/// `h = o·tanh(c)·mask`), so fusing cannot change a bit; `tc` (when given)
/// receives `tanh(c)` per lane for recording.
fn lstm_gates(
    ctx: &GateCtx<'_>,
    zh: &mut [f64],
    c: &mut [f64],
    h: &mut [f64],
    tc: Option<&mut [f64]>,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F availability was just checked.
            unsafe { lstm_gates_avx512(ctx, zh, c, h, tc) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability was just checked.
            unsafe { lstm_gates_avx2(ctx, zh, c, h, tc) };
            return;
        }
    }
    lstm_gates_impl(ctx, zh, c, h, tc);
}

/// AVX-512 re-instantiation of [`lstm_gates_impl`]: wider IEEE lanes,
/// identical bits (FMA stays off).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lstm_gates_avx512(
    ctx: &GateCtx<'_>,
    zh: &mut [f64],
    c: &mut [f64],
    h: &mut [f64],
    tc: Option<&mut [f64]>,
) {
    lstm_gates_impl(ctx, zh, c, h, tc);
}

/// AVX2 re-instantiation of [`lstm_gates_impl`]; see [`lstm_gates_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lstm_gates_avx2(
    ctx: &GateCtx<'_>,
    zh: &mut [f64],
    c: &mut [f64],
    h: &mut [f64],
    tc: Option<&mut [f64]>,
) {
    lstm_gates_impl(ctx, zh, c, h, tc);
}

#[inline(always)]
fn lstm_gates_impl(
    ctx: &GateCtx<'_>,
    zh: &mut [f64],
    c: &mut [f64],
    h: &mut [f64],
    mut tc: Option<&mut [f64]>,
) {
    let hdim = ctx.hdim;
    let h4 = 4 * hdim;
    for b in 0..ctx.batch {
        {
            let zx_row = if ctx.shared0 {
                &ctx.zx[..h4]
            } else {
                &ctx.zx[b * h4..(b + 1) * h4]
            };
            let z_row = &mut zh[b * h4..(b + 1) * h4];
            // z = b + (zx + zh), the scalar summation tree.
            for ((zv, &xv), &bv) in z_row.iter_mut().zip(zx_row).zip(ctx.bias) {
                *zv = bv + (xv + *zv);
            }
            for v in z_row[..2 * hdim].iter_mut() {
                *v = fastmath::sigmoid(*v);
            }
            for v in z_row[2 * hdim..3 * hdim].iter_mut() {
                *v = fastmath::tanh(*v);
            }
            for v in z_row[3 * hdim..].iter_mut() {
                *v = fastmath::sigmoid(*v);
            }
        }
        // Re-borrow the activated gates immutably and split per gate, so
        // the update loops below are pure zips the vectorizer can chew.
        let z_row = &zh[b * h4..(b + 1) * h4];
        let (zi, zrest) = z_row.split_at(hdim);
        let (zf, zrest) = zrest.split_at(hdim);
        let (zg, zo) = zrest.split_at(hdim);
        let c_row = &mut c[b * hdim..(b + 1) * hdim];
        let h_row = &mut h[b * hdim..(b + 1) * hdim];
        for (((cv, &iv), &fv), &gv) in c_row.iter_mut().zip(zi).zip(zf).zip(zg) {
            // cv = fv * c_prev + iv * gv, the scalar tree.
            *cv = fv * *cv + iv * gv;
        }
        // h = o * tanh(c) (* mask); an absent mask is the all-ones case,
        // where the dropped `* 1.0` is exact.
        match (tc.as_deref_mut(), ctx.masks) {
            (Some(tcb), Some(m)) => {
                let tc_row = &mut tcb[b * hdim..(b + 1) * hdim];
                let m_row = &m[b * hdim..(b + 1) * hdim];
                for ((((hv, &ov), &cv), tv), &mv) in h_row
                    .iter_mut()
                    .zip(zo)
                    .zip(&*c_row)
                    .zip(tc_row.iter_mut())
                    .zip(m_row)
                {
                    let t = fastmath::tanh(cv);
                    *tv = t;
                    *hv = ov * t * mv;
                }
            }
            (Some(tcb), None) => {
                let tc_row = &mut tcb[b * hdim..(b + 1) * hdim];
                for (((hv, &ov), &cv), tv) in
                    h_row.iter_mut().zip(zo).zip(&*c_row).zip(tc_row.iter_mut())
                {
                    let t = fastmath::tanh(cv);
                    *tv = t;
                    *hv = ov * t;
                }
            }
            (None, Some(m)) => {
                let m_row = &m[b * hdim..(b + 1) * hdim];
                for (((hv, &ov), &cv), &mv) in h_row.iter_mut().zip(zo).zip(&*c_row).zip(m_row) {
                    *hv = ov * fastmath::tanh(cv) * mv;
                }
            }
            (None, None) => {
                for ((hv, &ov), &cv) in h_row.iter_mut().zip(zo).zip(&*c_row) {
                    *hv = ov * fastmath::tanh(cv);
                }
            }
        }
    }
}

/// One layer's cached step activations (all `B×dim`).
#[derive(Debug, Clone)]
pub(crate) struct BatchStepCache {
    x: Matrix,
    h_prev: Matrix,
    c_prev: Matrix,
    /// Activated gates, `B×4H`.
    gates: Matrix,
    tanh_c: Matrix,
}

/// Everything the batched backward pass needs from one batched rollout.
#[derive(Debug, Clone)]
pub struct BatchSeqCache {
    batch: usize,
    /// `caches[layer][step]`; empty when the rollout was not recorded.
    caches: Vec<Vec<BatchStepCache>>,
    /// Variational masks, one `B×H` matrix per layer (row = lane).
    masks: Vec<Matrix>,
    /// Final (masked) hidden state per layer, `B×H`.
    pub final_h: Vec<Matrix>,
    /// Final cell state per layer, `B×H`.
    pub final_c: Vec<Matrix>,
    /// Masked top-layer hidden state per step, `B×H_top`. When the rollout
    /// was not recorded, only the final step's output is kept.
    pub outputs: Vec<Matrix>,
}

/// Gradients returned by [`Lstm::backward_seq_batch`].
#[derive(Debug, Clone)]
pub struct BatchSeqGrads {
    /// Gradient w.r.t. each input step (`B×I`).
    pub d_inputs: Vec<Matrix>,
    /// Gradient w.r.t. the initial hidden state per layer (`B×H`).
    pub d_init_h: Vec<Matrix>,
    /// Gradient w.r.t. the initial cell state per layer (`B×H`).
    pub d_init_c: Vec<Matrix>,
}

/// Result of an inference-only rollout ([`Lstm::forward_infer`]).
#[derive(Debug, Clone)]
pub struct InferResult {
    /// Final (masked) hidden state per layer.
    pub final_h: Vec<Vec<f64>>,
    /// Final cell state per layer.
    pub final_c: Vec<Vec<f64>>,
    /// Top-layer output of the last step.
    pub last_output: Vec<f64>,
}

impl Lstm {
    /// One zeroed `B×H` matrix per layer.
    fn zero_states(&self, batch: usize) -> Vec<Matrix> {
        let zeros = |l: &LstmLayer| Matrix::zeros(batch, l.hidden);
        self.layers.iter().map(zeros).collect()
    }

    /// Packs the current weights and sizes the scratch for `batch` lanes.
    pub(crate) fn arena(&self, batch: usize) -> StepArena {
        let pack = |l: &LstmLayer| {
            let mut wxt = vec![0.0; l.wx.len()];
            pack_transpose(4 * l.hidden, l.input_dim, &l.wx, &mut wxt);
            let mut wht = vec![0.0; l.wh.len()];
            pack_transpose(4 * l.hidden, l.hidden, &l.wh, &mut wht);
            (wxt, wht)
        };
        let widest = self.layers.iter().map(|l| l.hidden).max();
        let lanes = batch * widest.expect("at least one layer");
        StepArena {
            packed: self.layers.iter().map(pack).collect(),
            zx: vec![0.0; 4 * lanes],
            zh: vec![0.0; 4 * lanes],
            tanh_c: vec![0.0; lanes],
        }
    }

    /// Advances every layer one step **in place** for the `B` lanes of `h`
    /// and `c` — the one step kernel under training, MC rollouts and
    /// inference. `x` is the layer-0 input, `B×I` row-major or one `I`-wide
    /// row shared by every lane; `masks = None` is the all-ones case;
    /// `record` receives one [`BatchStepCache`] per layer for the backward
    /// pass.
    pub(crate) fn step_batch(
        &self,
        x: &[f64],
        h: &mut [Matrix],
        c: &mut [Matrix],
        masks: Option<&[Matrix]>,
        arena: &mut StepArena,
        mut record: Option<&mut [Vec<BatchStepCache>]>,
    ) {
        let batch = h[0].rows();
        for (l, layer) in self.layers.iter().enumerate() {
            let (hdim, idim) = (layer.hidden, layer.input_dim);
            let h4 = 4 * hdim;
            let (wxt, wht) = &arena.packed[l];

            // Input contribution zx = X · Wxᵀ, X being the step input or the
            // layer below's freshly updated (masked) hidden state. A shared
            // input yields one identical 4H row for every lane — computed
            // once, broadcast in the gate loop.
            let x_in = if l == 0 { x } else { h[l - 1].as_slice() };
            assert!(
                x_in.len() == batch * idim || (l == 0 && x_in.len() == idim),
                "input width mismatch"
            );
            let x_rows = x_in.len() / idim;
            gemm(x_rows, h4, idim, x_in, wxt, &mut arena.zx[..x_rows * h4]);
            // Recurrent contribution zh = H_prev · Whᵀ.
            let zh = &mut arena.zh[..batch * h4];
            gemm(batch, h4, hdim, h[l].as_slice(), wht, zh);

            let before = record.as_ref().map(|_| {
                let x = Matrix::from_vec(batch, idim, x_in.repeat(batch / x_rows));
                (x, h[l].clone(), c[l].clone())
            });
            // Gate math — the fused element-wise stage; tanh(c) is only
            // kept when the backward pass will want it.
            let tanh_c = &mut arena.tanh_c[..batch * hdim];
            lstm_gates(
                &GateCtx {
                    batch,
                    hdim,
                    zx: &arena.zx,
                    shared0: x_rows < batch,
                    bias: &layer.b,
                    masks: masks.map(|m| m[l].as_slice()),
                },
                zh,
                c[l].as_mut_slice(),
                h[l].as_mut_slice(),
                before.is_some().then_some(&mut *tanh_c),
            );
            if let (Some(caches), Some((x, h_prev, c_prev))) = (record.as_deref_mut(), before) {
                caches[l].push(BatchStepCache {
                    x,
                    h_prev,
                    c_prev,
                    gates: Matrix::from_vec(batch, h4, zh.to_vec()),
                    tanh_c: Matrix::from_vec(batch, hdim, tanh_c.to_vec()),
                });
            }
        }
    }

    /// Sequence rollout: advances `batch` lanes together from the initial
    /// states `init` (`None` = zeros), one GEMM pair per (step, layer).
    ///
    /// With `train = true` each lane draws one variational mask per layer
    /// for the whole sequence (Gal & Ghahramani's RNN dropout; also the
    /// MC-dropout inference mode); otherwise masks are all-ones and no
    /// randomness is consumed. Lane `b` of every output is bit-identical to
    /// the `b`-th of `batch` one-lane calls, and the RNG stream is consumed
    /// identically: masks are pre-drawn lane-major (lane `b`'s per-layer
    /// masks before lane `b+1`'s), the order one-lane calls draw them.
    ///
    /// `record = true` keeps per-step activation caches for
    /// [`Lstm::backward_seq_batch`]; inference callers pass `false` and
    /// skip all cache allocation (only the final step's output is then
    /// retained in `outputs`).
    ///
    /// # Panics
    ///
    /// Panics on an empty batch/sequence or any shape mismatch.
    pub fn forward_seq_batch(
        &self,
        batch: usize,
        xs: BatchInput<'_>,
        init: Option<BatchLayerStates<'_>>,
        train: bool,
        record: bool,
        rng: &mut SimRng,
    ) -> BatchSeqCache {
        assert!(batch > 0, "empty batch");
        let steps: Vec<&[f64]> = match xs {
            BatchInput::Shared(seq) => seq.iter().map(Vec::as_slice).collect(),
            BatchInput::PerLane(ms) => {
                let lanes = ms.iter().all(|m| m.rows() == batch);
                assert!(lanes, "per-lane step batch mismatch");
                ms.iter().map(Matrix::as_slice).collect()
            }
        };
        assert!(!steps.is_empty(), "empty sequence");

        // Masks pre-drawn lane-major: identical RNG consumption to `batch`
        // one-lane calls (each draws layer 0, 1, ... in turn).
        let mut masks = self.zero_states(batch);
        if train {
            for b in 0..batch {
                for m in &mut masks {
                    self.dropout.sample_mask_into(m.row_mut(b), rng);
                }
            }
        } else {
            for m in &mut masks {
                m.as_mut_slice().fill(1.0);
            }
        }
        let (mut h, mut c) = match init {
            Some((h0, c0)) => (h0.to_vec(), c0.to_vec()),
            None => (self.zero_states(batch), self.zero_states(batch)),
        };

        let mut arena = self.arena(batch);
        let mut caches = vec![Vec::new(); self.layers.len()];
        let mut outputs = Vec::with_capacity(steps.len());
        for (t, x) in steps.iter().enumerate() {
            self.step_batch(
                x,
                &mut h,
                &mut c,
                train.then_some(masks.as_slice()),
                &mut arena,
                record.then_some(caches.as_mut_slice()),
            );
            if record || t + 1 == steps.len() {
                outputs.push(h.last().expect("at least one layer").clone());
            }
        }

        BatchSeqCache {
            batch,
            caches,
            masks,
            final_h: h,
            final_c: c,
            outputs,
        }
    }

    /// BPTT over a recorded rollout. `d_outputs[t]` is the gradient w.r.t.
    /// the top-layer output at step `t` (zero matrices are fine); `d_final`
    /// optionally adds gradients flowing into every layer's final `(h, c)`
    /// (the encoder's final state feeds the decoder).
    ///
    /// Weight gradients are accumulated **lane-major, timestep-descending**
    /// — deferred until all per-step `dz` blocks exist, then contracted
    /// with one in-order [`gemm_tn`] per layer. That is, bit for bit, the
    /// order in which `B` one-lane calls accumulate: example by example,
    /// each walking its steps backwards.
    ///
    /// # Panics
    ///
    /// Panics if the rollout was not recorded or shapes disagree.
    pub fn backward_seq_batch(
        &mut self,
        cache: &BatchSeqCache,
        d_outputs: &[Matrix],
        d_final: Option<BatchLayerStates<'_>>,
    ) -> BatchSeqGrads {
        let steps = cache.outputs.len();
        assert_eq!(d_outputs.len(), steps, "gradient/step count mismatch");
        assert!(
            cache.caches.iter().all(|cv| cv.len() == steps),
            "rollout was not recorded (forward_seq_batch record = false)"
        );
        let batch = cache.batch;
        let num_layers = self.layers.len();

        let (mut dh, mut dc) = match d_final {
            Some((dhf, dcf)) => (dhf.to_vec(), dcf.to_vec()),
            None => (self.zero_states(batch), self.zero_states(batch)),
        };

        // dz per (layer, step), kept t-descending for the deferred weight
        // accumulation below.
        let mut dz_store: Vec<Vec<Matrix>> = vec![Vec::with_capacity(steps); num_layers];
        let mut dxs_rev: Vec<Matrix> = Vec::with_capacity(steps);

        for t in (0..steps).rev() {
            let mut dnext = d_outputs[t].clone();
            for l in (0..num_layers).rev() {
                let layer = &self.layers[l];
                let hdim = layer.hidden;
                let idim = layer.input_dim;
                let h4 = 4 * hdim;
                for (a, b) in dh[l].as_mut_slice().iter_mut().zip(dnext.as_slice()) {
                    *a += b;
                }
                let sc = &cache.caches[l][t];
                let mask = &cache.masks[l];
                let mut dz = Matrix::zeros(batch, h4);
                let mut dc_prev = Matrix::zeros(batch, hdim);
                for b in 0..batch {
                    let dh_row = dh[l].row(b);
                    let dc_row = dc[l].row(b);
                    let m_row = mask.row(b);
                    let tc = sc.tanh_c.row(b);
                    let (i_r, rest) = sc.gates.row(b).split_at(hdim);
                    let (f_r, rest) = rest.split_at(hdim);
                    let (g_r, o_r) = rest.split_at(hdim);
                    let cp = sc.c_prev.row(b);
                    let dz_row = dz.row_mut(b);
                    let dcp_row = dc_prev.row_mut(b);
                    for k in 0..hdim {
                        // The textbook cell backward, one expression tree
                        // for every batch size.
                        let dh_raw = dh_row[k] * m_row[k];
                        let do_ = dh_raw * tc[k];
                        let dct = dh_raw * o_r[k] * (1.0 - tc[k] * tc[k]) + dc_row[k];
                        let di = dct * g_r[k];
                        let df = dct * cp[k];
                        let dg = dct * i_r[k];
                        dcp_row[k] = dct * f_r[k];
                        dz_row[k] = di * i_r[k] * (1.0 - i_r[k]);
                        dz_row[hdim + k] = df * f_r[k] * (1.0 - f_r[k]);
                        dz_row[2 * hdim + k] = dg * (1.0 - g_r[k] * g_r[k]);
                        dz_row[3 * hdim + k] = do_ * o_r[k] * (1.0 - o_r[k]);
                    }
                }
                // dX = dZ · Wx and dH_prev = dZ · Wh: the contraction runs
                // over the 4H gate rows in order — the scalar r-loop order.
                let dzs = dz.as_slice();
                let mut dx = Matrix::zeros(batch, idim);
                gemm(batch, idim, h4, dzs, &layer.wx, dx.as_mut_slice());
                dh[l] = Matrix::zeros(batch, hdim);
                gemm(batch, hdim, h4, dzs, &layer.wh, dh[l].as_mut_slice());
                dc[l] = dc_prev;
                dz_store[l].push(dz);
                dnext = dx;
            }
            dxs_rev.push(dnext);
        }
        dxs_rev.reverse();

        // Deferred weight gradients: flatten (lane-major, t-descending) and
        // contract rows in order, so each gradient element accumulates its
        // contributions exactly as B one-lane backward passes would.
        for (l, layer) in self.layers.iter_mut().enumerate() {
            let hdim = layer.hidden;
            let idim = layer.input_dim;
            let h4 = 4 * hdim;
            let rows = batch * steps;
            let mut dzf = vec![0.0; rows * h4];
            let mut xf = vec![0.0; rows * idim];
            let mut hf = vec![0.0; rows * hdim];
            let mut rr = 0;
            for b in 0..batch {
                for (ti, dz) in dz_store[l].iter().enumerate() {
                    // dz_store[l][ti] holds step `steps - 1 - ti`.
                    let t = steps - 1 - ti;
                    dzf[rr * h4..(rr + 1) * h4].copy_from_slice(dz.row(b));
                    let sc = &cache.caches[l][t];
                    xf[rr * idim..(rr + 1) * idim].copy_from_slice(sc.x.row(b));
                    hf[rr * hdim..(rr + 1) * hdim].copy_from_slice(sc.h_prev.row(b));
                    rr += 1;
                }
            }
            gemm_tn(rows, h4, idim, &dzf, &xf, &mut layer.gwx);
            gemm_tn(rows, h4, hdim, &dzf, &hf, &mut layer.gwh);
            col_sum_acc(rows, h4, &dzf, &mut layer.gb);
        }

        BatchSeqGrads {
            d_inputs: dxs_rev,
            d_init_h: dh,
            d_init_c: dc,
        }
    }

    /// Inference-only rollout of one sequence: no step caches, no RNG —
    /// a one-lane [`Lstm::forward_seq_batch`] with `train = false`.
    pub fn forward_infer(&self, xs: &[Vec<f64>], init: Option<LayerStates<'_>>) -> InferResult {
        let init_m = init.map(|(h0, c0)| {
            let wrap = |vs: &[Vec<f64>]| {
                vs.iter()
                    .map(|v| Matrix::from_vec(1, v.len(), v.clone()))
                    .collect::<Vec<_>>()
            };
            (wrap(h0), wrap(c0))
        });
        // No randomness is consumed with train = false.
        let mut rng = SimRng::seed(0);
        let cache = self.forward_seq_batch(
            1,
            BatchInput::Shared(xs),
            init_m.as_ref().map(|(h, c)| (h.as_slice(), c.as_slice())),
            false,
            false,
            &mut rng,
        );
        InferResult {
            final_h: cache.final_h.iter().map(|m| m.row(0).to_vec()).collect(),
            final_c: cache.final_c.iter().map(|m| m.row(0).to_vec()).collect(),
            last_output: cache
                .outputs
                .last()
                .expect("non-empty sequence")
                .row(0)
                .to_vec(),
        }
    }
}

impl Parameterized for Lstm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mse;

    /// One lane and several: every test below holds at both.
    const BATCHES: [usize; 2] = [1, 3];

    /// Recorded rollout of `xs` broadcast to `batch` lanes.
    fn run(
        lstm: &Lstm,
        xs: &[Vec<f64>],
        batch: usize,
        init: Option<BatchLayerStates<'_>>,
        train: bool,
        rng: &mut SimRng,
    ) -> BatchSeqCache {
        lstm.forward_seq_batch(batch, BatchInput::Shared(xs), init, train, true, rng)
    }

    /// Summed last-step MSE over the lanes of a per-lane rollout.
    fn seq_loss(lstm: &Lstm, xs: &[Matrix], targets: &Matrix) -> f64 {
        let mut rng = SimRng::seed(0);
        let input = BatchInput::PerLane(xs);
        let cache = lstm.forward_seq_batch(targets.rows(), input, None, false, false, &mut rng);
        let last = cache.outputs.last().unwrap();
        (0..targets.rows())
            .map(|b| mse(last.row(b), targets.row(b)).0)
            .sum()
    }

    /// Full BPTT gradient check against central finite differences.
    #[test]
    fn bptt_matches_finite_differences() {
        for batch in BATCHES {
            let mut rng = SimRng::seed(10);
            let mut lstm = Lstm::new(&[2, 3, 2], 0.0, &mut rng);
            let xs: Vec<Matrix> = (0..3)
                .map(|t| Matrix::from_fn(batch, 2, |b, j| ((3 * t + 2 * b + j) as f64 * 0.9).sin()))
                .collect();
            let targets = Matrix::from_fn(batch, 2, |b, j| 0.3 - 0.7 * j as f64 + 0.2 * b as f64);

            lstm.zero_grad();
            let cache = lstm.forward_seq_batch(
                batch,
                BatchInput::PerLane(&xs),
                None,
                false,
                true,
                &mut rng,
            );
            let last = cache.outputs.last().unwrap();
            let mut d_outputs = vec![Matrix::zeros(batch, 2); xs.len()];
            for b in 0..batch {
                let (_, dlast) = mse(last.row(b), targets.row(b));
                d_outputs[xs.len() - 1].row_mut(b).copy_from_slice(&dlast);
            }
            lstm.backward_seq_batch(&cache, &d_outputs, None);

            // A subset of parameters per block keeps the test fast.
            crate::assert_grads_match_finite_differences(
                &mut lstm,
                |l| seq_loss(l, &xs, &targets),
                5,
                (1e-5, 1e-4),
            );
        }
    }

    #[test]
    fn deterministic_inference_is_repeatable() {
        let mut rng = SimRng::seed(20);
        let lstm = Lstm::new(&[1, 4], 0.5, &mut rng);
        let xs = vec![vec![1.0], vec![2.0]];
        for batch in BATCHES {
            let a = run(&lstm, &xs, batch, None, false, &mut rng);
            let b = run(&lstm, &xs, batch, None, false, &mut rng);
            assert_eq!(a.outputs, b.outputs);
        }
    }

    #[test]
    fn dropout_masks_vary_in_training() {
        let mut rng = SimRng::seed(21);
        let lstm = Lstm::new(&[1, 32], 0.5, &mut rng);
        let xs = vec![vec![1.0]; 3];
        for batch in BATCHES {
            let a = run(&lstm, &xs, batch, None, true, &mut rng);
            let b = run(&lstm, &xs, batch, None, true, &mut rng);
            assert_ne!(
                a.outputs, b.outputs,
                "MC dropout should produce stochastic outputs"
            );
            let last = a.outputs.last().unwrap();
            assert!(
                (1..batch).all(|l| last.row(l) != last.row(0)),
                "lanes draw their own masks"
            );
        }
    }

    #[test]
    fn initial_state_is_respected() {
        let mut rng = SimRng::seed(22);
        let lstm = Lstm::new(&[1, 3], 0.0, &mut rng);
        let xs = vec![vec![0.5]];
        for batch in BATCHES {
            let zero = run(&lstm, &xs, batch, None, false, &mut rng);
            let lane = |v: [f64; 3]| vec![Matrix::from_fn(batch, 3, |_, j| v[j])];
            let (h0, c0) = (lane([0.9, -0.9, 0.4]), lane([0.1, 0.2, -0.3]));
            let warm = run(&lstm, &xs, batch, Some((&h0, &c0)), false, &mut rng);
            assert_ne!(zero.outputs, warm.outputs);
        }
    }

    #[test]
    fn cell_state_stays_bounded() {
        // With bounded inputs the hidden state must stay in (-1, 1).
        let mut rng = SimRng::seed(23);
        let lstm = Lstm::new(&[1, 8], 0.0, &mut rng);
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![(i as f64 / 10.0).sin()]).collect();
        for batch in BATCHES {
            let cache = run(&lstm, &xs, batch, None, false, &mut rng);
            for v in cache.outputs.iter().flat_map(|m| m.as_slice()) {
                assert!(v.abs() <= 1.0, "hidden state escaped (-1,1): {v}");
            }
        }
    }
}
