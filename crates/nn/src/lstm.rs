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
//!
//! Every rollout runs on an `LstmTape` and every BPTT on an
//! `LstmBptt`: flat buffers that hold the packed weights, the states,
//! the recorded activations and the gradient scratch. The public calls
//! build fresh ones and copy matrices out; a training loop keeps one pair
//! per network and reuses it for every step, so a steady-state step
//! allocates nothing. Which of the two owns the buffers cannot change a
//! bit: the kernels, their operands and their order are the same.

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
}

/// Grows `buf` to at least `len` elements and returns the first `len`.
/// Contents are whatever the last user left: callers write before they read.
pub(crate) fn grown(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// One layer's share of an [`LstmTape`].
#[derive(Debug, Clone, Default)]
struct LayerTape {
    /// Packed transposed weights `Wxᵀ: I×4H` and `Whᵀ: H×4H`, so the
    /// forward products `X · Wᵀ` run as plain [`gemm`] calls with
    /// unit-stride inner loops.
    wxt: Vec<f64>,
    wht: Vec<f64>,
    /// (Masked) hidden and cell state per slot, `B×H` each; slot 0 is the
    /// initial state, step `t` reads slot `t` and writes slot `t + 1`.
    h: Vec<f64>,
    c: Vec<f64>,
    /// Activated gates per recorded step, `B×4H` each (one block, reused,
    /// when the rollout is not recorded).
    gates: Vec<f64>,
    /// `tanh(c)` per recorded step, `B×H` each.
    tanh_c: Vec<f64>,
    /// Variational mask, `B×H` (row = lane); all-ones outside training.
    mask: Vec<f64>,
}

/// Working set and record of one rollout: packed weights, per-slot states
/// and — for a recorded rollout — every activation the backward pass
/// reads. A recorded rollout keeps `steps + 1` state slots; an unrecorded
/// one alternates between two. [`Lstm::begin`] sizes it (growing, never
/// shrinking, so a reused tape stops allocating) and packs the weights as
/// they are now; begin again after an optimizer step.
#[derive(Debug, Clone, Default)]
pub(crate) struct LstmTape {
    batch: usize,
    steps: usize,
    /// Steps advanced so far.
    done: usize,
    recorded: bool,
    /// Whether the masks were drawn (training / MC dropout) or are ones.
    masked: bool,
    /// Layer-0 input per recorded step: `B×I`, or one shared `I`-wide row.
    x0: Vec<f64>,
    x_rows: usize,
    /// Input-contribution scratch `X · Wxᵀ`, `B×4H` of the widest layer.
    zx: Vec<f64>,
    layers: Vec<LayerTape>,
}

impl LayerTape {
    /// Elements of one `B×H` state block (the mask is exactly one).
    fn state_len(&self) -> usize {
        self.mask.len()
    }
}

impl LstmTape {
    /// State slot holding the states after `s` steps.
    fn slot(&self, s: usize) -> usize {
        if self.recorded {
            s
        } else {
            s % 2
        }
    }

    /// `(h, c)` of layer `l` before the first step, to be overwritten with
    /// a non-zero initial state between [`Lstm::begin`] and the first step.
    pub(crate) fn init_mut(&mut self, l: usize) -> (&mut [f64], &mut [f64]) {
        let lt = &mut self.layers[l];
        let n = lt.state_len();
        (&mut lt.h[..n], &mut lt.c[..n])
    }

    /// (Masked) hidden state of layer `l` after `s` steps, `B×H`.
    pub(crate) fn h(&self, l: usize, s: usize) -> &[f64] {
        let n = self.layers[l].state_len();
        &self.layers[l].h[self.slot(s) * n..][..n]
    }

    /// Cell state of layer `l` after `s` steps, `B×H`.
    fn c(&self, l: usize, s: usize) -> &[f64] {
        let n = self.layers[l].state_len();
        &self.layers[l].c[self.slot(s) * n..][..n]
    }

    /// Top-layer output of the latest step, `B×H_top`.
    pub(crate) fn last_output(&self) -> &[f64] {
        self.h(self.layers.len() - 1, self.done)
    }

    /// Overwrites every buffer with NaN, so a step that reads what an
    /// earlier step left behind cannot go unnoticed.
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        let LstmTape { x0, zx, layers, .. } = self;
        let per_layer = layers.iter_mut().flat_map(|l| {
            let LayerTape {
                wxt,
                wht,
                h,
                c,
                gates,
                tanh_c,
                mask,
            } = l;
            [wxt, wht, h, c, gates, tanh_c, mask]
        });
        for buf in per_layer.chain([x0, zx]) {
            buf.fill(f64::NAN);
        }
    }
}

/// Gradient buffers of one BPTT over a recorded [`LstmTape`]: the caller
/// fills the incoming gradients after [`Lstm::begin_backward`] zeroed
/// them, [`Lstm::backward`] leaves the outgoing ones.
#[derive(Debug, Clone, Default)]
pub(crate) struct LstmBptt {
    /// In: gradient w.r.t. the top-layer output per step, `T×B×H_top`.
    pub(crate) d_outputs: Vec<f64>,
    /// In: gradient into each layer's final `h` / `c` (`B×H`); out: the
    /// gradient w.r.t. its initial state.
    pub(crate) dh: Vec<Vec<f64>>,
    pub(crate) dc: Vec<Vec<f64>>,
    /// Out: gradient w.r.t. each input step, `T×B×I`.
    d_inputs: Vec<f64>,
    /// `dz` per layer, `T×B×4H` step-major, kept for the deferred weight
    /// accumulation.
    dz: Vec<Vec<f64>>,
    /// Gradient handed from layer `l` down to layer `l − 1`, `B×I_l`.
    dx: Vec<Vec<f64>>,
    /// Flattened (lane-major, t-descending) `dz`, inputs and previous
    /// hidden states of one layer.
    dzf: Vec<f64>,
    xf: Vec<f64>,
    hf: Vec<f64>,
}

impl LstmBptt {
    /// See [`LstmTape::poison`].
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        let LstmBptt {
            d_outputs,
            dh,
            dc,
            d_inputs,
            dz,
            dx,
            dzf,
            xf,
            hf,
        } = self;
        let nested = dh.iter_mut().chain(dc).chain(dz).chain(dx);
        for buf in nested.chain([d_outputs, d_inputs, dzf, xf, hf]) {
            buf.fill(f64::NAN);
        }
    }
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

/// A batched rollout as the public calls hand it out: the states and
/// outputs as matrices, and the tape [`Lstm::backward_seq_batch`] reads.
#[derive(Debug, Clone)]
pub struct BatchSeqCache {
    tape: LstmTape,
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
    /// Readies `tape` for a rollout of `steps` steps over `batch` lanes:
    /// sizes it, packs the current weights, zeroes the initial states and
    /// settles the masks. With `train = Some(rng)` each lane draws one
    /// variational mask per layer for the whole sequence, lane-major (lane
    /// `b`'s per-layer masks before lane `b + 1`'s) — the order one-lane
    /// calls draw them; otherwise masks are all-ones and no randomness is
    /// consumed.
    pub(crate) fn begin(
        &self,
        tape: &mut LstmTape,
        batch: usize,
        steps: usize,
        record: bool,
        train: Option<&mut SimRng>,
    ) {
        assert!(batch > 0, "empty batch");
        assert!(steps > 0, "empty sequence");
        tape.batch = batch;
        tape.steps = steps;
        tape.done = 0;
        tape.recorded = record;
        tape.masked = train.is_some();
        let slots = if record { steps + 1 } else { 2 };
        let kept = if record { steps } else { 1 };
        let widest = self.layers.iter().map(|l| l.hidden).max();
        grown(
            &mut tape.zx,
            batch * 4 * widest.expect("at least one layer"),
        );
        tape.layers
            .resize_with(self.layers.len(), LayerTape::default);
        for (layer, lt) in self.layers.iter().zip(&mut tape.layers) {
            let (hdim, idim) = (layer.hidden, layer.input_dim);
            let n = batch * hdim;
            pack_transpose(
                4 * hdim,
                idim,
                &layer.wx,
                grown(&mut lt.wxt, layer.wx.len()),
            );
            pack_transpose(
                4 * hdim,
                hdim,
                &layer.wh,
                grown(&mut lt.wht, layer.wh.len()),
            );
            grown(&mut lt.h, slots * n)[..n].fill(0.0);
            grown(&mut lt.c, slots * n)[..n].fill(0.0);
            grown(&mut lt.gates, kept * 4 * n);
            if record {
                grown(&mut lt.tanh_c, kept * n);
            }
            lt.mask.resize(n, 1.0);
            if train.is_none() {
                lt.mask.fill(1.0);
            }
        }
        if let Some(rng) = train {
            for b in 0..batch {
                for (layer, lt) in self.layers.iter().zip(&mut tape.layers) {
                    let row = &mut lt.mask[b * layer.hidden..(b + 1) * layer.hidden];
                    self.dropout.sample_mask_into(row, rng);
                }
            }
        }
    }

    /// Advances every layer one step for the `B` lanes of `tape` — the one
    /// step kernel under training, MC rollouts and inference. `x` is the
    /// layer-0 input, `B×I` row-major or one `I`-wide row shared by every
    /// lane (the same presentation at every step of a rollout).
    pub(crate) fn step(&self, tape: &mut LstmTape, x: &[f64]) {
        assert!(tape.done < tape.steps, "rollout already complete");
        let (batch, t) = (tape.batch, tape.done);
        let (prev, cur) = (tape.slot(t), tape.slot(t + 1));
        let idim0 = self.layers[0].input_dim;
        if t == 0 {
            tape.x_rows = if x.len() == idim0 { 1 } else { batch };
        }
        assert_eq!(x.len(), tape.x_rows * idim0, "input width mismatch");
        if tape.recorded {
            grown(&mut tape.x0, tape.steps * x.len())[t * x.len()..][..x.len()].copy_from_slice(x);
        }
        for (l, layer) in self.layers.iter().enumerate() {
            let (hdim, idim) = (layer.hidden, layer.input_dim);
            let (h4, n) = (4 * hdim, batch * hdim);
            let (below, at) = tape.layers.split_at_mut(l);
            let lt = &mut at[0];

            // Input contribution zx = X · Wxᵀ, X being the step input or the
            // layer below's freshly updated (masked) hidden state. A shared
            // input yields one identical 4H row for every lane — computed
            // once, broadcast in the gate loop.
            let x_in = match below.last() {
                None => x,
                Some(b) => &b.h[cur * batch * idim..][..batch * idim],
            };
            let x_rows = x_in.len() / idim;
            gemm(x_rows, h4, idim, x_in, &lt.wxt, &mut tape.zx[..x_rows * h4]);
            // Recurrent contribution zh = H_prev · Whᵀ, straight into the
            // block the activated gates are kept in.
            let block = if tape.recorded { t } else { 0 };
            let gates = &mut lt.gates[block * 4 * n..][..4 * n];
            gemm(batch, h4, hdim, &lt.h[prev * n..][..n], &lt.wht, gates);

            // Gate math — the fused element-wise stage, in place on the new
            // slot's cell state; tanh(c) is only kept when the backward
            // pass will want it.
            lt.c.copy_within(prev * n..(prev + 1) * n, cur * n);
            lstm_gates(
                &GateCtx {
                    batch,
                    hdim,
                    zx: &tape.zx,
                    shared0: x_rows < batch,
                    bias: &layer.b,
                    masks: tape.masked.then_some(&lt.mask),
                },
                gates,
                &mut lt.c[cur * n..][..n],
                &mut lt.h[cur * n..][..n],
                tape.recorded.then(|| &mut lt.tanh_c[t * n..][..n]),
            );
        }
        tape.done += 1;
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
    /// `record = true` keeps per-step activations for
    /// [`Lstm::backward_seq_batch`]; inference callers pass `false` (only
    /// the final step's output is then retained in `outputs`).
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
        let steps: Vec<&[f64]> = match xs {
            BatchInput::Shared(seq) => seq.iter().map(Vec::as_slice).collect(),
            BatchInput::PerLane(ms) => {
                let lanes = ms.iter().all(|m| m.rows() == batch);
                assert!(lanes, "per-lane step batch mismatch");
                ms.iter().map(Matrix::as_slice).collect()
            }
        };
        let mut tape = LstmTape::default();
        self.begin(&mut tape, batch, steps.len(), record, train.then_some(rng));
        if let Some((h0, c0)) = init {
            for l in 0..self.layers.len() {
                let (h, c) = tape.init_mut(l);
                h.copy_from_slice(h0[l].as_slice());
                c.copy_from_slice(c0[l].as_slice());
            }
        }
        for x in &steps {
            self.step(&mut tape, x);
        }

        let state =
            |l: usize, m: &[f64]| Matrix::from_vec(batch, self.layers[l].hidden, m.to_vec());
        let layers = 0..self.layers.len();
        let top = self.layers.len() - 1;
        let first_kept = if record { 1 } else { steps.len() };
        BatchSeqCache {
            final_h: layers
                .clone()
                .map(|l| state(l, tape.h(l, steps.len())))
                .collect(),
            final_c: layers.map(|l| state(l, tape.c(l, steps.len()))).collect(),
            outputs: (first_kept..=steps.len())
                .map(|s| state(top, tape.h(top, s)))
                .collect(),
            tape,
        }
    }

    /// Sizes `bptt` for a BPTT over `tape` and zeroes every incoming
    /// gradient (`d_outputs`, `dh`, `dc`), for the caller to fill in.
    pub(crate) fn begin_backward(&self, bptt: &mut LstmBptt, tape: &LstmTape) {
        assert!(
            tape.recorded && tape.done == tape.steps,
            "rollout was not recorded (forward_seq_batch record = false)"
        );
        let (batch, steps) = (tape.batch, tape.steps);
        let top = self.top_hidden();
        grown(&mut bptt.d_outputs, steps * batch * top).fill(0.0);
        grown(&mut bptt.d_inputs, steps * batch * self.layers[0].input_dim);
        for buf in [&mut bptt.dh, &mut bptt.dc, &mut bptt.dz, &mut bptt.dx] {
            buf.resize_with(self.layers.len(), Vec::new);
        }
        for (l, layer) in self.layers.iter().enumerate() {
            let n = batch * layer.hidden;
            for state in [&mut bptt.dh[l], &mut bptt.dc[l]] {
                state.resize(n, 0.0);
                state.fill(0.0);
            }
            grown(&mut bptt.dz[l], steps * 4 * n);
            grown(&mut bptt.dx[l], batch * layer.input_dim);
        }
    }

    /// BPTT over the recorded `tape`, between [`Lstm::begin_backward`] (and
    /// the caller's writes to the incoming gradients) and the caller's
    /// reads of `dh` / `dc` / the input gradients.
    ///
    /// Weight gradients are accumulated **lane-major, timestep-descending**
    /// — deferred until all per-step `dz` blocks exist, then contracted
    /// with one in-order [`gemm_tn`] per layer. That is, bit for bit, the
    /// order in which `B` one-lane calls accumulate: example by example,
    /// each walking its steps backwards.
    pub(crate) fn backward(&mut self, tape: &LstmTape, bptt: &mut LstmBptt) {
        let (batch, steps) = (tape.batch, tape.steps);
        let num_layers = self.layers.len();
        let LstmBptt {
            d_outputs,
            dh,
            dc,
            d_inputs,
            dz,
            dx,
            dzf,
            xf,
            hf,
        } = bptt;
        let top_n = batch * self.top_hidden();
        let in_n = batch * self.layers[0].input_dim;

        for t in (0..steps).rev() {
            for l in (0..num_layers).rev() {
                let layer = &self.layers[l];
                let (hdim, idim) = (layer.hidden, layer.input_dim);
                let (h4, n) = (4 * hdim, batch * hdim);
                let dnext = match dx.get(l + 1) {
                    None => &d_outputs[t * top_n..][..top_n],
                    Some(from_above) => &from_above[..n],
                };
                for (a, b) in dh[l].iter_mut().zip(dnext) {
                    *a += b;
                }
                let lt = &tape.layers[l];
                let dz_t = &mut dz[l][t * 4 * n..][..4 * n];
                for b in 0..batch {
                    let row = b * hdim..(b + 1) * hdim;
                    let dh_row = &dh[l][row.clone()];
                    let dc_row = &mut dc[l][row.clone()];
                    let m_row = &lt.mask[row.clone()];
                    let tc = &lt.tanh_c[t * n..][row.clone()];
                    let gates = &lt.gates[t * 4 * n..][b * h4..(b + 1) * h4];
                    let (i_r, rest) = gates.split_at(hdim);
                    let (f_r, rest) = rest.split_at(hdim);
                    let (g_r, o_r) = rest.split_at(hdim);
                    let cp = &tape.c(l, t)[row];
                    let dz_row = &mut dz_t[b * h4..(b + 1) * h4];
                    for k in 0..hdim {
                        // The textbook cell backward, one expression tree
                        // for every batch size.
                        let dh_raw = dh_row[k] * m_row[k];
                        let do_ = dh_raw * tc[k];
                        let dct = dh_raw * o_r[k] * (1.0 - tc[k] * tc[k]) + dc_row[k];
                        let di = dct * g_r[k];
                        let df = dct * cp[k];
                        let dg = dct * i_r[k];
                        dc_row[k] = dct * f_r[k];
                        dz_row[k] = di * i_r[k] * (1.0 - i_r[k]);
                        dz_row[hdim + k] = df * f_r[k] * (1.0 - f_r[k]);
                        dz_row[2 * hdim + k] = dg * (1.0 - g_r[k] * g_r[k]);
                        dz_row[3 * hdim + k] = do_ * o_r[k] * (1.0 - o_r[k]);
                    }
                }
                // dX = dZ · Wx and dH_prev = dZ · Wh: the contraction runs
                // over the 4H gate rows in order — the scalar r-loop order.
                let dx_t = match l {
                    0 => &mut d_inputs[t * in_n..][..in_n],
                    _ => &mut dx[l][..batch * idim],
                };
                gemm(batch, idim, h4, dz_t, &layer.wx, dx_t);
                gemm(batch, hdim, h4, dz_t, &layer.wh, &mut dh[l]);
            }
        }

        // Deferred weight gradients: flatten (lane-major, t-descending) and
        // contract rows in order, so each gradient element accumulates its
        // contributions exactly as B one-lane backward passes would.
        for (l, layer) in self.layers.iter_mut().enumerate() {
            let (hdim, idim) = (layer.hidden, layer.input_dim);
            let h4 = 4 * hdim;
            let rows = batch * steps;
            let dzf = grown(dzf, rows * h4);
            let xf = grown(xf, rows * idim);
            let hf = grown(hf, rows * hdim);
            let mut rr = 0;
            for b in 0..batch {
                for t in (0..steps).rev() {
                    let dz_t = &dz[l][t * batch * h4..];
                    dzf[rr * h4..(rr + 1) * h4].copy_from_slice(&dz_t[b * h4..(b + 1) * h4]);
                    // The step's input: the layer below's fresh output, or
                    // the (possibly shared) layer-0 input row.
                    let x_t = match l {
                        0 => &tape.x0[t * tape.x_rows * idim..][(b % tape.x_rows) * idim..],
                        _ => &tape.h(l - 1, t + 1)[b * idim..],
                    };
                    xf[rr * idim..(rr + 1) * idim].copy_from_slice(&x_t[..idim]);
                    let h_prev = &tape.h(l, t)[b * hdim..(b + 1) * hdim];
                    hf[rr * hdim..(rr + 1) * hdim].copy_from_slice(h_prev);
                    rr += 1;
                }
            }
            gemm_tn(rows, h4, idim, dzf, xf, &mut layer.gwx);
            gemm_tn(rows, h4, hdim, dzf, hf, &mut layer.gwh);
            col_sum_acc(rows, h4, dzf, &mut layer.gb);
        }
    }

    /// BPTT over a recorded rollout. `d_outputs[t]` is the gradient w.r.t.
    /// the top-layer output at step `t` (zero matrices are fine); `d_final`
    /// optionally adds gradients flowing into every layer's final `(h, c)`
    /// (the encoder's final state feeds the decoder). Weight gradients
    /// accumulate lane-major, timestep-descending — the order of `B`
    /// one-lane calls.
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
        let tape = &cache.tape;
        let mut bptt = LstmBptt::default();
        self.begin_backward(&mut bptt, tape);
        let (batch, steps) = (tape.batch, tape.steps);
        assert_eq!(d_outputs.len(), steps, "gradient/step count mismatch");
        let top_n = batch * self.top_hidden();
        for (dst, src) in bptt.d_outputs.chunks_exact_mut(top_n).zip(d_outputs) {
            dst.copy_from_slice(src.as_slice());
        }
        if let Some((dhf, dcf)) = d_final {
            for l in 0..self.layers.len() {
                bptt.dh[l].copy_from_slice(dhf[l].as_slice());
                bptt.dc[l].copy_from_slice(dcf[l].as_slice());
            }
        }
        self.backward(tape, &mut bptt);

        let idim = self.layers[0].input_dim;
        let states = |vs: &[Vec<f64>]| -> Vec<Matrix> {
            let hidden = self.layers.iter().map(|l| l.hidden);
            let mats = hidden
                .zip(vs)
                .map(|(h, v)| Matrix::from_vec(batch, h, v.clone()));
            mats.collect()
        };
        BatchSeqGrads {
            d_inputs: bptt.d_inputs[..steps * batch * idim]
                .chunks_exact(batch * idim)
                .map(|dx| Matrix::from_vec(batch, idim, dx.to_vec()))
                .collect(),
            d_init_h: states(&bptt.dh),
            d_init_c: states(&bptt.dc),
        }
    }

    /// Inference-only rollout of one sequence: no step caches, no RNG —
    /// a one-lane [`Lstm::forward_seq_batch`] with `train = false`.
    pub fn forward_infer(&self, xs: &[Vec<f64>], init: Option<LayerStates<'_>>) -> InferResult {
        let mut tape = LstmTape::default();
        self.begin(&mut tape, 1, xs.len(), false, None);
        if let Some((h0, c0)) = init {
            for l in 0..self.layers.len() {
                let (h, c) = tape.init_mut(l);
                h.copy_from_slice(&h0[l]);
                c.copy_from_slice(&c0[l]);
            }
        }
        for x in xs {
            self.step(&mut tape, x);
        }
        let layers = 0..self.layers.len();
        InferResult {
            final_h: layers
                .clone()
                .map(|l| tape.h(l, xs.len()).to_vec())
                .collect(),
            final_c: layers.map(|l| tape.c(l, xs.len()).to_vec()).collect(),
            last_output: tape.last_output().to_vec(),
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
