//! The NN engine against a scalar textbook reference, bit for bit.
//!
//! `aqua-nn` has one engine: `B` lanes per step through GEMM kernels. This
//! file keeps the per-vector reference it must agree with — one LSTM cell
//! forward/backward, one dense layer, plain loops over `fastmath` — and
//! asserts the four legs of the contract (DESIGN.md "BNN engine &
//! bit-identity contract") with `to_bits` and post-call RNG equality:
//! in-order contraction, shared activations, a lane-major RNG stream, and
//! lane-major / t-descending gradient accumulation.

use aqua_linalg::Matrix;
use aqua_nn::fastmath::{sigmoid, tanh};
use aqua_nn::{
    BatchInput, Dropout, EncoderDecoder, Lstm, Mlp, Parameterized, Seq2SeqConfig, SeqPair,
};
use aqua_sim::SimRng;
use proptest::prelude::*;

/// A model's weights in visit order, handed out block by block.
struct Weights(std::vec::IntoIter<f64>);

impl Weights {
    fn of<M: Parameterized + Clone>(model: &M) -> Self {
        Weights(model.clone().export_weights().into_iter())
    }

    fn take(&mut self, n: usize) -> Vec<f64> {
        self.0.by_ref().take(n).collect()
    }
}

fn mask(dropout: Dropout, n: usize, rng: &mut SimRng) -> Vec<f64> {
    let mut m = vec![0.0; n];
    dropout.sample_mask_into(&mut m, rng);
    m
}

/// Reference dense layer `y = W x + b` (row-major `out × in`).
struct RefLinear {
    in_dim: usize,
    w: Vec<f64>,
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
}

impl RefLinear {
    fn take(w: &mut Weights, in_dim: usize, out_dim: usize) -> Self {
        RefLinear {
            in_dim,
            w: w.take(in_dim * out_dim),
            b: w.take(out_dim),
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
        }
    }

    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = self.b.clone();
        for (o, yo) in y.iter_mut().enumerate() {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            *yo += row.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>();
        }
        y
    }

    fn backward(&mut self, x: &[f64], dy: &[f64]) -> Vec<f64> {
        let mut dx = vec![0.0; self.in_dim];
        for (o, &g) in dy.iter().enumerate() {
            self.gb[o] += g;
            let (row, grow) = (&self.w[o * self.in_dim..], &mut self.gw[o * self.in_dim..]);
            for i in 0..self.in_dim {
                grow[i] += g * x[i];
                dx[i] += g * row[i];
            }
        }
        dx
    }
}

/// Reference MLP: `Linear → tanh → dropout` per hidden layer, then Linear.
struct RefMlp {
    layers: Vec<RefLinear>,
    dropout: Dropout,
}

/// `(input, pre-activation, mask)` per layer (the last two empty for the
/// output layer), and the network output.
type RefMlpCache = (Vec<(Vec<f64>, Vec<f64>, Vec<f64>)>, Vec<f64>);

impl RefMlp {
    fn of(mlp: &Mlp, dims: &[usize], dropout: f64) -> Self {
        let mut w = Weights::of(mlp);
        RefMlp {
            layers: dims
                .windows(2)
                .map(|d| RefLinear::take(&mut w, d[0], d[1]))
                .collect(),
            dropout: Dropout::new(dropout),
        }
    }

    fn forward_train(&self, x: &[f64], rng: &mut SimRng) -> RefMlpCache {
        let last = self.layers.len() - 1;
        let mut record = Vec::new();
        let mut cur = x.to_vec();
        for (l, layer) in self.layers.iter().enumerate() {
            let pre = layer.forward(&cur);
            let (next, m) = if l < last {
                let m = mask(self.dropout, pre.len(), rng);
                (pre.iter().zip(&m).map(|(z, m)| tanh(*z) * m).collect(), m)
            } else {
                (pre.clone(), Vec::new())
            };
            record.push((std::mem::replace(&mut cur, next), pre, m));
        }
        (record, cur)
    }

    fn backward(&mut self, cache: &RefMlpCache, d_out: &[f64]) -> Vec<f64> {
        let last = self.layers.len() - 1;
        let mut grad = d_out.to_vec();
        for l in (0..self.layers.len()).rev() {
            let (input, pre, m) = &cache.0[l];
            if l < last {
                for ((gv, z), m) in grad.iter_mut().zip(pre).zip(m) {
                    *gv *= m;
                    *gv *= 1.0 - tanh(*z) * tanh(*z);
                }
            }
            grad = self.layers[l].backward(input, &grad);
        }
        grad
    }

    fn grads(&self) -> Vec<f64> {
        let blocks = self.layers.iter().flat_map(|l| [&l.gw, &l.gb]);
        blocks.flatten().copied().collect()
    }
}

/// Reference LSTM layer; gate layout in `4H` buffers is `[i | f | g | o]`.
struct RefLayer {
    idim: usize,
    hdim: usize,
    wx: Vec<f64>,
    wh: Vec<f64>,
    b: Vec<f64>,
    gwx: Vec<f64>,
    gwh: Vec<f64>,
    gb: Vec<f64>,
}

/// Activations of one time step of one layer.
struct RefStep {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    c_prev: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    g: Vec<f64>,
    o: Vec<f64>,
    c: Vec<f64>,
    tanh_c: Vec<f64>,
    /// Hidden state after variational dropout.
    h_out: Vec<f64>,
}

impl RefLayer {
    fn forward_step(&self, x: &[f64], h_prev: &[f64], c_prev: &[f64], h_mask: &[f64]) -> RefStep {
        let hdim = self.hdim;
        // z = Wx x + Wh h_prev + b
        let mut z = self.b.clone();
        for (r, zr) in z.iter_mut().enumerate() {
            let wxr = &self.wx[r * self.idim..(r + 1) * self.idim];
            let whr = &self.wh[r * hdim..(r + 1) * hdim];
            *zr += wxr.iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
                + whr.iter().zip(h_prev).map(|(w, v)| w * v).sum::<f64>();
        }
        let mut s = RefStep {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            c_prev: c_prev.to_vec(),
            i: vec![0.0; hdim],
            f: vec![0.0; hdim],
            g: vec![0.0; hdim],
            o: vec![0.0; hdim],
            c: vec![0.0; hdim],
            tanh_c: vec![0.0; hdim],
            h_out: vec![0.0; hdim],
        };
        for k in 0..hdim {
            s.i[k] = sigmoid(z[k]);
            s.f[k] = sigmoid(z[hdim + k]);
            s.g[k] = tanh(z[2 * hdim + k]);
            s.o[k] = sigmoid(z[3 * hdim + k]);
            s.c[k] = s.f[k] * c_prev[k] + s.i[k] * s.g[k];
            s.tanh_c[k] = tanh(s.c[k]);
            s.h_out[k] = s.o[k] * s.tanh_c[k] * h_mask[k];
        }
        s
    }

    /// `dh` is the gradient w.r.t. the *masked* output, `dc` w.r.t. the
    /// cell state. Returns `(dx, dh_prev, dc_prev)`, accumulates weights.
    fn backward_step(
        &mut self,
        s: &RefStep,
        dh: &[f64],
        dc: &[f64],
        h_mask: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let hdim = self.hdim;
        let mut dz = vec![0.0; 4 * hdim];
        let mut dc_prev = vec![0.0; hdim];
        for k in 0..hdim {
            let dh_raw = dh[k] * h_mask[k];
            let do_ = dh_raw * s.tanh_c[k];
            let dct = dh_raw * s.o[k] * (1.0 - s.tanh_c[k] * s.tanh_c[k]) + dc[k];
            let di = dct * s.g[k];
            let df = dct * s.c_prev[k];
            let dg = dct * s.i[k];
            dc_prev[k] = dct * s.f[k];
            dz[k] = di * s.i[k] * (1.0 - s.i[k]);
            dz[hdim + k] = df * s.f[k] * (1.0 - s.f[k]);
            dz[2 * hdim + k] = dg * (1.0 - s.g[k] * s.g[k]);
            dz[3 * hdim + k] = do_ * s.o[k] * (1.0 - s.o[k]);
        }
        let mut dx = vec![0.0; self.idim];
        let mut dh_prev = vec![0.0; hdim];
        for (r, &grad) in dz.iter().enumerate() {
            self.gb[r] += grad;
            let (wxr, gxr) = (&self.wx[r * self.idim..], &mut self.gwx[r * self.idim..]);
            for idx in 0..self.idim {
                gxr[idx] += grad * s.x[idx];
                dx[idx] += grad * wxr[idx];
            }
            let (whr, ghr) = (&self.wh[r * hdim..], &mut self.gwh[r * hdim..]);
            for idx in 0..hdim {
                ghr[idx] += grad * s.h_prev[idx];
                dh_prev[idx] += grad * whr[idx];
            }
        }
        (dx, dh_prev, dc_prev)
    }
}

/// Per-layer `(h, c)` vectors.
type States = (Vec<Vec<f64>>, Vec<Vec<f64>>);

/// Reference LSTM stack with one variational mask per layer per sequence.
struct RefLstm {
    layers: Vec<RefLayer>,
    dropout: Dropout,
}

/// One sequence's forward pass: `steps[layer][t]`, the masks, the final
/// states and the (masked) top-layer output per step.
struct RefSeq {
    steps: Vec<Vec<RefStep>>,
    masks: Vec<Vec<f64>>,
    last: States,
    outputs: Vec<Vec<f64>>,
}

impl RefLstm {
    fn take(w: &mut Weights, dims: &[usize], dropout: f64) -> Self {
        let layer = |d: &[usize]| RefLayer {
            idim: d[0],
            hdim: d[1],
            wx: w.take(4 * d[1] * d[0]),
            wh: w.take(4 * d[1] * d[1]),
            b: w.take(4 * d[1]),
            gwx: vec![0.0; 4 * d[1] * d[0]],
            gwh: vec![0.0; 4 * d[1] * d[1]],
            gb: vec![0.0; 4 * d[1]],
        };
        RefLstm {
            layers: dims.windows(2).map(layer).collect(),
            dropout: Dropout::new(dropout),
        }
    }

    fn zeros(&self) -> States {
        let z: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.hdim]).collect();
        (z.clone(), z)
    }

    fn forward_seq(
        &self,
        xs: &[Vec<f64>],
        init: Option<States>,
        train: bool,
        rng: &mut SimRng,
    ) -> RefSeq {
        let draw = |l: &RefLayer| match train {
            true => mask(self.dropout, l.hdim, rng),
            false => vec![1.0; l.hdim],
        };
        let masks: Vec<Vec<f64>> = self.layers.iter().map(draw).collect();
        let (mut h, mut c) = init.unwrap_or_else(|| self.zeros());
        let mut steps: Vec<Vec<RefStep>> = self.layers.iter().map(|_| Vec::new()).collect();
        let mut outputs = Vec::new();
        for x in xs {
            let mut input = x.clone();
            for (l, layer) in self.layers.iter().enumerate() {
                let s = layer.forward_step(&input, &h[l], &c[l], &masks[l]);
                h[l] = s.h_out.clone();
                c[l] = s.c.clone();
                input = s.h_out.clone();
                steps[l].push(s);
            }
            outputs.push(input);
        }
        RefSeq {
            steps,
            masks,
            last: (h, c),
            outputs,
        }
    }

    /// BPTT; `d_final` seeds the gradients into every layer's final
    /// `(h, c)`. Returns per-step input gradients and `(d_init_h, d_init_c)`.
    fn backward_seq(
        &mut self,
        seq: &RefSeq,
        d_outputs: &[Vec<f64>],
        d_final: Option<States>,
    ) -> (Vec<Vec<f64>>, States) {
        let (mut dh, mut dc) = d_final.unwrap_or_else(|| self.zeros());
        let mut dxs = vec![Vec::new(); d_outputs.len()];
        for t in (0..d_outputs.len()).rev() {
            let mut dnext = d_outputs[t].clone();
            for l in (0..self.layers.len()).rev() {
                for (a, b) in dh[l].iter_mut().zip(&dnext) {
                    *a += b;
                }
                let (dx, dh_prev, dc_prev) =
                    self.layers[l].backward_step(&seq.steps[l][t], &dh[l], &dc[l], &seq.masks[l]);
                dh[l] = dh_prev;
                dc[l] = dc_prev;
                dnext = dx;
            }
            dxs[t] = dnext;
        }
        (dxs, (dh, dc))
    }

    fn grads(&self) -> Vec<f64> {
        let blocks = self.layers.iter().flat_map(|l| [&l.gwx, &l.gwh, &l.gb]);
        blocks.flatten().copied().collect()
    }
}

/// One stochastic encoder-decoder rollout the per-vector way: encode with
/// fresh masks, bridge through `tanh`, then feed the decoder zeros one step
/// at a time.
fn ref_mc_sample(
    model: &EncoderDecoder,
    xs: &[Vec<f64>],
    k: usize,
    rng: &mut SimRng,
) -> Vec<Vec<f64>> {
    let cfg = model.config();
    let stack = |hidden: &[usize]| [&[cfg.input_dim], hidden].concat();
    let (z_dim, top) = (
        *cfg.enc_hidden.last().unwrap(),
        *cfg.dec_hidden.last().unwrap(),
    );
    let mut w = Weights::of(model);
    let encoder = RefLstm::take(&mut w, &stack(&cfg.enc_hidden), cfg.dropout);
    let bridges = |w: &mut Weights| -> Vec<RefLinear> {
        let widths = cfg.dec_hidden.iter();
        widths.map(|&h| RefLinear::take(w, z_dim, h)).collect()
    };
    let (bridges_h, bridges_c) = (bridges(&mut w), bridges(&mut w));
    let decoder = RefLstm::take(&mut w, &stack(&cfg.dec_hidden), 0.0);
    let out = RefLinear::take(&mut w, top, cfg.input_dim);

    let enc = encoder.forward_seq(xs, None, true, rng);
    let z = enc.last.0.last().unwrap();
    let bridge = |bs: &[RefLinear]| -> Vec<Vec<f64>> {
        bs.iter()
            .map(|b| b.forward(z).iter().map(|v| tanh(*v)).collect())
            .collect()
    };
    let mut state = (bridge(&bridges_h), bridge(&bridges_c));
    let zero = vec![vec![0.0; cfg.input_dim]];
    (0..k)
        .map(|_| {
            let step = decoder.forward_seq(&zero, Some(state.clone()), false, rng);
            state = step.last;
            out.forward(&step.outputs[0])
        })
        .collect()
}

/// `rows` random `dim`-wide vectors.
fn random_rows(rng: &mut SimRng, rows: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..rows)
        .map(|_| (0..dim).map(|_| rng.uniform_range(-1.0, 1.0)).collect())
        .collect()
}

/// Stacks one row per lane into a `B×dim` matrix.
fn stack_rows<'a>(rows: impl Iterator<Item = &'a Vec<f64>>) -> Matrix {
    let rows: Vec<&[f64]> = rows.map(Vec::as_slice).collect();
    Matrix::from_rows(&rows)
}

/// Per-layer lane states `[lane][layer]` as one `B×H` matrix per layer.
fn stack_states(lanes: &[Vec<Vec<f64>>]) -> Vec<Matrix> {
    (0..lanes[0].len())
        .map(|l| stack_rows(lanes.iter().map(|s| &s[l])))
        .collect()
}

fn grads_of(model: &mut impl Parameterized) -> Vec<f64> {
    let mut g = Vec::new();
    model.visit_params(&mut |_, grad| g.extend_from_slice(grad));
    g
}

fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// LSTM forward + backward over random shapes, batch sizes and dropout
    /// rates is bit-identical to the reference run lane by lane, including
    /// parameter-gradient accumulation and RNG consumption.
    #[test]
    fn prop_lstm_batch_bitwise_matches_sequential(
        seed in 0u64..1_000,
        batch in 1usize..5,
        steps in 1usize..5,
        in_dim in 1usize..4,
        h1 in 1usize..6,
        h2 in 1usize..5,
        layers in 1usize..3,
        drop_idx in 0usize..3,
    ) {
        let dropout = [0.0, 0.25, 0.5][drop_idx];
        let dims: Vec<usize> = if layers == 2 {
            vec![in_dim, h1, h2]
        } else {
            vec![in_dim, h1]
        };
        let hidden = &dims[1..];
        let mut init_rng = SimRng::seed(seed);
        let lstm = Lstm::new(&dims, dropout, &mut init_rng);
        let mut reference = RefLstm::take(&mut Weights::of(&lstm), &dims, dropout);
        let mut data_rng = init_rng.fork("data");
        let lanes: Vec<Vec<Vec<f64>>> =
            (0..batch).map(|_| random_rows(&mut data_rng, steps, in_dim)).collect();
        let xs_mats: Vec<Matrix> =
            (0..steps).map(|t| stack_rows(lanes.iter().map(|lane| &lane[t]))).collect();

        // Forward: all lanes at once vs the reference lane by lane, same
        // starting RNG.
        let mut ra = SimRng::seed(seed ^ 0x1234);
        let mut rb = ra.clone();
        let cache = lstm.forward_seq_batch(
            batch, BatchInput::PerLane(&xs_mats), None, true, true, &mut ra,
        );
        let seqs: Vec<RefSeq> = lanes
            .iter()
            .map(|xs| reference.forward_seq(xs, None, true, &mut rb))
            .collect();
        prop_assert!(ra == rb, "forward must consume the RNG identically");
        for (b, sq) in seqs.iter().enumerate() {
            for t in 0..steps {
                assert_bits(cache.outputs[t].row(b), &sq.outputs[t], "outputs");
            }
            for l in 0..hidden.len() {
                assert_bits(cache.final_h[l].row(b), &sq.last.0[l], "final_h");
                assert_bits(cache.final_c[l].row(b), &sq.last.1[l], "final_c");
            }
        }

        // Backward, gradients flowing in through every step's output and
        // through the final states: accumulated and input gradients match.
        let top = *dims.last().unwrap();
        let mut lane_grads = |widths: &[usize]| -> Vec<Vec<Vec<f64>>> {
            (0..batch)
                .map(|_| widths.iter().map(|&w| random_rows(&mut data_rng, 1, w).remove(0)).collect())
                .collect()
        };
        let d_outs = lane_grads(&vec![top; steps]);
        let (d_fin_h, d_fin_c) = (lane_grads(hidden), lane_grads(hidden));
        let mut model = lstm.clone();
        model.zero_grad();
        let gb = model.backward_seq_batch(
            &cache,
            &stack_states(&d_outs),
            Some((&stack_states(&d_fin_h), &stack_states(&d_fin_c))),
        );
        for (b, sq) in seqs.iter().enumerate() {
            let d_final = Some((d_fin_h[b].clone(), d_fin_c[b].clone()));
            let (dxs, (dh0, dc0)) = reference.backward_seq(sq, &d_outs[b], d_final);
            for (t, dx) in dxs.iter().enumerate() {
                assert_bits(gb.d_inputs[t].row(b), dx, "d_inputs");
            }
            for l in 0..hidden.len() {
                assert_bits(gb.d_init_h[l].row(b), &dh0[l], "d_init_h");
                assert_bits(gb.d_init_c[l].row(b), &dc0[l], "d_init_c");
            }
        }
        assert_bits(&grads_of(&mut model), &reference.grads(), "lstm grads");
    }

    /// MLP MC-dropout forward + backward is bit-identical to the reference
    /// run row by row for random batch sizes and dropout rates.
    #[test]
    fn prop_mlp_batch_bitwise_matches_sequential(
        seed in 0u64..1_000,
        batch in 1usize..6,
        drop_idx in 0usize..3,
    ) {
        let p = [0.0, 0.2, 0.45][drop_idx];
        let mut rng = SimRng::seed(seed);
        let mlp = Mlp::new(3, &[5, 4], 2, p, &mut rng);
        let mut reference = RefMlp::of(&mlp, &[3, 5, 4, 2], p);
        let mut data_rng = rng.fork("data");
        let x = Matrix::from_fn(batch, 3, |_, _| data_rng.uniform_range(-1.0, 1.0));

        let mut ra = SimRng::seed(seed ^ 0x9);
        let mut rb = ra.clone();
        let cache = mlp.forward_train_batch(&x, &mut ra);
        let ref_caches: Vec<RefMlpCache> = (0..batch)
            .map(|b| reference.forward_train(x.row(b), &mut rb))
            .collect();
        prop_assert!(ra == rb, "forward must consume the RNG identically");
        for (b, rc) in ref_caches.iter().enumerate() {
            assert_bits(cache.output.row(b), &rc.1, "mlp output");
        }

        let d = Matrix::from_fn(batch, 2, |_, _| data_rng.uniform_range(-1.0, 1.0));
        let mut model = mlp.clone();
        model.zero_grad();
        let dxb = model.backward_batch(&cache, &d);
        for (b, rc) in ref_caches.iter().enumerate() {
            assert_bits(dxb.row(b), &reference.backward(rc, d.row(b)), "mlp dx");
        }
        assert_bits(&grads_of(&mut model), &reference.grads(), "mlp grads");
    }

    /// `predict_mc`'s one-pass batch-K rollout returns exactly the samples
    /// that K per-vector reference rollouts produce — and consumes the RNG
    /// stream identically (the regression guard for the one-pass MC
    /// contract).
    #[test]
    fn prop_predict_mc_matches_sequential_mc_samples(
        seed in 0u64..500,
        passes in 1usize..6,
        k in 1usize..4,
    ) {
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            enc_hidden: vec![6, 5],
            dec_hidden: vec![4],
            horizon: 2,
            dropout: 0.3,
        };
        let mut rng = SimRng::seed(seed);
        let model = EncoderDecoder::new(cfg, &mut rng);
        let xs: Vec<Vec<f64>> = (0..7).map(|t| vec![(t as f64 * 0.3).sin()]).collect();

        let mut ra = SimRng::seed(seed ^ 0xABC);
        let mut rb = ra.clone();
        let batched = model.predict_mc(&xs, k, passes, &mut ra);
        let sequential: Vec<_> =
            (0..passes).map(|_| ref_mc_sample(&model, &xs, k, &mut rb)).collect();
        prop_assert!(ra == rb, "predict_mc must consume the RNG like K scalar rollouts");
        prop_assert_eq!(batched.len(), passes);
        for (bp, sp) in batched.iter().zip(&sequential) {
            prop_assert_eq!(bp.len(), k);
            for (bt, st) in bp.iter().zip(sp) {
                assert_bits(bt, st, "mc sample");
            }
        }
    }

    /// Batch-size invariance of mini-batch BPTT: a `B`-lane
    /// `accumulate_batch` leaves the same gradient bits, loss bits and RNG
    /// state as the `B` one-lane calls in order.
    #[test]
    fn prop_accumulate_batch_matches_sequential(
        seed in 0u64..500,
        batch in 1usize..10,
        window in 1usize..8,
        enc in 1usize..7,
        enc2 in 0usize..5,
        dec in 1usize..6,
        drop_idx in 0usize..2,
    ) {
        let cfg = Seq2SeqConfig {
            input_dim: 1,
            enc_hidden: if enc2 == 0 { vec![enc] } else { vec![enc, enc2] },
            dec_hidden: vec![dec],
            horizon: 2,
            dropout: [0.0, 0.1][drop_idx],
        };
        let mut rng = SimRng::seed(seed);
        let mut ma = EncoderDecoder::new(cfg, &mut rng);
        let mut mb = ma.clone();
        let mut data_rng = rng.fork("data");
        let examples: Vec<SeqPair> = (0..batch)
            .map(|_| (random_rows(&mut data_rng, window, 1), random_rows(&mut data_rng, 2, 1)))
            .collect();

        let mut ra = SimRng::seed(seed ^ 0x55);
        let mut rb = ra.clone();
        ma.zero_grad();
        mb.zero_grad();
        let refs: Vec<&SeqPair> = examples.iter().collect();
        let loss_batch = ma.accumulate_batch(&refs, &mut ra);
        let mut loss_seq = 0.0;
        for pair in &examples {
            loss_seq += mb.accumulate_batch(&[pair], &mut rb);
        }
        prop_assert!(ra == rb, "batched BPTT must consume the RNG identically");
        prop_assert_eq!(loss_batch.to_bits(), loss_seq.to_bits());
        assert_bits(&grads_of(&mut ma), &grads_of(&mut mb), "seq2seq grads");
    }
}

/// The deterministic batch-1 `predict` rollout (arena inference step,
/// reused zero decoder input) reproduces the per-vector reference rollout
/// bit for bit: with dropout 0 its stochastic masks are all-ones.
#[test]
fn predict_matches_scalar_rollout_without_dropout() {
    let cfg = Seq2SeqConfig {
        input_dim: 2,
        enc_hidden: vec![7, 6],
        dec_hidden: vec![5, 4],
        horizon: 3,
        dropout: 0.0,
    };
    let mut rng = SimRng::seed(42);
    let model = EncoderDecoder::new(cfg, &mut rng);
    let xs: Vec<Vec<f64>> = (0..9)
        .map(|t| vec![(t as f64 * 0.4).sin(), (t as f64 * 0.2).cos()])
        .collect();
    let batched = model.predict(&xs, 5, &mut rng.clone());
    let scalar = ref_mc_sample(&model, &xs, 5, &mut rng.clone());
    assert_eq!(batched.len(), scalar.len());
    for (b, s) in batched.iter().zip(&scalar) {
        assert_bits(b, s, "predict step");
    }
}

/// `forward_infer` (no caches, no RNG) matches the reference's
/// inference-mode forward pass bit for bit.
#[test]
fn forward_infer_matches_forward_seq() {
    let mut rng = SimRng::seed(7);
    let lstm = Lstm::new(&[2, 6, 4], 0.2, &mut rng);
    let reference = RefLstm::take(&mut Weights::of(&lstm), &[2, 6, 4], 0.2);
    let xs: Vec<Vec<f64>> = (0..5)
        .map(|t| vec![(t as f64 * 0.7).sin(), t as f64 * 0.1])
        .collect();
    let infer = lstm.forward_infer(&xs, None);
    let seq = reference.forward_seq(&xs, None, false, &mut rng.clone());
    assert_bits(
        &infer.last_output,
        seq.outputs.last().unwrap(),
        "last output",
    );
    for l in 0..2 {
        assert_bits(&infer.final_h[l], &seq.last.0[l], "final_h");
        assert_bits(&infer.final_c[l], &seq.last.1[l], "final_c");
    }
}
