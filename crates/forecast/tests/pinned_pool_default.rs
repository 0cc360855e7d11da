//! Bit-level pin on the model the pre-warm pool actually trains: the
//! pool-default `HybridBayesian` (`enc_hidden [32]`, `dec_hidden [12]`,
//! 6/14 epochs — `AquatopePoolConfig::default().hybrid`, spelled out here
//! because `aqua-pool` sits above this crate). `pinned_bits.rs` pins small
//! models whose blocks mostly miss the kernels' full-width tiles; this one
//! runs the widths `aquatope_mix` runs. The literals were captured before
//! the training step under them was changed, in debug and `--release`, and
//! must not move when only the step's data layout or optimizer kernel does
//! (run with `--nocapture`; a mismatch prints the observed bits).

use aqua_forecast::{HybridBayesian, HybridConfig, Predictor, SeriesPoint, TriggerKind};

/// The integer sawtooth of `pinned_bits.rs`.
fn series(n: usize) -> Vec<SeriesPoint> {
    (0..n)
        .map(|t| {
            let v = 6 + (t * 7) % 13 + 2 * (t % 5);
            SeriesPoint::new(v as f64, t as u64, TriggerKind::Http)
        })
        .collect()
}

#[test]
fn pool_default_hybrid_forecast_bits_are_pinned() {
    let want: [u64; 3] = [0x4031fea907001f51, 0x401759136c4faec4, 0x40273b994593940e];
    let s = series(130);
    let mut model = HybridBayesian::new(HybridConfig {
        window: 24,
        horizon: 2,
        enc_hidden: vec![32],
        dec_hidden: vec![12],
        mlp_hidden: vec![48, 24],
        dropout: 0.05,
        pretrain_epochs: 6,
        train_epochs: 14,
        mc_passes: 25,
        seed: 0xA00A,
    });
    // 84 pre-training examples (one Adam step each) and 86 stage-2
    // windows: five full MLP chunks of 16 and a ragged one of 6.
    model.fit(&s[..110]);
    let f = model.forecast(&s[..120]);
    let point = model.forecast_point(&s);
    let got = [f.mean, f.std, point];
    let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, want, "observed {bits:#x?} for values {got:?}");
}
