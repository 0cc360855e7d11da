//! Bit-level pins, in `tests/golden/pins.txt`, on the forecasters that
//! train an LSTM: two small `HybridBayesian` models whose blocks mostly miss
//! the kernels' full-width tiles, the one the pre-warm pool trains (the
//! widths `aquatope_mix` runs) and `VanillaLstm`. They must not move when
//! only the NN engine, the training step's data layout or its optimizer
//! kernel does.

use aquatope::forecast::{
    HybridBayesian, HybridConfig, Predictor, SeriesPoint, TriggerKind, VanillaLstm,
};
use aquatope::pool::AquatopePoolConfig;
use aquatope::telemetry::golden::assert_pinned;
use aquatope::telemetry::pin_fields;

/// Integer-arithmetic series (no libm in the inputs): a 13-window sawtooth
/// riding a 5-window one.
fn series(n: usize) -> Vec<SeriesPoint> {
    (0..n)
        .map(|t| {
            let v = 6 + (t * 7) % 13 + 2 * (t % 5);
            SeriesPoint::new(v as f64, t as u64, TriggerKind::Http)
        })
        .collect()
}

#[test]
fn hybrid_bayesian_forecast_bits_are_pinned() {
    let s = series(140);
    let mut pins = Vec::new();
    for seed in [21, 22] {
        let mut model = HybridBayesian::new(HybridConfig {
            window: 10,
            horizon: 2,
            enc_hidden: vec![7, 5],
            dec_hidden: vec![4],
            mlp_hidden: vec![9, 6],
            dropout: 0.1,
            pretrain_epochs: 2,
            train_epochs: 3,
            mc_passes: 6,
            seed,
        });
        model.fit(&s[..120]);
        pins.extend(pin_fields!(format!("seed{seed}."), model.forecast(&s[..130]); mean, std));
        pins.push((
            format!("seed{seed}.point"),
            model.forecast_point(&s).to_bits(),
        ));
    }
    assert_pinned("hybrid_forecast", &pins);
}

#[test]
fn pool_default_hybrid_forecast_bits_are_pinned() {
    let s = series(130);
    let mut model = HybridBayesian::new(AquatopePoolConfig::default().hybrid);
    // 84 pre-training examples (one Adam step each) and 86 stage-2
    // windows: five full MLP chunks of 16 and a ragged one of 6.
    model.fit(&s[..110]);
    let mut pins = pin_fields!("", model.forecast(&s[..120]); mean, std);
    pins.push(("point".into(), model.forecast_point(&s).to_bits()));
    assert_pinned("pool_default_forecast", &pins);
}

#[test]
fn vanilla_lstm_forecast_bits_are_pinned() {
    let s = series(90);
    let mut pins = Vec::new();
    for seed in [31, 32] {
        // 67 training windows: eight full chunks of 8 and a ragged one of 3.
        let mut model = VanillaLstm::with_seed(9, 2, seed);
        model.fit(&s[..76]);
        pins.extend(pin_fields!(format!("seed{seed}."), model.forecast(&s); mean, std));
    }
    assert_pinned("lstm_forecast", &pins);
}
