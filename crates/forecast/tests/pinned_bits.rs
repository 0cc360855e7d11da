//! Bit-level pins on the two forecasters that train an LSTM: the literals
//! below were captured before the NN engine under them was changed, in
//! debug and `--release`, and must never move when only the engine does.
//! A change that is *meant* to alter the trained model re-captures them
//! (run with `--nocapture`; a mismatch prints the observed bits).

use aqua_forecast::{
    HybridBayesian, HybridConfig, Predictor, SeriesPoint, TriggerKind, VanillaLstm,
};

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

fn assert_pinned(what: &str, got: &[f64], want: &[u64]) {
    let bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, want, "{what}: observed {bits:#x?} for values {got:?}");
}

#[test]
fn hybrid_bayesian_forecast_bits_are_pinned() {
    let pins: [(u64, [u64; 3]); 2] = [
        (
            21,
            [0x4038c590af725af5, 0x402066351cb6d00a, 0x4031f7427c844fce],
        ),
        (
            22,
            [0x40334d8d00e85b9e, 0x40247fef10ef7074, 0x402b71eb13274ee3],
        ),
    ];
    let s = series(140);
    for (seed, want) in pins {
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
        let f = model.forecast(&s[..130]);
        let point = model.forecast_point(&s);
        assert_pinned(
            &format!("hybrid seed {seed}"),
            &[f.mean, f.std, point],
            &want,
        );
    }
}

#[test]
fn vanilla_lstm_forecast_bits_are_pinned() {
    let pins: [(u64, [u64; 2]); 2] = [
        (31, [0x4029197bf3001b4d, 0x4017f8dc8ffc03ae]),
        (32, [0x402a80a1ea5b6b96, 0x40169c2278d437de]),
    ];
    let s = series(90);
    for (seed, want) in pins {
        // 67 training windows: eight full chunks of 8 and a ragged one of 3.
        let mut model = VanillaLstm::with_seed(9, 2, seed);
        model.fit(&s[..76]);
        let f = model.forecast(&s);
        assert_pinned(&format!("lstm seed {seed}"), &[f.mean, f.std], &want);
    }
}
