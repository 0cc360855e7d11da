//! Table 1: prediction accuracy (SMAPE) of the pool-sizing models.
//!
//! Paper: fixed Keep-Alive 24.5%, ARIMA 18.6%, LSTM 9.5%, Aquatope 5.7% —
//! averaged "across different serverless workflows and invocation
//! patterns". We average over three Azure-dataset-like pattern families:
//! diurnal HTTP traffic, timer-dominated (cron spikes — the most common
//! Azure pattern), and bursty event-driven traffic.

use aqua_forecast::{
    smape_eval, Arima, HybridBayesian, HybridConfig, NaiveLast, Predictor, SeriesPoint,
    TriggerKind, VanillaLstm,
};
use aqua_sim::SimRng;
use aqua_workflows::RateTraceConfig;
use serde_json::json;

fn trace_families(minutes: usize) -> Vec<(&'static str, RateTraceConfig, TriggerKind)> {
    vec![
        (
            "diurnal-http",
            RateTraceConfig {
                minutes,
                mean_rpm: 60.0,
                diurnal: 0.5,
                weekly: 0.0,
                burst_prob: 0.004,
                burst_scale: 2.0,
                burst_len: 5.0,
                rate_noise_cv: 0.1,
                business_hours: 1.0,
                timer_spike: None,
            },
            TriggerKind::Http,
        ),
        (
            "timer-cron",
            RateTraceConfig {
                minutes,
                mean_rpm: 40.0,
                diurnal: 0.5,
                weekly: 0.0,
                burst_prob: 0.004,
                burst_scale: 2.0,
                burst_len: 5.0,
                rate_noise_cv: 0.1,
                business_hours: 1.0,
                timer_spike: Some((15, 4.0)),
            },
            TriggerKind::Timer,
        ),
        (
            "bursty-events",
            RateTraceConfig {
                minutes,
                mean_rpm: 50.0,
                diurnal: 0.3,
                weekly: 0.0,
                burst_prob: 0.02,
                burst_scale: 3.0,
                burst_len: 8.0,
                rate_noise_cv: 0.2,
                business_hours: 0.0,
                timer_spike: Some((30, 2.0)),
            },
            TriggerKind::EventHub,
        ),
    ]
}

/// Runs the experiment and returns its JSON record.
pub fn run() -> serde_json::Value {
    let minutes = 4 * 24 * 60;
    let (lstm_epochs, hybrid_pre, hybrid_train) = (5, 3, 8);

    let families = trace_families(minutes);
    let model_names = ["Fixed Keep-Alive", "ARIMA", "LSTM", "Aquatope"];
    let mut sums = vec![0.0; model_names.len()];
    let mut per_family = Vec::new();

    for (fi, (fam_name, cfg, trigger)) in families.iter().enumerate() {
        let mut rng = SimRng::seed(0x7AB1E + fi as u64);
        let counts = cfg.generate(&mut rng).counts_per_minute();
        let series: Vec<SeriesPoint> = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| SeriesPoint::new(c, i as u64, *trigger))
            .collect();
        let train_len = series.len() * 3 / 4;

        let mut models: Vec<Box<dyn Predictor>> = vec![
            Box::new(NaiveLast::new()),
            Box::new(Arima::new(12, 1)),
            Box::new(VanillaLstm::with_seed(24, lstm_epochs, 9 + fi as u64)),
            Box::new(HybridBayesian::new(HybridConfig {
                pretrain_epochs: hybrid_pre,
                train_epochs: hybrid_train,
                seed: 0xA00A + fi as u64,
                ..HybridConfig::default()
            })),
        ];
        let mut family_row = Vec::new();
        for (mi, model) in models.iter_mut().enumerate() {
            let report = smape_eval(model.as_mut(), &series, train_len);
            sums[mi] += report.smape;
            family_row.push(report.smape);
        }
        per_family.push((fam_name.to_string(), family_row));
    }

    let n = families.len() as f64;
    let means: Vec<f64> = sums.iter().map(|s| s / n).collect();

    let paper = [24.5, 18.6, 9.5, 5.7];
    json!({
        "experiment": "table1",
        "models": model_names,
        "mean_smape": means,
        "paper_smape_pct": paper,
        "per_family": per_family.iter().map(|(f, v)| json!({"family": f, "smape": v})).collect::<Vec<_>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_cover_three_patterns() {
        let fams = trace_families(60);
        assert_eq!(fams.len(), 3);
        assert!(fams.iter().any(|(_, c, _)| c.timer_spike.is_some()));
    }
}
