//! Integration tests of the cold-start stack: trace generation → simulator
//! → pool policies.

use std::collections::HashMap;

use aquatope::faas::prelude::*;
use aquatope::faas::types::ResourceConfig;
use aquatope::pool::{AquatopePool, AquatopePoolConfig, IceBreakerPolicy};
use aquatope::prelude::*;
use aquatope::workflows::{apps, make_job, RateTraceConfig};

/// Replays one periodic trace under a policy and reports
/// `(cold-start rate, provisioned GB·s)`.
fn replay(controller: &mut dyn PrewarmController, seed: u64) -> (f64, f64) {
    let mut registry = FunctionRegistry::new();
    let app = apps::chain(&mut registry, 2);
    let minutes = 90;
    let mut rng = SimRng::seed(seed);
    // Strongly periodic load: 2 busy minutes, 6 quiet ones.
    let rates: Vec<f64> = (0..minutes)
        .map(|m| if m % 8 < 2 { 12.0 } else { 0.5 })
        .collect();
    let arrivals = aquatope::sim::PoissonProcess::from_per_minute_rates(&rates).generate(&mut rng);
    let configs = StageConfigs::uniform(&app.dag, ResourceConfig::default());
    let job = make_job(&app, configs, arrivals);
    let mut sim = FaasSim::builder()
        .workers(4, 40.0, 131_072)
        .registry(registry)
        .noise(NoiseModel::quiet())
        .seed(seed)
        .build();
    let report = sim.run(&[job], controller, SimTime::from_secs(60 * minutes as u64));
    (report.cold_start_rate(), report.memory_gb_seconds)
}

#[test]
fn predictive_pools_reduce_cold_starts_vs_keep_alive() {
    let mut keep = FixedPrewarm {
        keep_alive: SimDuration::from_secs(120),
        targets: HashMap::new(),
    };
    let (keep_cold, _) = replay(&mut keep, 11);
    let (ice_cold, _) = replay(&mut IceBreakerPolicy::new(), 11);
    assert!(
        ice_cold <= keep_cold,
        "IceBreaker {ice_cold:.3} should beat short keep-alive {keep_cold:.3}"
    );
}

#[test]
fn aquatope_pool_handles_periodic_load() {
    let mut registry = FunctionRegistry::new();
    let app = apps::chain(&mut registry, 2);
    drop(registry);
    let dag = app.dag.clone();
    let mut cfg = AquatopePoolConfig {
        warmup_windows: 30,
        ..AquatopePoolConfig::default()
    };
    cfg.hybrid.window = 12;
    cfg.hybrid.enc_hidden = vec![8];
    cfg.hybrid.dec_hidden = vec![6];
    cfg.hybrid.pretrain_epochs = 2;
    cfg.hybrid.train_epochs = 4;
    cfg.hybrid.mc_passes = 8;
    let mut pool = AquatopePool::new(cfg, &[&dag]);
    let (cold, _mem) = replay(&mut pool, 13);
    // The provider-default 10-minute keep-alive on this trace:
    let (keep_cold, _) = replay(&mut FixedPrewarm::provider_default(), 13);
    assert!(
        cold <= keep_cold + 0.05,
        "Aquatope pool {cold:.3} vs provider keep-alive {keep_cold:.3}"
    );
}

#[test]
fn trace_statistics_flow_into_simulation() {
    // The generated trace's arrival count matches what the simulator sees.
    let mut registry = FunctionRegistry::new();
    let app = apps::chain(&mut registry, 1);
    let mut rng = SimRng::seed(3);
    let bundle = RateTraceConfig::steady(10, 12.0).generate(&mut rng);
    let n = bundle.arrivals.len();
    let configs = StageConfigs::uniform(&app.dag, ResourceConfig::default());
    let job = make_job(&app, configs, bundle.arrivals);
    let mut sim = FaasSim::builder()
        .workers(2, 16.0, 32_768)
        .registry(registry)
        .noise(NoiseModel::quiet())
        .build();
    let mut keep = FixedPrewarm::provider_default();
    let report = sim.run(&[job], &mut keep, SimTime::from_secs(1200));
    assert_eq!(report.workflows.len() + report.unfinished, n);
}
