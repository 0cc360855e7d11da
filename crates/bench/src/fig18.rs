//! Fig. 18: end-to-end comparison — QoS violations, CPU time, and memory
//! time of Autoscale, IceBreaker+CLITE, and the full AQUATOPE on the
//! complete application mix.
//!
//! Paper shape: Aquatope brings QoS violations below 3% (5× better),
//! reduces CPU time by 37–55% and memory time by 41–64% vs the
//! alternatives.

use aqua_sim::{SimRng, SimTime};
use aqua_workflows::split_history;
use aquatope_core::{
    run_framework_with_history, AquatopeConfig, AquatopePoolConfig, ClusterSpec, Framework,
    Workload,
};
use serde_json::json;

use crate::common::all_apps;

/// Intermittent per-app traffic: timer bursts every `period` minutes plus
/// rare irregular singles — the Azure-dataset regime where pre-warming
/// decides both QoS (cold-start latency) and memory (idle containers).
fn intermittent_arrivals(minutes: usize, period: u64, per_burst: usize, seed: u64) -> Vec<SimTime> {
    let mut rng = SimRng::seed(seed);
    let mut out = Vec::new();
    let phase = rng.below(period as usize) as u64;
    for m in 0..minutes as u64 {
        if m % period == phase {
            // Real timer traffic jitters by a minute or two and varies in
            // width — exact machine periodicity would be a gift to pure
            // spectral extrapolation.
            let jitter = rng.below(3) as u64; // 0..2 minutes late
            let width = 1 + rng.below(per_burst.max(1));
            for k in 0..width {
                out.push(SimTime::from_secs((m + jitter) * 60 + 5 + 7 * k as u64));
            }
        } else if rng.chance(0.02) {
            out.push(SimTime::from_secs(m * 60 + rng.below(50) as u64 + 5));
        }
    }
    out.sort_unstable();
    out
}

/// Runs the experiment and returns its JSON record.
pub fn run() -> serde_json::Value {
    let minutes = 360;
    let history_minutes = 720usize;
    let (registry, apps) = all_apps();
    let periods = [15u64, 20, 20, 20, 12];
    let bursts = [2usize, 2, 1, 2, 2];
    // Generate history + live traffic in one stream per app: the recorded
    // prefix trains the predictive pools, the suffix is measured.
    let mut workloads = Vec::new();
    let mut history = Vec::new();
    for (i, app) in apps.into_iter().enumerate() {
        let all = intermittent_arrivals(
            history_minutes + minutes,
            periods[i],
            bursts[i],
            0xF1618 + i as u64,
        );
        let split = split_history(&app.dag, &all, history_minutes);
        history.extend(split.history);
        workloads.push(Workload {
            app,
            arrivals: split.live,
        });
    }

    let mut cfg = AquatopeConfig::fast();
    cfg.search_budget = 30;
    // Full-capacity pool model (fast() shrinks it too far to learn the
    // timer phases); history is preloaded, so training starts immediately.
    cfg.pool = AquatopePoolConfig::default();
    cfg.pool.warmup_windows = 60;
    cfg.pool.retrain_every = 240;
    cfg.pool.training_window = history_minutes.min(960);
    let horizon = SimTime::from_secs(60 * (minutes as u64 + 3));

    let frameworks = [
        Framework::Autoscale,
        Framework::IceBreakerClite,
        Framework::Aquatope,
    ];
    let reports: Vec<_> = frameworks
        .iter()
        .map(|&fw| {
            let report = run_framework_with_history(
                fw,
                &registry,
                &workloads,
                ClusterSpec::default(),
                horizon,
                &cfg,
                &history,
            );
            (fw, report)
        })
        .collect();

    json!({
        "experiment": "fig18",
        "frameworks": reports.iter().map(|(fw, r)| json!({
            "name": fw.name(),
            "qos_violation_rate": r.qos_violation_rate,
            "cpu_core_seconds": r.cpu_core_seconds,
            "memory_gb_seconds": r.memory_gb_seconds,
            "cold_start_rate": r.cold_start_rate,
            "completed": r.completed,
        })).collect::<Vec<_>>(),
    })
}
