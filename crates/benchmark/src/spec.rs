//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repo root is generated
//! from this file (`aqua-benchmark --print-spec`) and a test keeps the
//! two equal, so a name can be neither printed without being declared
//! nor declared without being printed.

use crate::workloads::Workload;

/// Seconds one run measures by default; `--seconds` scales the fixed
/// replay counts proportionally.
pub const RUN_SECONDS: u64 = 20;

/// Seed used while developing a change.
pub const DEV_SEED: u64 = 1;

/// Held-out seed: a claim made on [`DEV_SEED`] must also hold here.
pub const HELD_OUT_SEED: u64 = 20_230_325;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Unit of a share emitted as `1 + share`, so that it is never 0 and a
/// relative bound on the emitted value is an absolute bound on the share.
pub const ONE_PLUS_SHARE: &str = "one_plus_share";

/// The eleven end-to-end metrics, every one produced by every workload
/// from its own run. Each simulated metric's bound is three times the
/// widest interquartile spread (over its median) seen over ten seeds on
/// any workload — the seed-to-seed spread of `svc_overload` — because a
/// benchmark whose own spread reaches a bound cannot resolve it
/// (`peak_rss_mb` on the same rule: allocator jitter on `svc_overload`'s
/// 12 MiB). The other host-time metrics carry the largest bound the contract allows: this
/// 2-core VM alternates between quiet stretches (ten-seed spread 2–6 %)
/// and minutes-long slow ones (the same code 30 % slower, spread up to
/// 22 %), and no statistic taken inside a run can see through the second.
pub const END_TO_END: [Metric; 11] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("inv_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.12),
    e2e("qos_violation_rate", ONE_PLUS_SHARE, Lower, 0.03),
    e2e("latency_p50_s", "sim_s", Lower, 0.08),
    e2e("latency_tail_s", "sim_s", Lower, 0.18),
    e2e("cost_gb_s", "GB.s", Lower, 0.04),
    e2e("cold_start_ratio", ONE_PLUS_SHARE, Lower, 0.02),
    e2e("failed_share", ONE_PLUS_SHARE, Lower, 0.05),
    e2e("sim_s_per_host_s", "ratio", Higher, 0.25),
];

/// The per-layer metrics of the traced run; the prefix is the crate. A
/// layer that does no work on a workload reports 0 there.
pub const PER_LAYER: [Metric; 77] = [
    layer("workflows.azure_gen_s", "s", Lower),
    layer("sim.eq_ns_d4k", "ns", Lower),
    layer("sim.eq_ns_d256k", "ns", Lower),
    layer("sim.eq_share", "share", Lower),
    layer("faas.events", "count", Lower),
    layer("faas.ns_per_event", "ns", Lower),
    layer("faas.rss_mb_per_minv", "MiB", Lower),
    layer("faas.exec_sample_ns", "ns", Lower),
    layer("faas.boot_kill_ns", "ns", Lower),
    layer("faas.profile_config_ms", "ms", Lower),
    layer("faas.shard2_wall_ratio", "ratio", Lower),
    layer("faas.unfinished", "count", Lower),
    layer("service.events", "count", Lower),
    layer("service.ns_per_event", "ns", Lower),
    layer("service.admit_finish_ns", "ns", Lower),
    layer("service.pool_hit_ns", "ns", Lower),
    layer("service.pool_miss_ns", "ns", Lower),
    layer("service.filler_tick_us", "us", Lower),
    layer("service.idle_run_s", "s", Lower),
    layer("service.tick_floor_share", "share", Lower),
    layer("service.demand_boots", "count", Lower),
    layer("service.prewarm_boots", "count", Lower),
    layer("service.semaphore_deferrals", "count", Lower),
    layer("service.memory_deferrals", "count", Lower),
    layer("service.share_deferrals", "count", Lower),
    layer("service.shed", "count", Lower),
    layer("service.predictive_rejects", "count", Lower),
    layer("service.refits", "count", Lower),
    layer("service.absorbed", "count", Higher),
    layer("service.tier_switches", "count", Lower),
    layer("service.warm_served_share", "share", Higher),
    layer("telemetry.null_sink_overhead_share", "share", Lower),
    layer("telemetry.jsonl_ns_per_event", "ns", Lower),
    layer("telemetry.events_per_inv", "ratio", Lower),
    layer("telemetry.invariant_violations", "count", Lower),
    layer("pool.ticks", "count", Lower),
    layer("pool.tick_busy_s", "s", Lower),
    layer("pool.tick_ms_p50", "ms", Lower),
    layer("pool.tick_ms_p95", "ms", Lower),
    layer("pool.target_coverage", "share", Higher),
    layer("pool.target_excess", "ratio", Lower),
    layer("forecast.hybrid_train_ms", "ms", Lower),
    layer("forecast.hybrid_predict_ms", "ms", Lower),
    layer("forecast.interval_coverage", "share", Higher),
    layer("nn.seq2seq_mc_rollout_us", "us", Lower),
    layer("nn.seq2seq_train_epoch_ms", "ms", Lower),
    layer("nn.mlp_mc_us", "us", Lower),
    layer("nn.lstm_forward_us", "us", Lower),
    layer("linalg.gemm_gflops_lstm", "GFLOP/s", Higher),
    layer("linalg.gemm_gflops_kernel", "GFLOP/s", Higher),
    layer("linalg.chol_factor_ms_n256", "ms", Lower),
    layer("linalg.chol_extend_us_n256", "us", Lower),
    layer("linalg.rank_one_update_us_m64", "us", Lower),
    layer("gp.fit_ms_n64", "ms", Lower),
    layer("gp.fit_ms_n256", "ms", Lower),
    layer("gp.extend_us_n256", "us", Lower),
    layer("gp.propose_batch_ms_n64", "ms", Lower),
    layer("gp.sparse_fit_ms_n1024", "ms", Lower),
    layer("gp.sparse_absorb_us_m64", "us", Lower),
    layer("gp.sparse_propose_batch_us_n1024", "us", Lower),
    layer("alloc.evals", "count", Lower),
    layer("alloc.search_s", "s", Lower),
    layer("alloc.bo_iter_ms_p50", "ms", Lower),
    layer("alloc.bo_iter_ms_p95", "ms", Lower),
    layer("alloc.evaluate_ms_p50", "ms", Lower),
    layer("alloc.feasible_share", "share", Higher),
    layer("alloc.online_observe_ns", "ns", Lower),
    layer("alloc.online_predict_us", "us", Lower),
    layer("alloc.online_refit_ms_exact", "ms", Lower),
    layer("alloc.online_refit_ms_sparse", "ms", Lower),
    layer("scenarios.sim_cell_ms", "ms", Lower),
    layer("scenarios.svc_cell_ms", "ms", Lower),
    layer("scenarios.drift_pp_max", "pp", Lower),
    layer("core.plan_s", "s", Lower),
    layer("core.online_s", "s", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.attributed_share", "share", Higher),
];

/// Why each workload is in the benchmark, one line each.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::SvcAzure => "live ControlPlane on the Azure-shaped hour: the per-event path of service (reactor, admission, warm pool, exec sampling) under a HistogramPolicy tick every second and budgeted GP refits",
        Workload::SimAzure => "same trace and seeds through the batch FaasSim: the other container-lifecycle engine, so a gain for one engine that costs the other shows",
        Workload::AquatopeMix => "paper Fig. 18 end to end on one fixed trace (--seed is ignored): the run is pool, forecast, nn and linalg gemm (BNN training), while service and the event loops do nothing",
        Workload::SvcOverload => "live ControlPlane overloaded on a 4-container pool: timer ticks, shedding, predictive vetoes, GP refits and the sparse tier dominate, where the per-event path matters little",
    }
}

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "-p",
    "aqua-benchmark",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["crates/benchmark"];

fn quoted(items: &[&str]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    q.join(", ")
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out += &format!("  \"command\": [{}],\n", quoted(&COMMAND));
    out += &format!("  \"paths\": [{}],\n", quoted(&PATHS));
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    out += "  \"workloads\": [\n";
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(*w)
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()), "{}", w.name());
            assert!(seen.insert(w.name()), "duplicate {}", w.name());
            assert!(why(w).len() <= 200 && !why(w).contains('\n'), "{}", why(w));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END[0].bound, largest,
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_text() {
        // Every name the binary prints comes from the tables above, and
        // the committed file is byte-equal to their rendering, so the two
        // name sets cannot drift apart.
        let committed = include_str!("../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run -p aqua-benchmark -- --print-spec > BENCHMARK.json`"
        );
        assert!(committed.len() < 64 * 1024);
    }
}
