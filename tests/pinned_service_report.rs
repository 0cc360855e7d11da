//! Bit-level pin on the live control plane's end-of-run report over a
//! small Azure-shaped trace, shaped so every request-path branch runs:
//!
//! * four round-robin tenants with different SLOs, in-flight caps, queue
//!   caps and memory shares, one of them best-effort;
//! * the predictive veto, armed on every tenant with a finite SLO;
//! * a memory budget of forty containers, pressure-evicted and borrowed
//!   across tenant shares all run long, and queue caps tight enough that
//!   arrivals are shed at the front door and queued tasks are shed, which
//!   aborts instances while their other tasks still wait in a queue or run
//!   (every multi-stage app fans its second stage out to three tasks, so
//!   an aborted instance keeps live waiters and its bookkeeping is
//!   recycled only after they drain);
//! * a fault plan that fails one boot in eight.
//!
//! The report's words are pinned in `tests/golden/pins.txt`. They were
//! captured before the request path under them was changed, in debug and
//! `--release`, and must not move when only the way the plane keeps its
//! bookkeeping does. The same run without a sink must reproduce every
//! word; only the traced run pins the telemetry stream itself.
//!
//! The observations the plane hands its policy are pinned as well: the
//! tick count, one hash over every window's time and each function's
//! invocations, peak, booting, idle and failed-boot counts, and one hash
//! over the `busy` counts alone.

use std::sync::{Arc, Mutex};

use aquatope::faas::{
    FaultPlan, FaultRates, PoolDecision, PoolObservation, PrewarmController, QosClass,
    ResourceConfig, Stage, TenantId, TenantPlan, WorkflowDag,
};
use aquatope::pool::HistogramPolicy;
use aquatope::service::{
    AdmissionConfig, AdmissionStats, ControlPlane, PredictiveConfig, ServiceConfig, ServiceReport,
    WarmPoolConfig,
};
use aquatope::sim::{LatencySummary, SimDuration};
use aquatope::telemetry::golden::assert_pinned;
use aquatope::telemetry::pin_fields;
use aquatope::telemetry::{Fanout, Recorder, SharedSink};
use aquatope::workflows::azure::{azure_scale, AzureScaleConfig};

/// What the policy saw: tick count, the FNV-1a hash of every observation
/// but its `busy` counts, and the FNV-1a hash of those counts.
#[derive(Clone, Copy)]
struct ObsPin {
    ticks: u64,
    stats: u64,
    busy: u64,
}

/// A `HistogramPolicy` that folds each observation into an [`ObsPin`].
struct Recording {
    inner: HistogramPolicy,
    pin: Arc<Mutex<ObsPin>>,
}

impl PrewarmController for Recording {
    fn tick(&mut self, obs: &PoolObservation) -> Vec<PoolDecision> {
        {
            let mut pin = self.pin.lock().unwrap();
            pin.ticks += 1;
            pin.stats = fnv1a_word(pin.stats, obs.now.as_micros());
            for s in &obs.stats {
                for w in [
                    s.function.0 as u64,
                    u64::from(s.invocations),
                    u64::from(s.peak_concurrency),
                    u64::from(s.booting),
                    u64::from(s.idle),
                    u64::from(s.failed_boots),
                ] {
                    pin.stats = fnv1a_word(pin.stats, w);
                }
                pin.busy = fnv1a_word(pin.busy, u64::from(s.busy));
            }
        }
        self.inner.tick(obs)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one byte into an FNV-1a hash.
fn fnv1a_byte(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
}

/// Folds one word, little-endian, into an FNV-1a hash.
fn fnv1a_word(h: u64, w: u64) -> u64 {
    w.to_le_bytes().into_iter().fold(h, fnv1a_byte)
}

/// Runs the plane, feeding its telemetry to `rec` when given.
fn run(rec: Option<&Arc<Mutex<Recorder>>>) -> (ServiceReport, ObsPin) {
    let azure = AzureScaleConfig {
        apps: 40,
        minutes: 2,
        total_rpm: 2_400.0,
        chain_fraction: 0.4,
        ..AzureScaleConfig::smoke()
    };
    let mut wl = azure_scale(&azure);
    for job in &mut wl.jobs {
        if job.dag.num_stages() > 1 {
            let stages = job
                .dag
                .stages()
                .enumerate()
                .map(|(i, s)| Stage::new(s.function, if i == 1 { 3 } else { 1 }, s.deps.clone()))
                .collect();
            job.dag = WorkflowDag::new(job.dag.name().to_string(), stages);
        }
    }
    let mem = ResourceConfig::new(1.0, 1024.0, 2).memory_mb;
    let plan = TenantPlan {
        classes: vec![
            QosClass::new(SimDuration::from_millis(600), 12, 3, 4.0 * mem),
            QosClass::new(SimDuration::from_secs(3), 24, 6, 4.0 * mem),
            QosClass::unlimited(),
            QosClass::new(SimDuration::from_secs(30), 8, 2, 0.0),
        ],
        job_tenants: (0..wl.jobs.len()).map(|j| TenantId(j % 4)).collect(),
    };
    let cfg = ServiceConfig {
        pool: WarmPoolConfig {
            memory_budget_mb: 40.0 * mem,
            ..WarmPoolConfig::default()
        },
        admission: AdmissionConfig {
            max_inflight: 200,
            queue_cap: 8,
        },
        model_sample_every: 2,
        refit_interval: SimDuration::from_secs(5),
        predictive: PredictiveConfig::enabled(6, 1.0),
        run_for: SimDuration::from_secs(azure.minutes * 60),
        seed: 20230325,
        ..ServiceConfig::default()
    };
    let faults = FaultPlan::from_seed(
        31,
        FaultRates {
            boot_fail: 0.125,
            ..FaultRates::default()
        },
    );
    let pin = Arc::new(Mutex::new(ObsPin {
        ticks: 0,
        stats: FNV_OFFSET,
        busy: FNV_OFFSET,
    }));
    let policy = Recording {
        inner: HistogramPolicy::default(),
        pin: Arc::clone(&pin),
    };
    let mut plane =
        ControlPlane::new(wl.registry, wl.jobs, Box::new(policy), &faults, cfg).with_tenants(plan);
    if let Some(rec) = rec {
        plane.attach_telemetry(Box::new(Fanout::new(vec![rec.clone() as SharedSink])), 256);
    }
    let report = plane.run();
    let pin = *pin.lock().unwrap();
    (report, pin)
}

/// FNV-1a over the telemetry stream: one number that moves with any byte.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(FNV_OFFSET, fnv1a_byte)
}

fn admission(p: &str, a: &AdmissionStats) -> Vec<(String, u64)> {
    pin_fields!(p, a; admitted, shed_arrivals, shed_tasks, predictive_rejects, finished)
}

fn latency(p: &str, s: &LatencySummary) -> Vec<(String, u64)> {
    pin_fields!(p, s; count, mean, p50, p90, p99, max)
}

/// The report's and the observations' pinned words, by field name.
fn report_pins(r: &ServiceReport, obs: ObsPin) -> Vec<(String, u64)> {
    let mut got = [
        pin_fields!("", r; events_processed, completed, rejected_workflows,
            arrivals_skipped_in_drain, invocations_executed, swept_at_exit, cost_gb_s),
        admission("admission.", &r.admission),
        latency("latency.", &r.latency),
        pin_fields!("pool.", r.pool; warm_hits, demand_boots, prewarm_boots, boot_failures,
            reaped, shrunk, semaphore_deferrals, memory_deferrals, pressure_evictions,
            share_deferrals, swept),
        pin_fields!("runtime.", r.runtime; boots, failed_boots, execs, kills),
        pin_fields!("refit.", r.refit; ticks, refits, absorbed, deferred),
        pin_fields!("model.", r.model; observed, absorbed, compactions, rejected, tier_switches),
        pin_fields!("observations.", obs; ticks, stats, busy),
    ]
    .concat();
    got.push(("sim_horizon_us".into(), r.sim_horizon.as_micros()));
    for (i, t) in r.tenants.iter().enumerate() {
        got.extend(admission(&format!("tenant{i}.admission."), &t.admission));
        got.extend(latency(&format!("tenant{i}.latency."), &t.latency));
        got.push((format!("tenant{i}.qos_misses"), t.qos_misses));
    }
    got
}

#[test]
fn service_report_bits_are_pinned() {
    let rec = Arc::new(Mutex::new(Recorder::unbounded()));
    let (r, pin) = run(Some(&rec));
    // The run must reach every branch the pin is there to cover.
    assert!(r.admission.shed_arrivals > 0, "{:?}", r.admission);
    assert!(r.admission.shed_tasks > 0, "{:?}", r.admission);
    assert!(r.admission.predictive_rejects > 0, "{:?}", r.admission);
    assert!(r.pool.boot_failures > 0, "{:?}", r.pool);
    assert!(r.rejected_workflows > 0);
    assert_eq!(r.live_containers_at_exit, 0);
    assert_eq!(r.stranded_instances, 0);

    assert_pinned("service_report", &report_pins(&r, pin));
    let rec = rec.lock().unwrap();
    let jsonl = rec.to_jsonl();
    assert_pinned(
        "service_report_traced",
        &[
            ("telemetry.events", rec.events().len() as u64),
            ("telemetry.lines", jsonl.lines().count() as u64),
            ("telemetry.fnv", fnv1a(&jsonl)),
        ],
    );
}

#[test]
fn telemetry_leaves_the_report_unchanged() {
    let (r, pin) = run(None);
    assert_pinned("service_report", &report_pins(&r, pin));
}
