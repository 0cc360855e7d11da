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
//! The literals were captured before the request path under them was
//! changed, in debug and `--release`, and must not move when only the way
//! the plane keeps its bookkeeping does (a mismatch prints the observed
//! values). The same run without a sink must reproduce every word but the
//! last three, which pin the telemetry stream itself.
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
    AdmissionConfig, ControlPlane, PredictiveConfig, ServiceConfig, ServiceReport, WarmPoolConfig,
};
use aquatope::sim::{LatencySummary, SimDuration};
use aquatope::telemetry::{Fanout, Recorder, SharedSink};
use aquatope::workflows::azure::{azure_scale, AzureScaleConfig};

/// What the policy saw: tick count, the FNV-1a hash of every observation
/// but its `busy` counts, and the FNV-1a hash of those counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// The pinned observation words.
const WANT_OBS: ObsPin = ObsPin {
    ticks: 120,
    stats: 0xc049_943a_e173_58ee,
    busy: 0x5aa8_8d46_75fe_4960,
};

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

fn summary_bits(s: &LatencySummary, out: &mut Vec<u64>) {
    out.push(s.count as u64);
    for v in [s.mean, s.p50, s.p90, s.p99, s.max] {
        out.push(v.to_bits());
    }
}

/// The report's pinned words: all of `want()` but the telemetry words.
fn report_bits(r: &ServiceReport) -> Vec<u64> {
    let mut got = vec![
        r.sim_horizon.as_micros(),
        r.events_processed,
        r.completed,
        r.rejected_workflows,
        r.arrivals_skipped_in_drain,
        r.invocations_executed,
        r.swept_at_exit as u64,
        r.cost_gb_s.to_bits(),
    ];
    summary_bits(&r.latency, &mut got);
    for t in std::iter::once(&r.admission).chain(r.tenants.iter().map(|t| &t.admission)) {
        got.extend([
            t.admitted,
            t.shed_arrivals,
            t.shed_tasks,
            t.predictive_rejects,
            t.finished,
        ]);
    }
    for t in &r.tenants {
        summary_bits(&t.latency, &mut got);
        got.push(t.qos_misses);
    }
    let p = &r.pool;
    got.extend([
        p.warm_hits,
        p.demand_boots,
        p.prewarm_boots,
        p.boot_failures,
        p.reaped,
        p.shrunk,
        p.semaphore_deferrals,
        p.memory_deferrals,
        p.pressure_evictions,
        p.share_deferrals,
        p.swept,
    ]);
    let rt = &r.runtime;
    got.extend([rt.boots, rt.failed_boots, rt.execs, rt.kills]);
    got.extend([
        r.refit.ticks,
        r.refit.refits,
        r.refit.absorbed,
        r.refit.deferred,
    ]);
    let m = &r.model;
    got.extend([
        m.observed,
        m.absorbed,
        m.compactions,
        m.rejected,
        m.tier_switches,
    ]);
    got
}

/// The pinned words: the report's, then the telemetry stream's event
/// count, line count and FNV-1a hash.
fn want() -> [u64; 94] {
    [
        0x8ac07d1,
        0x35db,
        0x804,
        0x45e,
        0x0,
        0x1398,
        0x28,
        0x40b6a95f634dad1f,
        0x804,
        0x4005e4f9e3758e21,
        0x40011e02a77a2ced,
        0x4016dae09fe86834,
        0x4021c7b18096127c,
        0x402897bfc6540cc8,
        0xc62,
        0x5b3,
        0x45e,
        0xeb,
        0xc62,
        0x312,
        0x2c0,
        0xeb,
        0x87,
        0x312,
        0x398,
        0xee,
        0x190,
        0x64,
        0x398,
        0x43c,
        0x0,
        0x10f,
        0x0,
        0x43c,
        0x17c,
        0x205,
        0xd4,
        0x0,
        0x17c,
        0x227,
        0x3fffee77bf18390f,
        0x3ff96e7a311e85fd,
        0x4012ba3c21187e7c,
        0x401fe2e83a109d06,
        0x4021c1897a67a52b,
        0x195,
        0x208,
        0x400d71900bbd71d3,
        0x400c069057d1782e,
        0x401acda20070684a,
        0x4023bcc2d2a2fa8f,
        0x402724b3e5753a3f,
        0x129,
        0x32d,
        0x40061b74d620f15a,
        0x4000ed00b45ae600,
        0x40174f202107b789,
        0x4022bb2c73d15e01,
        0x402897bfc6540cc8,
        0x0,
        0xa8,
        0x4000f15926680c3a,
        0x3ffd3b6805a2d730,
        0x400edc7ada91b170,
        0x4018145458f2b570,
        0x401b2d08919ef955,
        0x0,
        0x1398,
        0xc5a,
        0x0,
        0x19d,
        0x0,
        0x12,
        0x0,
        0x17f17,
        0xa83,
        0xaf58,
        0x28,
        0xc5a,
        0x19d,
        0x1398,
        0xc5a,
        0x18,
        0x60,
        0x335,
        0x2c5,
        0x3f8,
        0x335,
        0x5,
        0x0,
        0x0,
        0x3f54,
        0x3f54,
        0x6832dd8ecd2828cd,
    ]
}

#[test]
fn service_report_bits_are_pinned() {
    let rec = Arc::new(Mutex::new(Recorder::unbounded()));
    let (r, pin) = run(Some(&rec));
    assert_eq!(pin, WANT_OBS, "observed {pin:#x?}");
    // The run must reach every branch the pin is there to cover.
    assert!(r.admission.shed_arrivals > 0, "{:?}", r.admission);
    assert!(r.admission.shed_tasks > 0, "{:?}", r.admission);
    assert!(r.admission.predictive_rejects > 0, "{:?}", r.admission);
    assert!(r.pool.boot_failures > 0, "{:?}", r.pool);
    assert!(r.rejected_workflows > 0);
    assert_eq!(r.live_containers_at_exit, 0);
    assert_eq!(r.stranded_instances, 0);

    let mut got = report_bits(&r);
    let rec = rec.lock().unwrap();
    let jsonl = rec.to_jsonl();
    got.extend([
        rec.events().len() as u64,
        jsonl.lines().count() as u64,
        fnv1a(&jsonl),
    ]);
    assert_eq!(got, want(), "observed {got:#x?}");
}

#[test]
fn telemetry_leaves_the_report_unchanged() {
    let (r, pin) = run(None);
    assert_eq!(pin, WANT_OBS, "observed {pin:#x?}");
    let got = report_bits(&r);
    assert_eq!(got, want()[..91], "observed {got:#x?}");
}
