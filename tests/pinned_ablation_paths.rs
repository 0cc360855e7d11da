//! Bit-level pins on the controller paths no other pin or golden covers:
//!
//! * the AquaLite pool (`AquatopePool::aqualite`) over a noisy series:
//!   every target, the predicted mean and σ behind it, and the keep-alive
//!   it hands out;
//! * the AquaLite resource manager (`AquatopeRm::aqualite`) on the ML
//!   pipeline under production noise: every evaluated point and the pick;
//! * a two-phase `AquatopeRm` search whose workload turns heavy between
//!   the phases, so behaviour-change detection fires and the sliding
//!   window drops the old observations.
//!
//! Floats are compared by `to_bits`, folded into an FNV-1a hash pinned in
//! `tests/golden/pins.txt` beside the counts. They were captured before
//! the controllers' tunables became named constants, in debug and
//! `--release`, and must not move while those constants keep their values.

use aquatope::alloc::testkit::tiny_problem;
use aquatope::alloc::{AquatopeRm, ResourceManager, SearchOutcome, SearchStep, SimEvaluator};
use aquatope::faas::sim::FnWindowStats;
use aquatope::faas::types::ConfigSpace;
use aquatope::faas::{
    FaasSim, FunctionId, FunctionRegistry, FunctionSpec, NoiseModel, PoolObservation,
    PrewarmController, WorkflowDag,
};
use aquatope::forecast::HybridConfig;
use aquatope::pool::{AquatopePool, AquatopePoolConfig};
use aquatope::prelude::*;
use aquatope::telemetry::golden::assert_pinned;
use aquatope::workflows::apps;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0100_0000_01b3);
    }

    fn add_f64(&mut self, v: f64) {
        self.add(v.to_bits());
    }

    fn add_steps(&mut self, steps: &[SearchStep]) {
        for s in steps {
            s.u.iter().for_each(|&v| self.add_f64(v));
            self.add_f64(s.latency);
            self.add_f64(s.cost);
        }
    }

    fn add_outcome(&mut self, out: &SearchOutcome) {
        self.add_steps(&out.history);
        if let Some((_, cost, latency)) = &out.best {
            self.add_f64(*cost);
            self.add_f64(*latency);
        }
    }
}

fn window(peak: u32, minute: u64) -> PoolObservation {
    PoolObservation {
        now: SimTime::from_secs(60 * minute),
        stats: vec![FnWindowStats {
            function: FunctionId(0),
            invocations: peak,
            peak_concurrency: peak,
            booting: 0,
            idle: 0,
            busy: 0,
            failed_boots: 0,
        }],
    }
}

#[test]
fn aqualite_pool_bits_are_pinned() {
    let cfg = AquatopePoolConfig {
        warmup_windows: 40,
        retrain_every: 60,
        training_window: 200,
        hybrid: HybridConfig {
            window: 12,
            horizon: 2,
            enc_hidden: vec![8],
            dec_hidden: vec![6],
            mlp_hidden: vec![12, 8],
            dropout: 0.1,
            pretrain_epochs: 2,
            train_epochs: 4,
            mc_passes: 10,
            seed: 7,
        },
        ..AquatopePoolConfig::default()
    };
    let (tel, rec) = Telemetry::recording();
    let mut pool = AquatopePool::aqualite(cfg, &[]).with_telemetry(tel);
    let mut hash = Fnv::new();
    let mut x = 1u64;
    for minute in 0..120u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let peak = 3 + (x >> 33) % 5;
        for d in pool.tick(&window(peak as u32, minute)) {
            hash.add(d.prewarm_target.expect("the pool always sets a target") as u64);
            hash.add_f64(d.keep_alive.as_secs_f64());
        }
    }
    let mut resizes = 0u64;
    for e in rec.lock().expect("recorder lock").events() {
        if let SimEvent::PoolResize {
            target,
            predicted_mean,
            predicted_std,
            ..
        } = e
        {
            resizes += 1;
            hash.add(target as u64);
            hash.add_f64(predicted_mean);
            hash.add_f64(predicted_std);
        }
    }
    assert_pinned("aqualite_pool", &[("resizes", resizes), ("fnv", hash.0)]);
}

#[test]
fn aqualite_rm_pick_bits_are_pinned() {
    let mut registry = FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    let sim = FaasSim::builder()
        .workers(6, 40.0, 131_072)
        .registry(registry)
        .noise(NoiseModel::production())
        .seed(11)
        .build();
    let qos = app.qos.as_secs_f64();
    let mut eval = SimEvaluator::new(sim, app.dag, ConfigSpace::default(), 2, true);
    let out = AquatopeRm::aqualite(5).optimize(&mut eval, qos, 24);
    let mut hash = Fnv::new();
    hash.add_outcome(&out);
    assert!(out.best.is_some());
    let evaluations = out.evaluations() as u64;
    assert_pinned(
        "aqualite_rm_pick",
        &[("evaluations", evaluations), ("fnv", hash.0)],
    );
}

#[test]
fn change_detection_bits_are_pinned() {
    let (sim, dag, qos) = tiny_problem(70);
    let mut eval = SimEvaluator::new(sim, dag, ConfigSpace::default(), 2, true);
    let mut rm = AquatopeRm::new(3);
    let first = rm.optimize(&mut eval, qos, 18);
    let calm = rm.changes_detected();

    // The same two-stage chain, several times heavier: an input-size change.
    let mut registry = FunctionRegistry::new();
    let a = registry.register(
        FunctionSpec::new("a2")
            .with_work_ms(2_000.0)
            .with_exec_cv(0.02),
    );
    let b = registry.register(
        FunctionSpec::new("b2")
            .with_work_ms(1_500.0)
            .with_exec_cv(0.02),
    );
    let heavy = FaasSim::builder()
        .workers(4, 40.0, 131_072)
        .registry(registry)
        .noise(NoiseModel::quiet())
        .seed(72)
        .build();
    let mut eval = SimEvaluator::new(
        heavy,
        WorkflowDag::chain("tiny", vec![a, b]),
        ConfigSpace::default(),
        2,
        true,
    );
    let second = rm.optimize(&mut eval, 6.0, 12);

    let mut hash = Fnv::new();
    hash.add_outcome(&first);
    hash.add_outcome(&second);
    hash.add_steps(rm.observations());
    assert_pinned(
        "change_detection",
        &[
            ("calm_changes", calm as u64),
            ("changes", rm.changes_detected() as u64),
            ("observations", rm.observations().len() as u64),
            ("fnv", hash.0),
        ],
    );
}
