//! Drills: direct calls into one layer's public functions, timed from
//! outside at the sizes the workloads use. Multiplied by a replay's own
//! counts they estimate the share of its wall time a layer accounts for;
//! on their own they are the per-layer baselines a later change to that
//! layer is read against.
//!
//! Every drill is deterministic in its inputs (fixed seeds) and short:
//! the whole set runs in a few seconds inside every traced run.

use std::hint::black_box;
use std::time::Instant;

use aqua_alloc::OnlineLatencyModel;
use aqua_faas::runtime::ContainerRuntime;
use aqua_faas::{
    FaasSim, FaultPlan, FunctionId, FunctionRegistry, NoiseModel, PoolDecision, QosClass,
    ResourceConfig, SimContainerRuntime, StageConfigs, TenantId,
};
use aqua_forecast::{HybridBayesian, Predictor};
use aqua_gp::{propose_batch, Gp, GpConfig, Halton, NeiConfig, SparseGp, SparseGpConfig};
use aqua_linalg::{gemm, Cholesky, Matrix};
use aqua_nn::{EncoderDecoder, Lstm, Mlp, Seq2SeqConfig, SeqPair};
use aqua_pool::{to_series, AquatopePoolConfig};
use aqua_scenarios::matrix::evaluate_cell;
use aqua_scenarios::{
    default_fault_rates, evaluate_cell_service, ClusterProfile, PolicyKind, ScenarioKind,
    ScenarioSpec,
};
use aqua_service::{
    Acquired, Admission, AdmissionConfig, PredictiveConfig, RefitScheduler, ServiceConfig,
    WarmPoolConfig, WarmPoolManager,
};
use aqua_sim::{EventQueue, SimDuration, SimRng, SimTime};
use aqua_telemetry::{EventSink, JsonlWriter, SimEvent};
use aqua_workflows::apps;
use aqua_workflows::azure::azure_scale;

use crate::stats::median_ns;
use crate::workloads::{azure, mix, Size};

/// Per-layer metric values a drill set produced, by declared name.
pub type Values = Vec<(&'static str, f64)>;

fn secs_of(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// `workflows`: one full-size `azure_scale` call.
pub fn workflows(seed: u64) -> Values {
    let cfg = azure::trace_config(seed, Size::Full);
    let s = secs_of(|| {
        black_box(azure_scale(&cfg));
    });
    vec![("workflows.azure_gen_s", s)]
}

/// Nanoseconds per pop+push pair of an [`EventQueue`] held at `depth`
/// (the classic hold model: pop the earliest, re-insert it later).
fn eq_hold_ns(depth: usize) -> f64 {
    let mut rng = SimRng::seed(depth as u64);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth + 1);
    for i in 0..depth {
        q.push(SimTime::from_secs_f64(rng.uniform() * 3600.0), i as u64);
    }
    let pairs = 200_000;
    let t = Instant::now();
    for _ in 0..pairs {
        let (at, e) = q.pop().expect("queue held at depth");
        q.push(at + SimDuration::from_secs_f64(rng.uniform() * 3600.0), e);
    }
    black_box(q.len());
    t.elapsed().as_nanos() as f64 / pairs as f64
}

/// `sim`: the event queue at the two depths the engines hold it at — a
/// few thousand entries under the live reactor (arrivals are re-armed
/// lazily), hundreds of thousands under the batch simulator (every
/// arrival is queued up front).
pub fn sim() -> Values {
    vec![
        ("sim.eq_ns_d4k", eq_hold_ns(4096)),
        ("sim.eq_ns_d256k", eq_hold_ns(262_144)),
    ]
}

fn smoke_registry() -> (FunctionRegistry, Vec<ResourceConfig>) {
    let wl = azure_scale(&azure::trace_config(7, Size::Smoke));
    let configs = vec![ResourceConfig::new(1.0, 1024.0, 2); wl.registry.len()];
    (wl.registry, configs)
}

/// `faas`: the container runtime's sampling paths and one profiling call.
pub fn faas() -> Values {
    let (registry, configs) = smoke_registry();
    let n = registry.len();
    let mut rt =
        SimContainerRuntime::new(registry, NoiseModel::default(), 7, &FaultPlan::disabled());
    let execs = 200_000;
    let t = Instant::now();
    for i in 0..execs {
        black_box(rt.exec(FunctionId(i % n), &configs[i % n]));
    }
    let exec_ns = t.elapsed().as_nanos() as f64 / execs as f64;
    let boots = 100_000;
    let t = Instant::now();
    for i in 0..boots {
        let ticket = rt.boot(FunctionId(i % n), &configs[i % n]);
        black_box(rt.kill(ticket.container));
    }
    let boot_ns = t.elapsed().as_nanos() as f64 / boots as f64;

    // One BO evaluation as `aquatope_mix` makes it: the 3-stage chain
    // profiled warm with `AquatopeConfig::fast()`'s two samples.
    let mut registry = FunctionRegistry::new();
    let app = apps::chain(&mut registry, 3);
    let stage_configs = StageConfigs::uniform(&app.dag, ResourceConfig::default());
    let mut sim = FaasSim::builder()
        .workers(6, 40.0, 128 * 1024)
        .registry(registry)
        .noise(NoiseModel::production())
        .seed(42)
        .build();
    let profile_ns = median_ns(9, || {
        black_box(sim.profile_config(&app.dag, &stage_configs, 2, true, 1.0, 1.0));
    });
    vec![
        ("faas.exec_sample_ns", exec_ns),
        ("faas.boot_kill_ns", boot_ns),
        ("faas.profile_config_ms", profile_ns * 1e-6),
    ]
}

fn pool_manager(registry: FunctionRegistry) -> WarmPoolManager {
    let n = registry.len();
    let rt = SimContainerRuntime::new(registry, NoiseModel::default(), 7, &FaultPlan::disabled());
    let cfg = WarmPoolConfig {
        memory_budget_mb: 1e12,
        ..WarmPoolConfig::default()
    };
    WarmPoolManager::new(
        cfg,
        Box::new(rt),
        vec![ResourceConfig::new(1.0, 1024.0, 2); n],
    )
}

fn expect_cold(acquired: Acquired) -> aqua_faas::BootTicket {
    match acquired {
        Acquired::Cold(ticket) => ticket,
        other => panic!("expected a demand boot, got {other:?}"),
    }
}

/// `service`: admission, the warm pool's hit and miss paths, and one
/// filler pass over `filler_functions` functions that all hold a deficit
/// the boot semaphore is too narrow to fill.
pub fn service(filler_functions: usize) -> Values {
    let classes = (0..azure::TENANTS)
        .map(|_| QosClass::new(azure::SLO, usize::MAX / 2, usize::MAX / 2, 0.0))
        .collect();
    let mut adm = Admission::with_tenants(AdmissionConfig::default(), classes);
    let pairs = 1_000_000usize;
    let t = Instant::now();
    for i in 0..pairs {
        let tenant = TenantId(i % azure::TENANTS);
        black_box(adm.try_admit(tenant));
        adm.finish(tenant);
    }
    let admit_ns = t.elapsed().as_nanos() as f64 / pairs as f64;

    let now = SimTime::from_secs(1);
    let (registry, _) = smoke_registry();
    let n = registry.len();
    let mut pool = pool_manager(registry.clone());
    for f in 0..n {
        let ticket = expect_cold(pool.acquire(FunctionId(f), now));
        pool.on_boot_done(ticket.container, now);
    }
    let hits = 1_000_000usize;
    let t = Instant::now();
    for i in 0..hits {
        match pool.acquire(FunctionId(i % n), now) {
            Acquired::Warm(id) => pool.release(id, now),
            other => panic!("expected a warm hit, got {other:?}"),
        }
    }
    let hit_ns = t.elapsed().as_nanos() as f64 / hits as f64;

    // Miss path as a cold-served task pays it: acquire misses and boots,
    // the boot lands, and the waiter's acquire takes the new container.
    let mut pool = pool_manager(registry);
    let misses = 50_000usize;
    let t = Instant::now();
    for i in 0..misses {
        let f = FunctionId(i % n);
        let ticket = expect_cold(pool.acquire(f, now));
        pool.on_boot_done(ticket.container, now);
        black_box(pool.acquire(f, now));
    }
    let miss_ns = t.elapsed().as_nanos() as f64 / misses as f64;

    let mut registry = FunctionRegistry::new();
    for i in 0..filler_functions {
        registry.register(apps::synthetic_function(format!("f{i}"), 50.0, 256.0, 1.0));
    }
    let mut pool = pool_manager(registry);
    let decisions: Vec<PoolDecision> = (0..filler_functions)
        .map(|f| PoolDecision {
            function: FunctionId(f),
            prewarm_target: Some(1),
            keep_alive: SimDuration::from_secs(600),
            shrink: true,
        })
        .collect();
    pool.apply_decisions(&decisions);
    // The first pass fills the semaphore; its boots never land, so every
    // later pass scans all functions and defers every deficit.
    black_box(pool.filler_tick(now));
    let mut tick = 0u64;
    let filler_ns = median_ns(201, || {
        tick += 1;
        black_box(pool.filler_tick(now + SimDuration::from_millis(200 * tick)));
    });
    vec![
        ("service.admit_finish_ns", admit_ns),
        ("service.pool_hit_ns", hit_ns),
        ("service.pool_miss_ns", miss_ns),
        ("service.filler_tick_us", filler_ns * 1e-3),
    ]
}

/// `telemetry`: serialising `events` to JSONL into a null writer.
///
/// # Panics
///
/// Panics when `events` is empty: every streamed replay emits events, and
/// a cost per event of no events would be a made-up number.
pub fn telemetry(events: &[SimEvent]) -> Values {
    assert!(!events.is_empty(), "the streamed replay emitted no events");
    let mut writer = JsonlWriter::new(std::io::sink());
    let ns = median_ns(15, || {
        for e in events {
            writer.record(e);
        }
    });
    assert!(writer.error().is_none(), "writing to a sink cannot fail");
    vec![("telemetry.jsonl_ns_per_event", ns / events.len() as f64)]
}

/// `forecast`: one hybrid-BNN fit and forecast at the pool's default
/// model size, and the calibration of its 95 % band on held-out minutes
/// of the five applications' history.
pub fn forecast() -> Values {
    let input = mix::input(Size::Full);
    let cfg = AquatopePoolConfig::default().hybrid;
    // One series per application: its first stage's history.
    let mut series = Vec::new();
    for w in &input.workloads {
        let f = w
            .app
            .dag
            .stages()
            .next()
            .expect("apps have stages")
            .function;
        let (_, h) = input
            .history
            .iter()
            .find(|(hf, _)| *hf == f)
            .expect("every stage has history");
        series.push(to_series(h));
    }
    let mut model = HybridBayesian::new(cfg.clone());
    let train_s = secs_of(|| model.fit(&series[0]));
    let tail = &series[0][series[0].len() - cfg.window..];
    let predict_ns = median_ns(21, || {
        black_box(model.forecast(tail));
    });

    // Calibration: fit on the first 480 minutes (the pool's default
    // training window), then forecast each later minute from the window
    // before it and count the realised counts inside mean ± 1.96 σ.
    let split = 480;
    let per_series = aqua_sim::par_map(&series, |i, s| {
        let mut cfg = cfg.clone();
        cfg.seed ^= i as u64;
        let mut model = HybridBayesian::new(cfg.clone());
        model.fit(&s[..split]);
        let mut inside = 0usize;
        for t in split..s.len() {
            let f = model.forecast(&s[t - cfg.window..t]);
            let half = 1.96 * f.std;
            inside += usize::from((s[t].count - f.mean).abs() <= half);
        }
        (inside, s.len() - split)
    });
    let inside: usize = per_series.iter().map(|p| p.0).sum();
    let total: usize = per_series.iter().map(|p| p.1).sum();
    vec![
        ("forecast.hybrid_train_ms", train_s * 1e3),
        ("forecast.hybrid_predict_ms", predict_ns * 1e-6),
        ("forecast.interval_coverage", inside as f64 / total as f64),
    ]
}

fn sine_pairs(n: usize, window: usize, horizon: usize) -> Vec<SeqPair> {
    let series: Vec<f64> = (0..n + window + horizon)
        .map(|i| (i as f64 * 0.31).sin() * 0.4 + 0.5)
        .collect();
    (0..n)
        .map(|s| {
            let xs = series[s..s + window].iter().map(|v| vec![*v]).collect();
            let ys = series[s + window..s + window + horizon]
                .iter()
                .map(|v| vec![*v])
                .collect();
            (xs, ys)
        })
        .collect()
}

/// `nn`: the batched BNN engine at the pool's default model size.
pub fn nn() -> Values {
    let hybrid = AquatopePoolConfig::default().hybrid;
    let mc = hybrid.mc_passes;
    let mut rng = SimRng::seed(hybrid.seed);
    let ed = EncoderDecoder::new(
        Seq2SeqConfig {
            input_dim: 1,
            enc_hidden: hybrid.enc_hidden.clone(),
            dec_hidden: hybrid.dec_hidden.clone(),
            horizon: hybrid.horizon,
            dropout: hybrid.dropout,
        },
        &mut rng,
    );
    let window: Vec<Vec<f64>> = (0..hybrid.window)
        .map(|t| vec![(t as f64 * 0.26).sin() * 0.4 + 0.5])
        .collect();
    let mut r = SimRng::seed(2);
    let rollout_ns = median_ns(41, || {
        black_box(ed.predict_mc(&window, hybrid.horizon, mc, &mut r));
    });

    let data = sine_pairs(64, hybrid.window, hybrid.horizon);
    let mut trained = ed.clone();
    let mut r = SimRng::seed(4);
    let epoch_ns = median_ns(5, || {
        black_box(trained.train_batched(&data, 1, 1.5e-3, 16, &mut r));
    });

    let mlp_in = ed.latent_dim() + 8;
    let mlp = Mlp::new(mlp_in, &hybrid.mlp_hidden, 1, hybrid.dropout, &mut rng);
    let mut x = Matrix::zeros(mc, mlp_in);
    for b in 0..mc {
        for (j, v) in x.row_mut(b).iter_mut().enumerate() {
            *v = (j as f64 * 0.37).sin();
        }
    }
    let mut r = SimRng::seed(1);
    let mlp_ns = median_ns(41, || {
        black_box(mlp.forward_train_batch(&x, &mut r));
    });

    let lstm = Lstm::new(&[1, hybrid.enc_hidden[0]], hybrid.dropout, &mut rng);
    let lstm_ns = median_ns(41, || {
        black_box(lstm.forward_infer(&window, None));
    });
    vec![
        ("nn.seq2seq_mc_rollout_us", rollout_ns * 1e-3),
        ("nn.seq2seq_train_epoch_ms", epoch_ns * 1e-6),
        ("nn.mlp_mc_us", mlp_ns * 1e-3),
        ("nn.lstm_forward_us", lstm_ns * 1e-3),
    ]
}

fn gemm_gflops(m: usize, n: usize, p: usize, reps: usize) -> f64 {
    let a: Vec<f64> = (0..m * p).map(|i| (i as f64 * 0.013).sin()).collect();
    let b: Vec<f64> = (0..p * n).map(|i| (i as f64 * 0.017).cos()).collect();
    let mut out = vec![0.0; m * n];
    let ns = median_ns(21, || {
        for _ in 0..reps {
            gemm(m, n, p, black_box(&a), black_box(&b), &mut out);
        }
        black_box(&out);
    });
    (2 * m * n * p * reps) as f64 / ns
}

fn kernel_matrix(n: usize) -> Matrix {
    let mut rng = SimRng::seed(n as u64);
    let xs: Vec<[f64; 3]> = (0..n)
        .map(|_| [rng.uniform(), rng.uniform(), rng.uniform()])
        .collect();
    let mut k = Matrix::from_fn(n, n, |i, j| {
        let d2: f64 = (0..3).map(|c| (xs[i][c] - xs[j][c]).powi(2)).sum();
        (-d2 / 0.5).exp()
    });
    k.add_diagonal(1e-3);
    k
}

/// `linalg`: the two `gemm` shapes the model crates spend their time in
/// (the LSTM gate product of an MC-25 batch, `25×32 · 32×128`, and the
/// GP's pairwise-distance product, `256×6 · 6×256`), and the Cholesky
/// operations behind exact and sparse GP refits.
pub fn linalg() -> Values {
    let k = kernel_matrix(257);
    let n = 256;
    let base = Matrix::from_fn(n, n, |i, j| k[(i, j)]);
    let factor_ns = median_ns(7, || {
        black_box(Cholesky::new(&base).expect("kernel matrix is positive definite"));
    });
    let chol = Cholesky::new(&base).expect("kernel matrix is positive definite");
    let col: Vec<f64> = (0..n).map(|i| k[(n, i)]).collect();
    let extend_ns = median_ns(41, || {
        black_box(
            chol.extend(&col, k[(n, n)])
                .expect("border keeps it positive definite"),
        );
    });
    let small = Matrix::from_fn(64, 64, |i, j| k[(i, j)]);
    let chol64 = Cholesky::new(&small).expect("kernel matrix is positive definite");
    let v: Vec<f64> = (0..64).map(|i| k[(200, i)]).collect();
    let update_ns = median_ns(101, || {
        black_box(chol64.rank_one_update(&v));
    });
    vec![
        ("linalg.gemm_gflops_lstm", gemm_gflops(25, 128, 32, 64)),
        ("linalg.gemm_gflops_kernel", gemm_gflops(256, 256, 6, 8)),
        ("linalg.chol_factor_ms_n256", factor_ns * 1e-6),
        ("linalg.chol_extend_us_n256", extend_ns * 1e-3),
        ("linalg.rank_one_update_us_m64", update_ns * 1e-3),
    ]
}

fn gp_dataset(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = SimRng::seed(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..6).map(|_| rng.uniform()).collect())
        .collect();
    let ys = xs
        .iter()
        .map(|x| x.iter().sum::<f64>() + rng.normal(0.0, 0.05))
        .collect();
    (xs, ys)
}

/// `gp`: exact and sparse surrogate operations at the sizes a BO search
/// (n = 64) and the online latency model (n = 256 exact, n = 1024 over
/// 64 inducing points) reach.
pub fn gp() -> Values {
    let cfg = GpConfig {
        refit_every: 0,
        ..GpConfig::default()
    };
    let sparse_cfg = SparseGpConfig {
        inducing: 64,
        gp: cfg.clone(),
    };
    let nei = NeiConfig { qmc_samples: 8 };
    let cands = Halton::new(6).points(24);

    let (x64, y64) = gp_dataset(64, 11);
    let fit64_ns = median_ns(7, || {
        black_box(Gp::fit(x64.clone(), y64.clone(), cfg.clone()).expect("fits"));
    });
    let cost = Gp::fit(x64.clone(), y64.clone(), cfg.clone()).expect("fits");
    let qos = y64.iter().sum::<f64>() / y64.len() as f64;
    let propose_ns = median_ns(5, || {
        black_box(propose_batch(&cost, &cost, qos, &cands, 3, nei));
    });

    let (x257, y257) = gp_dataset(257, 13);
    let fit256_ns = median_ns(3, || {
        black_box(Gp::fit(x257[..256].to_vec(), y257[..256].to_vec(), cfg.clone()).expect("fits"));
    });
    let base = Gp::fit(x257[..256].to_vec(), y257[..256].to_vec(), cfg.clone()).expect("fits");
    let extend_ns = median_ns(21, || {
        black_box(
            base.with_observation(x257[256].clone(), y257[256])
                .expect("appends"),
        );
    });

    let (x1025, y1025) = gp_dataset(1025, 17);
    let sfit_ns = median_ns(5, || {
        black_box(
            SparseGp::fit_auto_points(&x1025[..1024], &y1025[..1024], &sparse_cfg).expect("fits"),
        );
    });
    let sparse =
        SparseGp::fit_auto_points(&x1025[..1024], &y1025[..1024], &sparse_cfg).expect("fits");
    let absorb_ns = median_ns(41, || {
        let mut s = sparse.clone();
        s.absorb(&x1025[1024], y1025[1024]);
        black_box(s);
    });
    let spropose_ns = median_ns(7, || {
        black_box(propose_batch(&sparse, &sparse, qos, &cands, 3, nei));
    });
    vec![
        ("gp.fit_ms_n64", fit64_ns * 1e-6),
        ("gp.fit_ms_n256", fit256_ns * 1e-6),
        ("gp.extend_us_n256", extend_ns * 1e-3),
        ("gp.propose_batch_ms_n64", propose_ns * 1e-6),
        ("gp.sparse_fit_ms_n1024", sfit_ns * 1e-6),
        ("gp.sparse_absorb_us_m64", absorb_ns * 1e-3),
        ("gp.sparse_propose_batch_us_n1024", spropose_ns * 1e-3),
    ]
}

/// A workflow latency to observe at `at_secs`: a slow drift plus noise.
fn drill_latency(at_secs: f64, rng: &mut SimRng) -> f64 {
    (0.7 + 0.3 * (at_secs / 600.0).sin() + rng.normal(0.0, 0.05)).max(0.05)
}

/// Mean milliseconds per app refit of the plane's default latency model
/// under `svc_azure`'s own refit schedule, and the refits that took.
///
/// Every `model_sample_every`-th completion of an app is an observation;
/// the seed's trace says how many each of the 1 100 apps gets in the
/// hour, they arrive evenly, and every refit tick the plane's own
/// [`RefitScheduler`] refits the stalest apps its budget allows. So the
/// models are the sizes that workload reaches: the few dozen apps at the
/// head of the Zipf curve cycle a full 64-point window, most apps never
/// fill it, and a refit costs two thirds of what refitting a full window
/// would (0.6 ms against 0.9 ms on this host). The drill reproduces the
/// replay's own counters: 1 440 refits, ~21 800 observations absorbed
/// and ~345 window compactions per simulated hour.
fn azure_refit_schedule_ms(seed: u64, rng: &mut SimRng) -> (f64, OnlineLatencyModel) {
    let (trace, wl) = azure::trace(seed, Size::Full);
    let cfg = ServiceConfig::default();
    let per_app: Vec<usize> = wl
        .jobs
        .iter()
        .map(|j| j.arrivals.len() / cfg.model_sample_every as usize)
        .collect();
    let interval = cfg.refit_interval.as_secs_f64();
    let ticks = (trace.minutes * 60) as usize / interval as usize;
    let mut scheduler = RefitScheduler::new(cfg.refit_interval, cfg.refit_budget);
    let mut model = OnlineLatencyModel::service_default();
    let mut refit_s = 0.0;
    for tick in 1..=ticks {
        for (app, n) in per_app.iter().enumerate() {
            let due = n * (tick - 1) / ticks..n * tick / ticks;
            for k in due.clone() {
                // Spread over the tick's interval, as completions are.
                let at = interval * (tick as f64 - 1.0 + (k - due.start) as f64 / due.len() as f64);
                model.observe(app, &[0.5, 0.5, 0.5], at, drill_latency(at, rng));
            }
        }
        let t = Instant::now();
        scheduler.tick(&mut model);
        refit_s += t.elapsed().as_secs_f64();
    }
    let stats = scheduler.stats();
    println!(
        "drill: svc_azure refit schedule, {} refits absorbed {} observations over {ticks} ticks in {refit_s:.3} s",
        stats.refits, stats.absorbed
    );
    (refit_s * 1e3 / stats.refits as f64, model)
}

/// Feeds `n` latency observations of one app into `model` and refits.
fn feed(model: &mut OnlineLatencyModel, rng: &mut SimRng, from: usize, n: usize) {
    for i in from..from + n {
        let at = i as f64 * 1.3;
        model.observe(0, &[0.5, 0.5, 0.5], at, drill_latency(at, rng));
    }
    model.refit(0);
}

/// `alloc`: the online latency model as the two live workloads drive it —
/// O(1) observes, a front-door prediction, and an app refit on each tier
/// at the sizes the workload that uses the tier reaches. The exact tier
/// is the plane's default model (a 64-point sliding window,
/// hyperparameter search every 32nd append) under `svc_azure`'s refit
/// schedule for `seed`. The sparse tier is `svc_overload`'s scalable
/// model past its 256-point switch (a 2 048-point window, rebuilt from
/// raw data every 32 appends), each refit folding the `pending`
/// completions a refit absorbed there. Both are means over enough refits
/// to include their periodic full fits.
pub fn alloc(seed: u64, pending: usize) -> Values {
    let mut rng = SimRng::seed(23);
    let (exact_ms, mut exact) = azure_refit_schedule_ms(seed, &mut rng);
    let observes = 100_000usize;
    let t = Instant::now();
    for i in 0..observes {
        exact.observe(0, &[0.5, 0.5, 0.5], i as f64, 0.8);
    }
    let observe_ns = t.elapsed().as_nanos() as f64 / observes as f64;

    let mut sparse = OnlineLatencyModel::scalable_default();
    feed(&mut sparse, &mut rng, 0, 2048);
    assert_eq!(
        sparse.tier(0),
        Some(aqua_alloc::SurrogateTier::Sparse),
        "2048 observations cross the 256-point tier threshold"
    );
    let ticks = 64;
    let t = Instant::now();
    for k in 0..ticks {
        feed(&mut sparse, &mut rng, 2048 + pending * k, pending);
    }
    let sparse_ms = t.elapsed().as_secs_f64() * 1e3 / ticks as f64;
    let predict_ns = median_ns(2001, || {
        black_box(sparse.predict(0, &[0.5, 0.5, 0.5], 3000.0));
    });
    vec![
        ("alloc.online_observe_ns", observe_ns),
        ("alloc.online_predict_us", predict_ns * 1e-3),
        ("alloc.online_refit_ms_exact", exact_ms),
        ("alloc.online_refit_ms_sparse", sparse_ms),
    ]
}

/// `scenarios`: one matrix cell on each engine, and the largest
/// sim-vs-service gap in QoS-violation rate over the rows and policies
/// both engines model (percentage points).
pub fn scenarios(seed: u64) -> Values {
    let rates = default_fault_rates();
    let profile = ClusterProfile::sim_matched();
    let off = PredictiveConfig::default();
    let mut sim_ns = Vec::new();
    let mut svc_ns = Vec::new();
    let mut drift_pp: f64 = 0.0;
    for kind in [
        ScenarioKind::Diurnal,
        ScenarioKind::Bursty,
        ScenarioKind::Faulted,
    ] {
        let spec = ScenarioSpec::new(kind, 90, 3.0);
        for policy in [PolicyKind::Fixed, PolicyKind::Histogram] {
            let t = Instant::now();
            let sim = evaluate_cell(&spec, policy, seed, rates.clone(), 1);
            sim_ns.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            let svc = evaluate_cell_service(&spec, policy, seed, rates.clone(), off, profile);
            svc_ns.push(t.elapsed().as_nanos() as f64);
            drift_pp =
                drift_pp.max(100.0 * (svc.qos_violation_rate - sim.qos_violation_rate).abs());
        }
    }
    vec![
        (
            "scenarios.sim_cell_ms",
            crate::stats::median(&sim_ns) * 1e-6,
        ),
        (
            "scenarios.svc_cell_ms",
            crate::stats::median(&svc_ns) * 1e-6,
        ),
        ("scenarios.drift_pp_max", drift_pp),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_drills_report_positive_finite_numbers_under_declared_names() {
        let declared: Vec<&str> = crate::spec::PER_LAYER.iter().map(|m| m.name).collect();
        let mut values = sim();
        values.extend(faas());
        values.extend(service(16));
        values.extend(linalg());
        for (name, v) in values {
            assert!(declared.contains(&name), "{name} is not declared");
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }
    }
}
