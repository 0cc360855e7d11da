//! `ExecSampler` against the per-draw formula it replaced, kept here as
//! the oracle: `NoiseModel::apply` re-derived the log-normal parameters
//! (and built the Pareto burst) on every draw, and `sample_exec` wrapped
//! it with the base time and the 1 µs floor (`sample_cold_start` did the
//! same around the boot time, and now draws through a sampler too). A
//! sampler derived once must give the same durations and leave the stream
//! at the same position after every draw, for every noise model the
//! experiments use, intrinsic CVs zero and positive, zero and positive
//! base times, and configurations that do and do not hit the CPU cap and
//! the memory penalty.

use aqua_faas::{FunctionSpec, NoiseModel, ResourceConfig};
use aqua_sim::{LogNormal, Pareto, SimDuration, SimRng};
use proptest::prelude::*;

/// The old `NoiseModel::apply`.
fn apply(noise: &NoiseModel, base_ms: f64, intrinsic_cv: f64, rng: &mut SimRng) -> f64 {
    if base_ms <= 0.0 {
        return 0.0;
    }
    let cv = (intrinsic_cv * intrinsic_cv + noise.gaussian_cv * noise.gaussian_cv).sqrt();
    let mut value = if cv > 0.0 {
        LogNormal::with_mean_cv(base_ms, cv).sample(rng)
    } else {
        base_ms
    };
    if noise.outlier_prob > 0.0 && rng.chance(noise.outlier_prob) {
        value *= Pareto::new(noise.outlier_scale, noise.outlier_shape).sample(rng);
    }
    value
}

/// The old `FunctionSpec::sample_exec`.
fn sample_exec(
    spec: &FunctionSpec,
    config: &ResourceConfig,
    noise: &NoiseModel,
    rng: &mut SimRng,
) -> SimDuration {
    let base = spec.base_exec_ms(config);
    let jittered = apply(noise, base, spec.exec_cv, rng);
    SimDuration::from_secs_f64((jittered / 1e3).max(1e-6))
}

/// The old `FunctionSpec::sample_cold_start`.
fn sample_cold_start(
    spec: &FunctionSpec,
    config: &ResourceConfig,
    noise: &NoiseModel,
    rng: &mut SimRng,
) -> SimDuration {
    let init = spec.init_work_ms / spec.effective_cpu(config) * spec.memory_factor(config);
    let total = apply(noise, spec.boot_ms + init, spec.exec_cv, rng);
    SimDuration::from_secs_f64((total / 1e3).max(1e-6))
}

fn noise_model(pick: u64) -> NoiseModel {
    match pick {
        0 => NoiseModel::quiet(),
        1 => NoiseModel::production(),
        level => NoiseModel::background_jobs((level - 2) as f64),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sampler_draws_like_the_per_draw_formula(
        noise in 0u64..7,
        cv_pick in 0u64..3,
        cv in 0.01f64..0.8,
        zero_base in 0u64..4,
        work_ms in 0.5f64..5_000.0,
        io_ms in 0.0f64..200.0,
        cpu in 0.1f64..8.0,
        memory_mb in 128.0f64..4096.0,
        concurrency in 1u32..4,
        boot_ms in 0.0f64..2_000.0,
        init_work_ms in 0.0f64..2_000.0,
        seed in 0u64..u64::MAX,
        draws in 1usize..200,
    ) {
        let noise = noise_model(noise);
        let exec_cv = if cv_pick == 0 { 0.0 } else { cv };
        // A quarter of the cases have no work, no I/O and no cold start:
        // zero bases.
        let zero = zero_base == 0;
        let (work_ms, io_ms) = if zero { (0.0, 0.0) } else { (work_ms, io_ms) };
        let (boot_ms, init_work_ms) = if zero { (0.0, 0.0) } else { (boot_ms, init_work_ms) };
        let spec = FunctionSpec::new("f")
            .with_work_ms(work_ms)
            .with_io_ms(io_ms)
            .with_mem_demand(1024.0)
            .with_cold_start(boot_ms, init_work_ms)
            .with_exec_cv(exec_cv);
        let config = ResourceConfig::new(cpu, memory_mb, concurrency);
        let sampler = spec.exec_sampler(&config, &noise);
        let mut got = SimRng::seed(seed);
        let mut want = SimRng::seed(seed);
        for draw in 0..draws {
            prop_assert_eq!(
                sampler.sample(&mut got),
                sample_exec(&spec, &config, &noise, &mut want),
                "draw {}",
                draw
            );
            prop_assert_eq!(&got, &want, "stream position after draw {}", draw);
            prop_assert_eq!(
                spec.sample_cold_start(&config, &noise, &mut got),
                sample_cold_start(&spec, &config, &noise, &mut want),
                "boot after draw {}",
                draw
            );
            prop_assert_eq!(&got, &want, "stream position after boot {}", draw);
        }
    }
}
