//! Quickstart: run AQUATOPE end to end on one application.
//!
//! Builds the ML-pipeline workflow, lets the controller (1) search for a
//! cost-minimal per-stage resource configuration that meets the end-to-end
//! QoS and (2) replay a bursty invocation trace under the dynamic
//! pre-warmed container pool — then prints the run metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use aquatope::core::{run_framework, AquatopeConfig, ClusterSpec, Framework, Workload};
use aquatope::faas::FunctionRegistry;
use aquatope::prelude::*;
use aquatope::workflows::{apps, RateTraceConfig};

fn main() {
    // 1. Register the application.
    let mut registry = FunctionRegistry::new();
    let app = apps::ml_pipeline(&mut registry);
    println!(
        "app: {} ({} stages, QoS = {:.1} s)",
        app.dag.name(),
        app.dag.num_stages(),
        app.qos.as_secs_f64()
    );

    // 2. Generate a 30-minute bursty trace (~12 invocations/min).
    let mut rng = SimRng::seed(7);
    let trace = RateTraceConfig {
        minutes: 30,
        mean_rpm: 12.0,
        ..RateTraceConfig::default()
    }
    .generate(&mut rng);
    println!(
        "trace: {} workflow invocations over 30 min",
        trace.arrivals.len()
    );

    // 3. Plan per-stage resources with the customized-BO manager, then
    //    replay the trace under the dynamic pre-warmed pool.
    let workload = Workload {
        app,
        arrivals: trace.arrivals,
    };
    let report = run_framework(
        Framework::Aquatope,
        &registry,
        std::slice::from_ref(&workload),
        ClusterSpec::default(),
        SimTime::from_secs(32 * 60),
        &AquatopeConfig::fast(),
    );
    println!("run : {report}");
    println!("cost: {:.1} (CPU·s + GB·s)", report.execution_cost);
}
