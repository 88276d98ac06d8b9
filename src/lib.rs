//! # carma
//!
//! Workspace meta-crate re-exporting the full CARMA stack — the
//! reproduction of *Late Breaking Results: Leveraging Approximate
//! Computing for Carbon-Aware DNN Accelerators* (Panteleaki et al.,
//! DAC 2025) — so downstream users can depend on one crate.
//!
//! Layering (each crate depends only on those before it):
//!
//! 1. [`netlist`] — gate-level IR, bit-parallel simulation, area.
//! 2. [`ga`] — NSGA-II and constrained single-objective GA engines.
//! 3. [`multiplier`] — exact + approximate multiplier generation,
//!    error characterization, LUT compilation, Pareto library.
//! 4. [`dnn`] — workload tables and behavioural accuracy evaluation.
//! 5. [`dataflow`] — NVDLA-style performance/energy/area oracle.
//! 6. [`carbon`] — ACT-style embodied-carbon model and CDP metric.
//! 7. [`core`] — the paper's flow: GA over the accelerator space with
//!    Carbon Delay Product fitness under FPS/accuracy constraints,
//!    plus the declarative scenario API (`carma_core::scenario`)
//!    behind the unified `carma` CLI (`carma list`, `carma run
//!    <name>`, `carma run --spec scenario.json`) that regenerates
//!    every figure, table and ablation of the evaluation.

pub use carma_carbon as carbon;
pub use carma_core as core;
pub use carma_dataflow as dataflow;
pub use carma_dnn as dnn;
pub use carma_ga as ga;
pub use carma_multiplier as multiplier;
pub use carma_netlist as netlist;

#[cfg(test)]
mod tests {
    use crate::core::scenario::resolve_scale;
    use crate::core::Scale;

    #[test]
    fn scale_defaults_to_quick() {
        // No spec field and no CLI flag: the environment decides, and
        // the test environment does not set CARMA_SCALE.
        if std::env::var("CARMA_SCALE").is_err() {
            assert_eq!(resolve_scale(None, None), Scale::Quick);
        }
    }

    #[test]
    fn quick_ga_is_smaller_than_full() {
        assert!(Scale::Quick.ga().population <= Scale::Full.ga().population);
        assert!(Scale::Quick.ga().generations <= Scale::Full.ga().generations);
    }
}
