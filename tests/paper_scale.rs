//! Paper-scale pipeline run, excluded from the default suite.
//!
//! `cargo test -q` stays fast because this test is `#[ignore]`d; run
//! it explicitly when regenerating headline numbers:
//!
//! ```text
//! CARMA_SCALE=full cargo test --release -- --ignored
//! ```
//!
//! Without `CARMA_SCALE=full` the ignored test still works, falling
//! back to the reduced context so the path can be exercised cheaply
//! (`cargo test -- --ignored` on a laptop).

use carma_core::flow::{ga_cdp, smallest_exact_meeting, Constraints};
use carma_core::CarmaContext;
use carma_dnn::DnnModel;
use carma_ga::GaConfig;
use carma_netlist::TechNode;

fn scaled_context() -> (CarmaContext, GaConfig) {
    if matches!(std::env::var("CARMA_SCALE").as_deref(), Ok("full")) {
        // Paper scale: depth-4 library, 256 accuracy samples, full GA
        // budget (see `carma_core::scenario::Scale::Full`).
        (CarmaContext::standard(TechNode::N7), GaConfig::default())
    } else {
        (
            CarmaContext::reduced(TechNode::N7),
            GaConfig::default()
                .with_population(24)
                .with_generations(15)
                .with_seed(0x9A9E),
        )
    }
}

#[test]
#[ignore = "paper-scale pipeline (minutes of CPU at CARMA_SCALE=full); run with cargo test -- --ignored"]
fn ga_cdp_beats_exact_baseline_at_scale() {
    let (ctx, ga) = scaled_context();
    let model = DnnModel::vgg16();
    let min_fps = 30.0;

    let baseline = smallest_exact_meeting(&ctx, &model, min_fps);
    let best = ga_cdp(&ctx, &model, Constraints::new(min_fps, 0.02).unwrap(), ga);

    assert!(best.fps >= min_fps, "GA design misses FPS: {}", best.fps);
    assert!(
        best.embodied.as_grams() < baseline.eval.embodied.as_grams(),
        "GA-CDP ({}) must beat the exact baseline ({})",
        best.embodied,
        baseline.eval.embodied
    );
}
