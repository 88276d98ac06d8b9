//! Experiment drivers regenerating every table and figure of the
//! paper's evaluation (see DESIGN.md §5 for the index). The scenario
//! registry renders these rows; the integration tests assert their
//! qualitative shape.

use carma_dnn::DnnModel;
use carma_ga::GaConfig;
use carma_netlist::TechNode;
use serde::Serialize;

use crate::context::CarmaContext;
use crate::flow::{approx_only_sweep, exact_sweep, ga_cdp, smallest_exact_meeting, Constraints};

/// The paper's accuracy-drop classes: up to 0.5 %, 1.0 % and 2.0 %.
pub const ACCURACY_CLASSES: [f64; 3] = [0.005, 0.010, 0.020];
/// The paper's FPS thresholds: 30, 40 and 50 frames per second.
pub const FPS_THRESHOLDS: [f64; 3] = [30.0, 40.0, 50.0];

/// One point of the Figure 2 scatter: carbon vs performance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig2Row {
    /// Series label: `exact`, `appx-0.5%`, `appx-1%`, `appx-2%`, or
    /// `ga-cdp@{fps}`.
    pub series: String,
    /// MAC count (0 for GA points, which need not be NVDLA presets).
    pub macs: u32,
    /// Throughput, FPS.
    pub fps: f64,
    /// Embodied (manufacturing) carbon, grams CO₂.
    pub carbon_g: f64,
}

/// Regenerates the Figure 2 scatter for `model` on `ctx`'s node (the
/// paper plots VGG16 at 7 nm over [`ACCURACY_CLASSES`] ×
/// [`FPS_THRESHOLDS`]): one approximate-only series per accuracy
/// class, one GA-CDP point per FPS threshold (constrained by the
/// *last* — loosest — class).
///
/// # Panics
///
/// Panics if either grid is empty or holds out-of-range values (the
/// scenario API validates specs before reaching this point).
pub fn fig2_scatter_with(
    ctx: &CarmaContext,
    model: &DnnModel,
    ga: GaConfig,
    accuracy_classes: &[f64],
    fps_thresholds: &[f64],
) -> Vec<Fig2Row> {
    let mut rows = Vec::new();
    for p in exact_sweep(ctx, model) {
        rows.push(Fig2Row {
            series: "exact".to_string(),
            macs: p.macs,
            fps: p.eval.fps,
            carbon_g: p.eval.embodied.as_grams(),
        });
    }
    for &class in accuracy_classes {
        for p in approx_only_sweep(ctx, model, class) {
            rows.push(Fig2Row {
                series: format!("appx-{}%", class * 100.0),
                macs: p.macs,
                fps: p.eval.fps,
                carbon_g: p.eval.embodied.as_grams(),
            });
        }
    }
    for (i, &fps) in fps_thresholds.iter().enumerate() {
        let best = ga_cdp(
            ctx,
            model,
            Constraints::new(fps, *accuracy_classes.last().expect("non-empty"))
                .expect("validated thresholds"),
            ga.with_seed(ga.seed.wrapping_add(i as u64)),
        );
        rows.push(Fig2Row {
            series: format!("ga-cdp@{fps}"),
            macs: best.accelerator.macs(),
            fps: best.fps,
            carbon_g: best.embodied.as_grams(),
        });
    }
    rows
}

/// One row of Figure 2's reduction table: average and peak carbon
/// saving of approximate-only vs exact across the NVDLA sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReductionRow {
    /// Technology node.
    #[serde(serialize_with = "serialize_node")]
    pub node: TechNode,
    /// Accuracy-drop class (fraction).
    pub accuracy_class: f64,
    /// Average carbon-footprint reduction over the sweep, percent.
    pub avg_pct: f64,
    /// Peak carbon-footprint reduction over the sweep, percent.
    pub peak_pct: f64,
}

/// Regenerates the Figure 2 reduction table for one node over an
/// accuracy-class grid (the paper's is [`ACCURACY_CLASSES`]).
pub fn reduction_table_with(
    ctx: &CarmaContext,
    model: &DnnModel,
    accuracy_classes: &[f64],
) -> Vec<ReductionRow> {
    let exact = exact_sweep(ctx, model);
    accuracy_classes
        .iter()
        .map(|&class| {
            let approx = approx_only_sweep(ctx, model, class);
            let reductions: Vec<f64> = exact
                .iter()
                .zip(&approx)
                .map(|(e, a)| {
                    100.0 * (1.0 - a.eval.embodied.as_grams() / e.eval.embodied.as_grams())
                })
                .collect();
            ReductionRow {
                node: ctx.node(),
                accuracy_class: class,
                avg_pct: reductions.iter().sum::<f64>() / reductions.len() as f64,
                peak_pct: reductions.iter().copied().fold(f64::MIN, f64::max),
            }
        })
        .collect()
}

/// One bar group of Figure 3: normalized embodied carbon of the three
/// designs for one (model, node) pair.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig3Row {
    /// DNN model name.
    pub model: String,
    /// Technology node.
    #[serde(serialize_with = "serialize_node")]
    pub node: TechNode,
    /// Exact baseline meeting 30 FPS (normalization unit, always 1.0).
    pub exact: f64,
    /// Approximate-only (same architecture, ≤ 2 % multiplier),
    /// normalized.
    pub approx_only: f64,
    /// GA-CDP (proposed), normalized.
    pub ga_cdp: f64,
    /// Absolute carbon of the exact baseline, grams.
    pub exact_carbon_g: f64,
}

/// Regenerates one Figure 3 bar group at explicit constraints (FPS
/// floor for the exact baseline and the GA, accuracy budget for the
/// approximate arms).
///
/// The paper's protocol: exact baseline = smallest NVDLA preset meeting
/// 30 FPS; approximate version = same architecture with an up-to-2 %
/// multiplier; GA-CDP = full search at the same constraints.
pub fn fig3_row_with(
    ctx: &CarmaContext,
    model: &DnnModel,
    ga: GaConfig,
    constraints: Constraints,
) -> Fig3Row {
    let min_fps = constraints.min_fps;
    let max_drop = constraints.max_accuracy_drop;

    let baseline = smallest_exact_meeting(ctx, model, min_fps);
    let base_g = baseline.eval.embodied.as_grams();

    // Approximate-only at the baseline architecture.
    let mut approx_dp = crate::space::DesignPoint::nvdla_like(baseline.macs);
    approx_dp.mult_idx = ctx.best_mult_within_drop(max_drop) as u16;
    let approx = ctx.evaluate(&approx_dp, model);

    let best = ga_cdp(ctx, model, constraints, ga);

    Fig3Row {
        model: model.name().to_string(),
        node: ctx.node(),
        exact: 1.0,
        approx_only: approx.embodied.as_grams() / base_g,
        ga_cdp: best.embodied.as_grams() / base_g,
        exact_carbon_g: base_g,
    }
}

/// Regenerates Figure 3: every model on every provided context (one
/// per node), model-major then node — the paper's bar-group order.
pub fn fig3_with(
    contexts: &[CarmaContext],
    ga: GaConfig,
    models: &[DnnModel],
    constraints: Constraints,
) -> Vec<Fig3Row> {
    let mut rows = Vec::new();
    for model in models {
        for ctx in contexts {
            rows.push(fig3_row_with(ctx, model, ga, constraints));
        }
    }
    rows
}

/// Serde helper: technology nodes serialize as their display name
/// ("7nm"), keeping exported rows human-readable.
pub(crate) fn serialize_node<S: serde::Serializer>(
    node: &TechNode,
    s: S,
) -> Result<S::Ok, S::Error> {
    s.serialize_str(&node.to_string())
}

/// Renders rows as an aligned plain-text table (used by the report
/// artifacts; kept here so integration tests can snapshot it).
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_table_aligns_columns() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1.0".to_string()],
                vec!["longer".to_string(), "2.25".to_string()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[3].contains("longer"));
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(ACCURACY_CLASSES, [0.005, 0.010, 0.020]);
        assert_eq!(FPS_THRESHOLDS, [30.0, 40.0, 50.0]);
    }

    // Full fig2/fig3 pipelines are exercised by the root integration
    // tests (tests/fig2_pipeline.rs, tests/fig3_pipeline.rs) at reduced
    // scale.
}
