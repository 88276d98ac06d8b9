//! Cross-crate tooling integration: Verilog export, equivalence
//! checking, roofline analysis and report generation — the supporting
//! toolchain around the headline flow.

use carma_core::report::{design_report, to_csv};
use carma_core::{CarmaContext, DesignPoint};
use carma_dataflow::{Accelerator, RooflineReport};
use carma_dnn::DnnModel;
use carma_multiplier::{ApproxGenome, MultiplierCircuit, ReductionKind};
use carma_netlist::equiv::check_equivalence;
use carma_netlist::{to_verilog, TechNode};

#[test]
fn approximate_multiplier_exports_valid_verilog() {
    let base = MultiplierCircuit::generate(8, ReductionKind::Dadda);
    let approx = ApproxGenome::truncation(2, 2).apply(&base);
    let v = to_verilog(approx.netlist());
    // Structural sanity: module with all ports, one instance per gate.
    assert!(v.contains("module"));
    for i in 0..8 {
        assert!(v.contains(&format!("input  a{i};")), "port a{i}");
        assert!(v.contains(&format!("output p{i};")), "port p{i}");
    }
    let instances = v
        .lines()
        .filter(|l| {
            let t = l.trim_start();
            [
                "and ", "or ", "xor ", "nand ", "nor ", "xnor ", "not ", "buf ",
            ]
            .iter()
            .any(|p| t.starts_with(p))
        })
        .count();
    assert_eq!(instances, approx.netlist().gate_count());
}

#[test]
fn sweep_is_equivalence_preserving_on_multipliers() {
    // The dead-gate sweep used by the approximation flow must never
    // change the function: prove it on a pruned multiplier.
    let base = MultiplierCircuit::generate(4, ReductionKind::Wallace);
    let mut pruned = base.clone();
    let gates = pruned.netlist().gate_ids();
    pruned
        .netlist_mut()
        .rewrite_to_const(gates[3], false)
        .unwrap();
    let swept = pruned.netlist().sweep();
    let verdict = check_equivalence(pruned.netlist(), &swept).unwrap();
    assert!(verdict.is_equivalent());
}

#[test]
fn roofline_explains_the_overdesign_story() {
    // The paper's premise: big accelerators waste their arrays on edge
    // workloads. Holding the memory system fixed (same global buffer),
    // a 16× larger array must show lower utilization and more
    // memory-bound layers.
    let model = DnnModel::resnet50();
    let mut small = Accelerator::nvdla_preset(128, TechNode::N7);
    let mut big = Accelerator::nvdla_preset(2048, TechNode::N7);
    small.global_buffer_kib = 256;
    big.global_buffer_kib = 256;
    let small_r = RooflineReport::analyze(&small, &model);
    let big_r = RooflineReport::analyze(&big, &model);
    assert!(
        big_r.average_utilization < small_r.average_utilization,
        "{} !< {}",
        big_r.average_utilization,
        small_r.average_utilization
    );
    assert!(big_r.memory_bound_fraction() >= small_r.memory_bound_fraction());
}

#[test]
fn report_pipeline_produces_complete_markdown() {
    let ctx = CarmaContext::reduced(TechNode::N7);
    let model = DnnModel::resnet50();
    let eval = ctx.evaluate(&DesignPoint::nvdla_like(512), &model);
    let report = design_report(&ctx, &model, &eval);
    assert!(report.contains("## Embodied carbon"));
    assert!(report.contains("| fab yield |"));

    let csv = to_csv(
        &["model", "carbon_g"],
        &[vec![
            model.name().to_string(),
            eval.embodied.as_grams().to_string(),
        ]],
    );
    assert!(csv.starts_with("model,carbon_g\n"));
}
