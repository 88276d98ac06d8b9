//! The declarative scenario API end to end: spec serde round-trips,
//! builder/resolve validation, golden equivalence between
//! registry-driven runs and the direct experiment drivers, and the
//! `carma` CLI binary itself.

use std::process::{Command, Stdio};
use std::sync::OnceLock;

use carma_core::experiments::{fig2_scatter_with, reduction_table_with};
use carma_core::flow::ga_cdp;
use carma_core::scenario::{
    Artifact, DeploymentSpec, ExperimentRegistry, GaSpec, Scale, ScenarioError, ScenarioSpec,
};
use carma_core::{CarmaContext, ConstraintError, Objective};
use carma_dnn::DnnModel;
use carma_multiplier::MultiplierLibrary;
use carma_netlist::TechNode;

fn registry() -> &'static ExperimentRegistry {
    static REGISTRY: OnceLock<ExperimentRegistry> = OnceLock::new();
    REGISTRY.get_or_init(ExperimentRegistry::standard)
}

/// A cheap fig2 spec: depth-2 ladder, 48 accuracy samples, small GA.
fn small_fig2_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::named("fig2")
        .with_model("resnet50")
        .with_node("7nm")
        .with_scale(Scale::Quick)
        .with_ga(GaSpec {
            population: Some(10),
            generations: Some(6),
            ..GaSpec::default()
        })
        .with_seed(42);
    spec.library_depth = Some(2);
    spec.accuracy_samples = Some(48);
    spec
}

// ─── serde round-trip ───────────────────────────────────────────────

#[test]
fn spec_round_trips_through_json() {
    let mut spec = small_fig2_spec();
    spec.accuracy_classes = vec![0.005, 0.02];
    spec.fps_thresholds = vec![25.0, 45.0];
    spec.family = "classic".to_string();
    spec.threads = Some(2);
    let json = spec.to_json();
    let back = ScenarioSpec::from_json(&json).expect("round-trip parses");
    assert_eq!(back, spec);
    // And the JSON itself is structurally valid for any JSON consumer.
    assert!(serde::json::parse(&json).is_ok());
}

#[test]
fn minimal_spec_parses_with_defaults() {
    let spec = ScenarioSpec::from_json(r#"{"experiment": "fig2"}"#).expect("minimal spec");
    assert_eq!(spec, ScenarioSpec::named("fig2"));
}

#[test]
fn unknown_spec_field_is_rejected_with_its_name() {
    let err = ScenarioSpec::from_json(r#"{"experiment": "fig2", "modle": "vgg16"}"#).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("modle"), "{msg}");
    assert!(msg.contains("model"), "should list known fields: {msg}");
}

#[test]
fn missing_experiment_field_is_rejected() {
    let err = ScenarioSpec::from_json(r#"{"model": "vgg16"}"#).unwrap_err();
    assert!(err.to_string().contains("experiment"), "{err}");
}

#[test]
fn type_mismatch_points_at_the_field() {
    let err = ScenarioSpec::from_json(r#"{"experiment": "fig2", "ga": {"population": "big"}}"#)
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("ga.population"), "{msg}");
}

/// A cheap deployment spec: depth-2 ladder, 48 samples, small GA, and
/// the grid/lifetime sweep narrowed to one cell.
fn small_deployment_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::named("deployment")
        .with_model("resnet50")
        .with_ga(GaSpec {
            population: Some(10),
            generations: Some(6),
            ..GaSpec::default()
        })
        .with_seed(42)
        .with_deployment(DeploymentSpec {
            grid: "world-average".to_string(),
            lifetime_hours: Some(26_280.0),
            utilization: Some(0.5),
            ..DeploymentSpec::default()
        });
    spec.library_depth = Some(2);
    spec.accuracy_samples = Some(48);
    spec
}

#[test]
fn deployment_spec_round_trips_through_json() {
    let mut spec = small_deployment_spec().with_objective("total-carbon");
    spec.deployment.as_mut().unwrap().dram_gb = Some(4.0);
    let json = spec.to_json();
    let back = ScenarioSpec::from_json(&json).expect("round-trip parses");
    assert_eq!(back, spec);
    assert!(serde::json::parse(&json).is_ok());
}

// ─── resolve-time validation ────────────────────────────────────────

#[test]
fn resolve_rejects_unknown_experiment() {
    let err = ScenarioSpec::named("fig9")
        .resolve(registry(), None, None)
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::UnknownExperiment { .. }),
        "{err:?}"
    );
}

#[test]
fn resolve_rejects_bad_fps_through_constraint_error() {
    let mut spec = ScenarioSpec::named("fig2");
    spec.fps_thresholds = vec![0.0];
    let err = spec.resolve(registry(), None, None).unwrap_err();
    assert_eq!(
        err,
        ScenarioError::Constraint(ConstraintError::NonPositiveFps(0.0))
    );
    assert!(
        err.to_string().contains("min_fps must be positive"),
        "{err}"
    );
}

#[test]
fn resolve_rejects_bad_inputs() {
    let reg = registry();
    let bad_model = ScenarioSpec::named("fig2").with_model("vgg17");
    assert!(matches!(
        bad_model.resolve(reg, None, None),
        Err(ScenarioError::UnknownModel(_))
    ));

    let bad_node = ScenarioSpec::named("fig2").with_node("5nm");
    assert!(matches!(
        bad_node.resolve(reg, None, None),
        Err(ScenarioError::UnknownNode(_))
    ));

    let mut bad_scale = ScenarioSpec::named("fig2");
    bad_scale.scale = "medium".to_string();
    assert!(matches!(
        bad_scale.resolve(reg, None, None),
        Err(ScenarioError::UnknownScale(_))
    ));

    let mut bad_class = ScenarioSpec::named("fig2");
    bad_class.accuracy_classes = vec![1.5];
    assert!(matches!(
        bad_class.resolve(reg, None, None),
        Err(ScenarioError::ClassOutOfRange(_))
    ));

    let mut bad_family = ScenarioSpec::named("fig2");
    bad_family.family = "booth".to_string();
    assert!(matches!(
        bad_family.resolve(reg, None, None),
        Err(ScenarioError::UnknownFamily(_))
    ));

    let mut bad_depth = ScenarioSpec::named("fig2");
    bad_depth.library_depth = Some(0);
    assert!(matches!(
        bad_depth.resolve(reg, None, None),
        Err(ScenarioError::InvalidDepth(0))
    ));

    let bad_ga = ScenarioSpec::named("fig2").with_ga(GaSpec {
        population: Some(1),
        ..GaSpec::default()
    });
    assert!(matches!(
        bad_ga.resolve(reg, None, None),
        Err(ScenarioError::InvalidGa(_))
    ));

    let zoo_on_single = ScenarioSpec::named("fig2").with_model("zoo");
    assert!(matches!(
        zoo_on_single.resolve(reg, None, None),
        Err(ScenarioError::ModelGridUnsupported(_))
    ));

    let multi_on_single = ScenarioSpec::named("fig2").with_nodes(["7nm", "14nm"]);
    assert!(matches!(
        multi_on_single.resolve(reg, None, None),
        Err(ScenarioError::SingleNodeExperiment(_))
    ));
}

#[test]
fn resolve_rejects_bad_deployment_blocks() {
    let reg = registry();
    let with = |d: DeploymentSpec| ScenarioSpec::named("deployment").with_deployment(d);

    let bad_objective = ScenarioSpec::named("deployment").with_objective("carbon-delay");
    assert!(matches!(
        bad_objective.resolve(reg, None, None),
        Err(ScenarioError::UnknownObjective(_))
    ));

    let bad_grid = with(DeploymentSpec {
        grid: "fusion".to_string(),
        ..DeploymentSpec::default()
    });
    let err = bad_grid.resolve(reg, None, None).unwrap_err();
    assert!(matches!(err, ScenarioError::UnknownGrid(_)));
    assert!(err.to_string().contains("world-average"), "{err}");

    let custom_without_value = with(DeploymentSpec {
        grid: "custom".to_string(),
        ..DeploymentSpec::default()
    });
    assert!(matches!(
        custom_without_value.resolve(reg, None, None),
        Err(ScenarioError::InvalidDeployment(_))
    ));

    let intensity_on_preset = with(DeploymentSpec {
        grid: "coal".to_string(),
        grid_g_per_kwh: Some(100.0),
        ..DeploymentSpec::default()
    });
    assert!(matches!(
        intensity_on_preset.resolve(reg, None, None),
        Err(ScenarioError::InvalidDeployment(_))
    ));

    let bad_package = with(DeploymentSpec {
        package: "bga".to_string(),
        ..DeploymentSpec::default()
    });
    assert!(matches!(
        bad_package.resolve(reg, None, None),
        Err(ScenarioError::UnknownPackage(_))
    ));

    let bad_utilization = with(DeploymentSpec {
        utilization: Some(1.5),
        ..DeploymentSpec::default()
    });
    assert!(matches!(
        bad_utilization.resolve(reg, None, None),
        Err(ScenarioError::InvalidDeployment(_))
    ));

    let bad_lifetime = with(DeploymentSpec {
        lifetime_hours: Some(-1.0),
        ..DeploymentSpec::default()
    });
    assert!(matches!(
        bad_lifetime.resolve(reg, None, None),
        Err(ScenarioError::InvalidDeployment(_))
    ));

    let bad_dram = with(DeploymentSpec {
        dram_gb: Some(f64::NAN),
        ..DeploymentSpec::default()
    });
    assert!(matches!(
        bad_dram.resolve(reg, None, None),
        Err(ScenarioError::InvalidDeployment(_))
    ));
}

#[test]
fn custom_grid_validation_never_panics() {
    // The GridMix::Custom panic in grams_per_kwh must be unreachable
    // from spec input: every bad intensity becomes a descriptive
    // ScenarioError at resolve time. Sweep a property-style grid of
    // bad and good values.
    let reg = registry();
    for bad in [
        -1.0,
        -1e-300,
        -f64::INFINITY,
        f64::INFINITY,
        f64::NAN,
        f64::MIN,
    ] {
        let spec = ScenarioSpec::named("deployment").with_deployment(DeploymentSpec {
            grid_g_per_kwh: Some(bad),
            ..DeploymentSpec::default()
        });
        let err = spec.resolve(reg, None, None).unwrap_err();
        match err {
            ScenarioError::InvalidDeployment(msg) => {
                assert!(msg.contains("g/kWh"), "not descriptive: {msg}");
            }
            other => panic!("expected InvalidDeployment, got {other:?}"),
        }
    }
    // Finite but absurd magnitudes are capped too: a validated spec
    // must never overflow the lifetime × intensity × power product
    // into the CarbonMass::from_grams panic mid-run.
    for (huge, field) in [
        (
            DeploymentSpec {
                grid_g_per_kwh: Some(1e300),
                ..DeploymentSpec::default()
            },
            "grid_g_per_kwh",
        ),
        (
            DeploymentSpec {
                lifetime_hours: Some(1e15),
                ..DeploymentSpec::default()
            },
            "lifetime_hours",
        ),
        (
            DeploymentSpec {
                dram_gb: Some(1e12),
                ..DeploymentSpec::default()
            },
            "dram_gb",
        ),
    ] {
        let spec = ScenarioSpec::named("deployment").with_deployment(huge);
        match spec.resolve(reg, None, None).unwrap_err() {
            ScenarioError::InvalidDeployment(msg) => {
                assert!(msg.contains(field) && msg.contains("≤"), "{msg}");
            }
            other => panic!("expected InvalidDeployment for huge {field}, got {other:?}"),
        }
    }
    for good in [0.0, 1e-9, 475.0, 1e6] {
        let spec = ScenarioSpec::named("deployment").with_deployment(DeploymentSpec {
            grid_g_per_kwh: Some(good),
            ..DeploymentSpec::default()
        });
        let resolved = spec.resolve(reg, None, None).expect("valid custom grid");
        assert_eq!(resolved.deployment.grid.grams_per_kwh(), good);
        assert_eq!(
            resolved.deployment_grids.len(),
            1,
            "custom grid pins the sweep"
        );
    }
}

#[test]
fn objective_and_deployment_rejected_on_unaware_experiments() {
    // fig2's runner only knows the CDP fitness: a spec asking it for
    // another objective (or handing it a deployment block) must fail
    // loudly instead of silently running under a different fitness.
    let reg = registry();
    let err = ScenarioSpec::named("fig2")
        .with_objective("total-carbon")
        .resolve(reg, None, None)
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::ObjectiveUnsupported { .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("fig2"), "{err}");

    let err = ScenarioSpec::named("fig2")
        .with_deployment(DeploymentSpec::default())
        .resolve(reg, None, None)
        .unwrap_err();
    assert!(
        matches!(err, ScenarioError::DeploymentUnsupported(_)),
        "{err:?}"
    );

    // An explicit `cdp` is exactly what runs — it stays valid.
    assert!(ScenarioSpec::named("fig2")
        .with_objective("cdp")
        .resolve(reg, None, None)
        .is_ok());
    // And the deployment experiment honors every objective.
    assert!(ScenarioSpec::named("deployment")
        .with_objective("edp")
        .resolve(reg, None, None)
        .is_ok());
}

#[test]
fn deployment_defaults_resolve_to_the_full_sweep() {
    let resolved = ScenarioSpec::named("deployment")
        .resolve(registry(), None, None)
        .expect("default deployment spec resolves");
    assert_eq!(resolved.objective, Objective::TotalCarbon);
    assert_eq!(resolved.deployment_grids.len(), 3);
    assert_eq!(resolved.deployment_lifetimes_h.len(), 3);
    assert_eq!(resolved.deployment.utilization, 1.0);
    // Non-deployment experiments keep the paper's CDP objective.
    let fig2 = ScenarioSpec::named("fig2")
        .resolve(registry(), None, None)
        .expect("resolves");
    assert_eq!(fig2.objective, Objective::Cdp);
    // An explicit grid/lifetime narrows the sweep to one cell.
    let narrowed = small_deployment_spec()
        .resolve(registry(), None, None)
        .expect("resolves");
    assert_eq!(narrowed.deployment_grids.len(), 1);
    assert_eq!(narrowed.deployment_lifetimes_h, vec![26_280.0]);
}

#[test]
fn resolve_defaults_match_the_paper_grid() {
    let resolved = ScenarioSpec::named("fig2")
        .resolve(registry(), None, None)
        .expect("default spec resolves");
    assert_eq!(resolved.accuracy_classes, vec![0.005, 0.010, 0.020]);
    assert_eq!(resolved.fps_thresholds, vec![30.0, 40.0, 50.0]);
    assert_eq!(resolved.constraints.min_fps, 30.0);
    assert_eq!(resolved.constraints.max_accuracy_drop, 0.020);
    assert_eq!(resolved.node, TechNode::N7);
    assert_eq!(resolved.nodes, vec![TechNode::N7]);
    // Multi-node experiments default to the full node sweep.
    let table1 = ScenarioSpec::named("table1")
        .resolve(registry(), None, None)
        .expect("resolves");
    assert_eq!(table1.nodes, TechNode::ALL.to_vec());
}

#[test]
fn explicit_node_narrows_a_multi_node_sweep() {
    let resolved = ScenarioSpec::named("table1")
        .with_node("14nm")
        .resolve(registry(), None, None)
        .expect("resolves");
    assert_eq!(resolved.node, TechNode::N14);
    assert_eq!(
        resolved.nodes,
        vec![TechNode::N14],
        "--node must not be ignored"
    );
    // An explicit nodes list still wins over the primary node field.
    let resolved = ScenarioSpec::named("table1")
        .with_nodes(["7nm", "28nm"])
        .resolve(registry(), None, None)
        .expect("resolves");
    assert_eq!(resolved.nodes, vec![TechNode::N7, TechNode::N28]);
}

#[test]
fn cli_scale_override_yields_to_spec_field() {
    let spec = ScenarioSpec::named("fig2").with_scale(Scale::Quick);
    let resolved = spec
        .resolve(registry(), Some(Scale::Full), None)
        .expect("resolves");
    assert_eq!(resolved.scale, Scale::Quick, "spec field wins over CLI");

    let unset = ScenarioSpec::named("fig2");
    let resolved = unset
        .resolve(registry(), Some(Scale::Full), None)
        .expect("resolves");
    assert_eq!(resolved.scale, Scale::Full, "CLI fills a defaulted field");
}

// ─── golden equivalence: registry run ≡ direct driver call ──────────

#[test]
fn registry_fig2_matches_direct_driver_call() {
    let spec = small_fig2_spec();
    let report = registry().run(&spec).expect("spec runs");

    // The same configuration, assembled by hand as a pre-redesign
    // driver would have: identical context, model, GA and grids must
    // give byte-identical rows.
    let resolved = spec.resolve(registry(), None, None).expect("resolves");
    let ctx = CarmaContext::with_parts(
        TechNode::N7,
        MultiplierLibrary::truncation_ladder(8, 2),
        resolved.evaluator(),
    );
    let direct = fig2_scatter_with(
        &ctx,
        &DnnModel::resnet50(),
        resolved.ga,
        &resolved.accuracy_classes,
        &resolved.fps_thresholds,
    );
    assert_eq!(resolved.ga.seed, 42, "spec seed reached the GA config");
    assert_eq!(report.artifacts.len(), 1);
    match &report.artifacts[0] {
        Artifact::Fig2(rows) => assert_eq!(rows, &direct),
        other => panic!("expected Fig2 artifact, got {}", other.kind()),
    }
}

#[test]
fn registry_table1_matches_direct_driver_call() {
    let mut spec = ScenarioSpec::named("table1").with_nodes(["7nm"]);
    spec.library_depth = Some(2);
    spec.accuracy_samples = Some(48);
    let report = registry().run(&spec).expect("spec runs");

    let resolved = spec.resolve(registry(), None, None).expect("resolves");
    let ctx = CarmaContext::with_parts(
        TechNode::N7,
        MultiplierLibrary::truncation_ladder(8, 2),
        resolved.evaluator(),
    );
    let direct = reduction_table_with(&ctx, &DnnModel::vgg16(), &resolved.accuracy_classes);
    match &report.artifacts[0] {
        Artifact::Reduction(rows) => assert_eq!(rows, &direct),
        other => panic!("expected Reduction artifact, got {}", other.kind()),
    }
}

#[test]
fn deployment_under_cdp_objective_is_golden_vs_legacy_ga_cdp() {
    // The acceptance golden: `objective = "cdp"` routes the deployment
    // experiment through the exact pre-change GA-CDP flow — the chosen
    // design must be bit-identical to a direct `ga_cdp` call at the
    // same seed and scale.
    let spec = small_deployment_spec().with_objective("cdp");
    let report = registry().run(&spec).expect("spec runs");
    let resolved = spec.resolve(registry(), None, None).expect("resolves");

    let ctx = CarmaContext::with_parts(
        TechNode::N7,
        MultiplierLibrary::truncation_ladder(8, 2),
        resolved.evaluator(),
    );
    // The single sweep cell uses the base seed (cell index 0).
    let legacy = ga_cdp(
        &ctx,
        &DnnModel::resnet50(),
        resolved.constraints,
        resolved.ga,
    );
    match &report.artifacts[0] {
        Artifact::Deployment(rows) => {
            assert_eq!(rows.len(), 1);
            let row = &rows[0];
            assert_eq!(row.macs, legacy.accelerator.macs());
            assert_eq!(row.multiplier, legacy.multiplier);
            assert_eq!(row.fps.to_bits(), legacy.fps.to_bits());
            assert_eq!(row.die_g.to_bits(), legacy.embodied.as_grams().to_bits());
        }
        other => panic!("expected Deployment artifact, got {}", other.kind()),
    }
}

#[test]
fn deployment_csv_is_well_formed() {
    let report = registry().run(&small_deployment_spec()).expect("spec runs");
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + report.artifacts[0].len());
    let columns = lines[0].split(',').count();
    assert_eq!(columns, 13);
    for line in &lines[1..] {
        // No cell in this table carries a separator, so a plain split
        // must agree with the header arity — and every numeric column
        // parses.
        assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
    }
    // JSON sink round-trips through a strict parser.
    let v = serde::json::parse(&report.to_json()).expect("valid JSON");
    let artifacts = v.get("artifacts").unwrap().as_array().unwrap();
    assert_eq!(
        artifacts[0].get("kind").unwrap().as_str(),
        Some("deployment")
    );
}

#[test]
fn report_sinks_agree_with_artifacts() {
    let spec = {
        let mut s = ScenarioSpec::named("table1").with_nodes(["7nm"]);
        s.library_depth = Some(2);
        s.accuracy_samples = Some(48);
        s
    };
    let report = registry().run(&spec).expect("spec runs");
    // JSON parses and carries the typed rows.
    let v = serde::json::parse(&report.to_json()).expect("valid JSON");
    let artifacts = v.get("artifacts").unwrap().as_array().unwrap();
    assert_eq!(
        artifacts[0].get("rows").unwrap().as_array().unwrap().len(),
        report.artifacts[0].len()
    );
    // CSV has header + one line per displayed row.
    let csv = report.to_csv();
    let expected_lines = 1 + report.artifacts[0].table_rows().len();
    assert_eq!(csv.lines().count(), expected_lines);
    // Text rendering carries banner, table and notes.
    let text = report.render_text();
    assert!(text.contains("=== CARMA experiment:"));
    assert!(text.contains("7nm"));
    assert!(text.contains("paper peak maximum"));
}

// ─── the `carma` CLI binary ─────────────────────────────────────────

fn carma_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_carma"))
}

#[test]
fn cli_list_names_every_experiment() {
    let out = carma_cli().arg("list").output().expect("carma list runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in registry().names() {
        assert!(stdout.contains(name), "list misses `{name}`:\n{stdout}");
    }
}

/// Every registry experiment runs end to end through the CLI at quick
/// scale. All children start before any is awaited, so the suite pays
/// about the slowest run rather than the sum; `bench_parallel` writes
/// its JSON into the scratch cwd.
#[test]
fn cli_runs_every_experiment_at_quick_scale() {
    let dir = std::env::temp_dir().join(format!("carma_cli_every_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let children: Vec<_> = registry()
        .names()
        .map(|name| {
            let child = carma_cli()
                .args(["run", name, "--scale", "quick"])
                .current_dir(&dir)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("failed to spawn `carma run {name}`: {e}"));
            (name, child)
        })
        .collect();
    let outputs: Vec<_> = children
        .into_iter()
        .map(|(name, child)| (name, child.wait_with_output().expect("child output")))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    for (name, out) in outputs {
        assert!(
            out.status.success(),
            "`carma run {name}` exited with {:?}\nstderr:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("CARMA experiment"),
            "`carma run {name}` printed no experiment banner:\n{stdout}"
        );
    }
}

#[test]
fn cli_rejects_unknown_experiment_with_exit_2() {
    let out = carma_cli()
        .args(["run", "fig9"])
        .output()
        .expect("carma runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment"), "{stderr}");
    assert!(stderr.contains("fig2"), "should list known names: {stderr}");
}

#[test]
fn cli_run_without_name_or_spec_is_a_usage_error_not_a_panic() {
    let out = carma_cli().arg("run").output().expect("carma runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("give an experiment name or `--spec <file>`"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn cli_warns_on_unrecognized_carma_scale() {
    // A mistyped env value (`full` misspelled) must be named on stderr
    // with the accepted spellings; use an invalid experiment so the
    // probe exits fast after the warning.
    let out = carma_cli()
        .args(["run", "fig9"])
        .env("CARMA_SCALE", "fullish")
        .output()
        .expect("carma runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unrecognized CARMA_SCALE"), "{stderr}");
    assert!(stderr.contains("fullish"), "{stderr}");
    assert!(
        stderr.contains("quick") && stderr.contains("full"),
        "warning must name the accepted values: {stderr}"
    );
    // Recognized values stay silent.
    for good in ["quick", "full", ""] {
        let out = carma_cli()
            .args(["run", "fig9"])
            .env("CARMA_SCALE", good)
            .output()
            .expect("carma runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("unrecognized CARMA_SCALE"),
            "false warning for `{good}`: {stderr}"
        );
    }
}

#[test]
fn cli_warns_on_unrecognized_carma_threads() {
    // A value the engine cannot use (`fast`, `0`) must be named on
    // stderr with the accepted form instead of being silently ignored;
    // use an invalid experiment so the probe exits fast.
    for bad in ["fast", "0", "-2", "1.5"] {
        let out = carma_cli()
            .args(["run", "fig9"])
            .env("CARMA_THREADS", bad)
            .output()
            .expect("carma runs");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unrecognized CARMA_THREADS"),
            "no warning for `{bad}`: {stderr}"
        );
        assert!(stderr.contains(bad), "{stderr}");
        assert!(
            stderr.contains("positive integer"),
            "warning must name the accepted form: {stderr}"
        );
    }
    // The no-false-positive side: valid widths and an unset/empty
    // variable stay silent.
    for good in ["1", "8", " 4 ", ""] {
        let out = carma_cli()
            .args(["run", "fig9"])
            .env("CARMA_THREADS", good)
            .output()
            .expect("carma runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.contains("CARMA_THREADS"),
            "false warning for `{good}`: {stderr}"
        );
    }
}

#[test]
fn cli_rejects_invalid_spec_with_exit_2() {
    let dir = std::env::temp_dir().join(format!("carma_cli_spec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("bad.json");
    std::fs::write(&path, r#"{"experiment": "fig2", "fps_thresholds": [0.0]}"#).expect("write");
    let out = carma_cli()
        .args(["run", "--spec"])
        .arg(&path)
        .output()
        .expect("carma runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("min_fps must be positive"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_runs_spec_to_valid_json_on_clean_stdout() {
    let dir = std::env::temp_dir().join(format!("carma_cli_json_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("table1.json");
    std::fs::write(
        &path,
        r#"{"experiment": "table1", "nodes": ["7nm"], "library_depth": 2, "accuracy_samples": 48}"#,
    )
    .expect("write");
    let out = carma_cli()
        .args(["run", "--out", "json", "--spec"])
        .arg(&path)
        .current_dir(&dir)
        .output()
        .expect("carma runs");
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let v = serde::json::parse(stdout.trim()).expect("stdout is pure JSON");
    assert_eq!(v.get("experiment").unwrap().as_str(), Some("table1"));
    let _ = std::fs::remove_dir_all(&dir);
}

// ─── canonical spec serialization (the cache-key contract) ──────────

/// A spec with every optional field populated, for serialization
/// contract tests.
fn fully_populated_spec() -> ScenarioSpec {
    ScenarioSpec {
        experiment: "fig2".to_string(),
        model: "resnet50".to_string(),
        node: "7nm".to_string(),
        nodes: vec!["7nm".to_string(), "14nm".to_string()],
        accuracy_classes: vec![0.005, 0.02],
        fps_thresholds: vec![30.0],
        family: "classic".to_string(),
        library: String::new(),
        library_depth: Some(2),
        accuracy_samples: Some(48),
        ga: Some(GaSpec {
            population: Some(10),
            generations: Some(6),
            tournament: None,
            crossover_rate: Some(0.9),
            mutation_rate: None,
            elites: None,
            seed: Some(7),
        }),
        seed: Some(42),
        scale: "quick".to_string(),
        threads: Some(2),
        objective: "cdp".to_string(),
        deployment: Some(DeploymentSpec {
            grid: "custom".to_string(),
            grid_g_per_kwh: Some(123.5),
            lifetime_hours: Some(8760.0),
            utilization: Some(0.5),
            package: "monolithic".to_string(),
            dram_gb: Some(2.0),
        }),
    }
}

#[test]
fn spec_json_field_order_matches_the_documented_contract() {
    let json = fully_populated_spec().to_json();
    let v = serde::json::parse(&json).expect("valid JSON");
    let keys: Vec<&str> = v
        .as_object()
        .expect("spec serializes to an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        carma_core::scenario::SPEC_FIELD_ORDER.to_vec(),
        "spec JSON keys drifted from SPEC_FIELD_ORDER"
    );
    let ga_keys: Vec<&str> = v
        .get("ga")
        .and_then(|ga| ga.as_object())
        .expect("ga block")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(ga_keys, carma_core::scenario::GA_FIELD_ORDER.to_vec());
    let dep_keys: Vec<&str> = v
        .get("deployment")
        .and_then(|d| d.as_object())
        .expect("deployment block")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        dep_keys,
        carma_core::scenario::DEPLOYMENT_FIELD_ORDER.to_vec()
    );
}

#[test]
fn spec_json_bytes_are_pinned() {
    // The golden byte-stability regression: a struct-field reorder (or
    // an accidental serializer change) must fail here, visibly, rather
    // than silently invalidating every cache key built on these bytes.
    let expected = concat!(
        "{\"experiment\":\"fig2\",\"model\":\"resnet50\",\"node\":\"7nm\",",
        "\"nodes\":[\"7nm\",\"14nm\"],\"accuracy_classes\":[0.005,0.02],",
        "\"fps_thresholds\":[30],\"family\":\"classic\",\"library\":\"\",",
        "\"library_depth\":2,",
        "\"accuracy_samples\":48,\"ga\":{\"population\":10,\"generations\":6,",
        "\"tournament\":null,\"crossover_rate\":0.9,\"mutation_rate\":null,",
        "\"elites\":null,\"seed\":7},\"seed\":42,\"scale\":\"quick\",\"threads\":2,",
        "\"objective\":\"cdp\",\"deployment\":{\"grid\":\"custom\",",
        "\"grid_g_per_kwh\":123.5,\"lifetime_hours\":8760,\"utilization\":0.5,",
        "\"package\":\"monolithic\",\"dram_gb\":2}}"
    );
    assert_eq!(fully_populated_spec().to_json(), expected);
}

#[test]
fn spec_json_round_trip_is_byte_stable() {
    let spec = fully_populated_spec();
    let json = spec.to_json();
    let back = ScenarioSpec::from_json(&json).expect("round-trip parses");
    assert_eq!(back, spec);
    assert_eq!(
        back.to_json(),
        json,
        "serialize → parse → serialize drifted"
    );
    // The minimal spec round-trips byte-stably too (None/empty fields).
    let minimal = ScenarioSpec::named("table1");
    let json = minimal.to_json();
    let back = ScenarioSpec::from_json(&json).expect("parses");
    assert_eq!(back.to_json(), json);
}

// ─── the resolved-scenario fingerprint (the content address) ────────

#[test]
fn fingerprint_is_invariant_to_thread_count() {
    let base = small_fig2_spec();
    let mut one = base.clone();
    one.threads = Some(1);
    let mut eight = base.clone();
    eight.threads = Some(8);
    let fp1 = one.resolve(registry(), None, None).expect("resolves");
    let fp8 = eight.resolve(registry(), None, None).expect("resolves");
    assert_eq!(fp1.fingerprint(), fp8.fingerprint());
    // CLI-level width override: same invariance.
    let cli1 = base.resolve(registry(), None, Some(1)).expect("resolves");
    let cli8 = base.resolve(registry(), None, Some(8)).expect("resolves");
    assert_eq!(cli1.fingerprint(), cli8.fingerprint());
    assert_eq!(fp1.fingerprint(), cli1.fingerprint());
    // The preimage simply has no width field.
    assert!(
        !fp1.canonical_json().contains("threads"),
        "canonical JSON must not mention the engine width:\n{}",
        fp1.canonical_json()
    );
}

#[test]
fn cli_fingerprint_is_invariant_to_carma_threads_env() {
    // The env-level proof of the cache-key contract: the same spec at
    // CARMA_THREADS=1 and =8 prints the same content address.
    let fp_at = |threads: &str| {
        let out = carma_cli()
            .args(["run", "fig2", "--fingerprint"])
            .env("CARMA_THREADS", threads)
            .output()
            .expect("carma runs");
        assert!(
            out.status.success(),
            "stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    let one = fp_at("1");
    let eight = fp_at("8");
    assert_eq!(one, eight, "fingerprint must not depend on CARMA_THREADS");
    assert_eq!(one.len(), 32, "32 hex chars: {one}");
    assert!(one.bytes().all(|b| b.is_ascii_hexdigit()));
}

#[test]
fn fingerprint_canonicalizes_restated_defaults() {
    // Spelling an experiment's defaults out explicitly is the same
    // scenario, so it must hash to the same address.
    let implicit = ScenarioSpec::named("fig2")
        .resolve(registry(), Some(Scale::Quick), None)
        .expect("resolves");
    let explicit = ScenarioSpec::named("fig2")
        .with_model("vgg16")
        .with_node("7nm")
        .with_scale(Scale::Quick)
        .with_objective("cdp")
        .resolve(registry(), None, None)
        .expect("resolves");
    assert_eq!(implicit.fingerprint(), explicit.fingerprint());

    // A custom deployment grid at a preset's intensity is that preset.
    let preset = {
        let mut spec = small_deployment_spec();
        spec.deployment = Some(DeploymentSpec {
            grid: "world-average".to_string(),
            lifetime_hours: Some(8760.0),
            ..DeploymentSpec::default()
        });
        spec.resolve(registry(), None, None).expect("resolves")
    };
    let custom = {
        let mut spec = small_deployment_spec();
        spec.deployment = Some(DeploymentSpec {
            grid_g_per_kwh: Some(475.0),
            lifetime_hours: Some(8760.0),
            ..DeploymentSpec::default()
        });
        spec.resolve(registry(), None, None).expect("resolves")
    };
    assert_eq!(preset.fingerprint(), custom.fingerprint());
}

#[test]
fn fingerprint_distinguishes_result_changing_fields() {
    let base = small_fig2_spec();
    let base_fp = base
        .resolve(registry(), None, None)
        .expect("resolves")
        .fingerprint();
    let variants: Vec<(&str, ScenarioSpec)> = vec![
        ("seed", base.clone().with_seed(43)),
        ("model", base.clone().with_model("vgg16")),
        ("node", base.clone().with_node("14nm")),
        ("scale", base.clone().with_scale(Scale::Full)),
        ("library depth", {
            let mut spec = base.clone();
            spec.library_depth = Some(3);
            spec
        }),
        ("accuracy grid", {
            let mut spec = base.clone();
            spec.accuracy_classes = vec![0.005, 0.01];
            spec
        }),
        ("fps grid", {
            let mut spec = base.clone();
            spec.fps_thresholds = vec![25.0, 40.0, 50.0];
            spec
        }),
        ("ga budget", {
            let mut spec = base.clone();
            spec.ga = Some(GaSpec {
                population: Some(12),
                generations: Some(6),
                ..GaSpec::default()
            });
            spec
        }),
    ];
    for (what, spec) in variants {
        let fp = spec
            .resolve(registry(), None, None)
            .expect("resolves")
            .fingerprint();
        assert_ne!(fp, base_fp, "changing {what} must change the fingerprint");
    }
    // Deployment knobs are part of the key too.
    let dep = small_deployment_spec()
        .resolve(registry(), None, None)
        .expect("resolves")
        .fingerprint();
    let dep_longer = {
        let mut spec = small_deployment_spec();
        spec.deployment = Some(DeploymentSpec {
            lifetime_hours: Some(9000.0),
            ..spec.deployment.unwrap_or_default()
        });
        spec.resolve(registry(), None, None).expect("resolves")
    }
    .fingerprint();
    assert_ne!(dep, dep_longer);
}

#[test]
fn canonical_json_is_valid_json_with_effective_values() {
    let resolved = small_fig2_spec()
        .resolve(registry(), None, None)
        .expect("resolves");
    let v = serde::json::parse(&resolved.canonical_json()).expect("canonical form parses");
    assert_eq!(v.get("experiment").unwrap().as_str(), Some("fig2"));
    assert_eq!(v.get("scale").unwrap().as_str(), Some("quick"));
    // Effective values, not raw spec fields: the defaulted family and
    // the explicit depth/samples land resolved.
    assert_eq!(v.get("family").unwrap().as_str(), Some("ladder"));
    assert_eq!(v.get("library_depth").unwrap().as_f64(), Some(2.0));
    assert_eq!(v.get("accuracy_samples").unwrap().as_f64(), Some(48.0));
    assert_eq!(
        v.get("ga").unwrap().get("seed").unwrap().as_f64(),
        Some(42.0)
    );
}
