//! Cross-crate integration tests: epitome design → mapping → data path →
//! quantization → cost model, exercised together through the facade crate.

use epim::core::{wrapping_factor, ConvShape, Epitome, EpitomeDesigner, EpitomeShape, EpitomeSpec};
use epim::models::accuracy::{AccuracyModel, QuantMethod, WeightScheme};
use epim::models::lower::{StageInput, StageOp};
use epim::models::network::{Network, OperatorChoice};
use epim::models::resnet::{resnet101, resnet50};
use epim::pim::datapath::DataPath;
use epim::pim::{AcceleratorConfig, CostModel, Precision};
use epim::prune::{element_prune, prune_blocks, BlockPruneConfig};
use epim::quant::{quantize_epitome, QuantGranularity, RangeEstimator};
use epim::search::{EvoSearch, Objective, SearchConfig, SearchLayer};
use epim::tensor::ops::{conv2d, Conv2dCfg};
use epim::tensor::{init, rng, Tensor};

#[test]
fn designed_epitome_runs_quantized_on_datapath() {
    // Full pipeline: design -> init -> quantize (overlap-aware, per
    // crossbar) -> run on the PIM data path -> compare against the
    // quantized reconstructed conv.
    let designer = EpitomeDesigner::new(32, 32);
    let conv = ConvShape::new(64, 32, 3, 3);
    let spec = designer.design(conv, 144, 32).unwrap();
    let mut r = rng::seeded(7);
    let epi = Epitome::from_tensor(
        spec.clone(),
        init::kaiming_normal(&spec.shape().dims(), &mut r),
    )
    .unwrap();
    let (qepi, report) = quantize_epitome(
        &epi,
        5,
        QuantGranularity::PerCrossbar { rows: 32, cols: 32 },
        &RangeEstimator::overlap_default(),
    )
    .unwrap();
    assert!(report.mse > 0.0);

    let cfg = Conv2dCfg {
        stride: 1,
        padding: 1,
    };
    let x = init::uniform(&[1, 32, 8, 8], -1.0, 1.0, &mut r);
    let dp = DataPath::new(&qepi, cfg, true).unwrap();
    let (y_pim, stats) = dp.execute(&x).unwrap();
    let y_ref = conv2d(&x, &qepi.reconstruct().unwrap(), None, cfg).unwrap();
    assert!(y_pim.allclose(&y_ref, 1e-3).unwrap());
    assert!(stats.rounds > 0);
}

#[test]
fn uniform_epim_resnet50_reproduces_table1_shape() {
    // The headline Table 1 shape at W3A9: crossbar compression in the
    // tens, energy far below the FP32 baseline, accuracy within ~5 points.
    let designer = EpitomeDesigner::new(128, 128);
    let model = CostModel::new(AcceleratorConfig::default().with_channel_wrapping(true));
    let base = Network::baseline(resnet50());
    let epim = Network::uniform_epitome(resnet50(), &designer, 1024, 256).unwrap();

    let base_fp = base.simulate(&model, Precision::fp32());
    let w3 = epim.simulate(&model, Precision::new(3, 9));
    let cr = base_fp.crossbars() as f64 / w3.crossbars() as f64;
    assert!(cr > 15.0, "W3A9 crossbar CR {cr} (paper: 30.65)");
    let energy_red = base_fp.energy_mj() / w3.energy_mj();
    assert!(
        energy_red > 5.0,
        "energy reduction {energy_red} (paper: 23.01)"
    );

    let acc = AccuracyModel::resnet50();
    let top1 = acc.epim_accuracy(
        epim.param_compression(),
        WeightScheme::Fixed { bits: 3 },
        QuantMethod::PerCrossbarOverlap,
    );
    assert!(
        (acc.baseline() - top1) < 5.5,
        "accuracy drop too large: {top1}"
    );
}

#[test]
fn resnet101_scales_consistently_with_resnet50() {
    let designer = EpitomeDesigner::new(128, 128);
    let model = CostModel::new(AcceleratorConfig::default().with_channel_wrapping(true));
    let b50 = Network::baseline(resnet50()).simulate(&model, Precision::fp32());
    let b101 = Network::baseline(resnet101()).simulate(&model, Precision::fp32());
    // ResNet-101 is roughly 1.7-2x the size/latency of ResNet-50 (paper:
    // 22912 vs 13120 XBs; 189.7 vs 139.8 ms).
    let xb_ratio = b101.crossbars() as f64 / b50.crossbars() as f64;
    assert!((1.4..2.3).contains(&xb_ratio), "XB ratio {xb_ratio}");
    let lat_ratio = b101.latency_ms() / b50.latency_ms();
    assert!((1.1..2.2).contains(&lat_ratio), "latency ratio {lat_ratio}");

    let e101 = Network::uniform_epitome(resnet101(), &designer, 1024, 256).unwrap();
    let w3 = e101.simulate(&model, Precision::new(3, 9));
    let cr = b101.crossbars() as f64 / w3.crossbars() as f64;
    assert!(cr > 15.0, "ResNet-101 W3A9 XB CR {cr} (paper: 31.22)");
}

#[test]
fn search_improves_on_uniform_design_like_figure4() {
    // Figure 4's claim: layer-wise search + wrapping beats the uniform
    // epitome at similar compression.
    let designer = EpitomeDesigner::new(128, 128);
    let model = CostModel::new(AcceleratorConfig::default().with_channel_wrapping(true));
    let precision = Precision::new(9, 9);

    let backbone = resnet50();
    let layers: Vec<SearchLayer> = backbone
        .layers
        .iter()
        .filter(|l| l.conv.kh == 3 && l.conv.cin >= 128)
        .map(|l| SearchLayer {
            conv: l.conv,
            out_pixels: l.out_pixels(),
            candidates: designer.candidates(l.conv).unwrap(),
        })
        .collect();
    assert!(layers.len() >= 10);

    let search = EvoSearch::new(
        layers.clone(),
        model,
        precision,
        SearchConfig {
            iterations: 15,
            population: 24,
            seed: 1,
            ..Default::default()
        },
    )
    .unwrap();
    // Uniform mid-ladder reference.
    let uniform: Vec<usize> = layers.iter().map(|l| l.candidates.len() / 2).collect();
    let (u_costs, _) = search.evaluate(&uniform);
    let best = search.run();
    assert!(
        best.costs.latency_ns <= u_costs.latency_ns,
        "search {} vs uniform {}",
        best.costs.latency_ns,
        u_costs.latency_ns
    );
}

#[test]
fn epitome_crossbars_beat_pruning_crossbars_at_same_budget() {
    // Table 3's structural point: the epitome converts parameter savings
    // into crossbar savings more effectively than block pruning at the
    // same nominal ratio.
    let mut r = rng::seeded(3);
    let conv = ConvShape::new(256, 128, 3, 3);
    let w = init::kaiming_normal(&conv.dims(), &mut r);
    let matrix = w.reshape(&[conv.matrix_rows(), conv.cout]).unwrap();

    // PIM-Prune at 50% blocks.
    let res = prune_blocks(
        &matrix,
        &BlockPruneConfig {
            block_rows: 128,
            block_cols: 128,
            ratio: 0.5,
        },
    )
    .unwrap();
    assert!(res.report.compression >= 1.9);

    // Element pruning on an epitome (Table 3 "Epitome + Pruning").
    let spec = EpitomeSpec::new(conv, EpitomeShape::new(128, 128, 2, 2)).unwrap();
    let epi = Epitome::from_conv_weight(spec.clone(), &w).unwrap();
    let (_, erep) = element_prune(epi.tensor(), 0.5).unwrap();
    let combined = spec.param_compression() * erep.compression;
    assert!(
        combined > res.report.compression,
        "epitome+pruning {combined} vs prune {}",
        res.report.compression
    );
}

#[test]
fn mixed_network_choices_simulate() {
    // A hand-mixed network: epitomes on big layers only.
    let backbone = resnet50();
    let designer = EpitomeDesigner::new(128, 128);
    let mut choices = Vec::new();
    for layer in &backbone.layers {
        if layer.conv.params() > 1_000_000 {
            let spec = designer
                .design(
                    layer.conv,
                    layer.conv.matrix_rows() / 2,
                    layer.conv.cout / 2,
                )
                .unwrap();
            choices.push(OperatorChoice::Epitome(spec));
        } else {
            choices.push(OperatorChoice::Conv);
        }
    }
    let net = Network::from_choices(backbone, choices).unwrap();
    assert!(net.epitome_layers() > 0);
    let model = CostModel::new(AcceleratorConfig::default());
    let costs = net.simulate(&model, Precision::new(9, 9));
    assert!(costs.crossbars() > 0);
    assert!(net.param_compression() > 1.0);
}

#[test]
fn wrapping_factor_consistent_between_core_and_pim() {
    let spec =
        EpitomeSpec::new(ConvShape::new(24, 6, 3, 3), EpitomeShape::new(8, 6, 3, 3)).unwrap();
    let wrap = wrapping_factor(spec.plan());
    assert_eq!(wrap.factor, 3);
    let off =
        CostModel::new(AcceleratorConfig::default()).epitome_layer(&spec, 49, Precision::new(9, 9));
    let on = CostModel::new(AcceleratorConfig::default().with_channel_wrapping(true))
        .epitome_layer(&spec, 49, Precision::new(9, 9));
    assert_eq!(on.rounds_per_pixel * wrap.factor, off.rounds_per_pixel);
}

#[test]
fn objective_choice_changes_search_outcome_metrics() {
    let designer = EpitomeDesigner::new(128, 128);
    let model = CostModel::new(AcceleratorConfig::default().with_channel_wrapping(true));
    let backbone = resnet50();
    let layers: Vec<SearchLayer> = backbone
        .layers
        .iter()
        .filter(|l| l.conv.kh == 3 && l.conv.cin >= 256)
        .map(|l| SearchLayer {
            conv: l.conv,
            out_pixels: l.out_pixels(),
            candidates: designer.candidates(l.conv).unwrap(),
        })
        .collect();
    let run = |objective| {
        EvoSearch::new(
            layers.clone(),
            model,
            Precision::new(9, 9),
            SearchConfig {
                iterations: 12,
                seed: 2,
                objective,
                ..Default::default()
            },
        )
        .unwrap()
        .run()
    };
    let lat = run(Objective::Latency);
    let en = run(Objective::Energy);
    assert!(lat.costs.latency_ns <= en.costs.latency_ns * 1.05);
    assert!(en.costs.energy_pj <= lat.costs.energy_pj * 1.05);
}

/// The cost model and the executed data path count the same events. For
/// every epitome stage of uniform ResNet-50 and ResNet-101 lowered at
/// 64×64, with channel wrapping off and on, one image through the stage's
/// `DataPath` executes the model's rounds per pixel times the output
/// pixels, and reads and writes exactly the model's buffer elements.
#[test]
fn cost_model_counts_equal_executed_datapath_counts() {
    let designer = EpitomeDesigner::new(128, 128);
    let mut wrapped_stages = 0;
    for backbone in [resnet50(), resnet101()] {
        let net = Network::uniform_epitome(backbone, &designer, 1024, 256).unwrap();
        let prog = net.lower(64, 64).unwrap();
        // Blocks repeat their layers: each (spec, cfg, input shape) once.
        let mut seen = Vec::new();
        for stage in prog.stages() {
            let StageOp::Epitome { spec, cfg, .. } = &stage.op else {
                continue;
            };
            let in_shape = match stage.input {
                StageInput::Source => prog.input_shape(),
                StageInput::Stage(j) => &prog.stages()[j].out_shape,
            };
            let key = (spec.clone(), *cfg, in_shape.to_vec());
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let pixels: usize = stage.out_shape[1..].iter().product();
            let input = Tensor::zeros(&[&[1], in_shape].concat());
            let epitome = Epitome::zeros(spec.clone());
            for wrapping in [false, true] {
                let (_, stats) = DataPath::new(&epitome, *cfg, wrapping)
                    .unwrap()
                    .execute(&input)
                    .unwrap();
                let model =
                    CostModel::new(AcceleratorConfig::default().with_channel_wrapping(wrapping))
                        .epitome_layer(spec, pixels, Precision::fp32());
                let what = format!("{} with wrapping {wrapping}", stage.name);
                let rounds = (model.rounds_per_pixel * pixels) as u64;
                assert_eq!(stats.rounds, rounds, "rounds of {what}");
                assert_eq!(stats.buffer_reads, model.buffer_reads, "reads of {what}");
                assert_eq!(stats.buffer_writes, model.buffer_writes, "writes of {what}");
                wrapped_stages += usize::from(stats.wrapped_elements > 0);
            }
        }
    }
    assert!(wrapped_stages > 0, "no stage exercised channel wrapping");
}
