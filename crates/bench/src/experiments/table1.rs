//! Table 1: main experimental results of EPIM on ImageNet.
//!
//! Columns reproduced: accuracy (calibrated surrogate — see
//! `epim_models::accuracy`),
//! #XBs, crossbar compression rate, latency, energy, memristor utilization
//! (all simulated by the `epim-pim` cost model).

use epim::models::accuracy::{AccuracyModel, QuantMethod, WeightScheme};
use epim::models::network::Network;
use epim::models::resnet::{resnet101, resnet50, Backbone};
use epim::pim::Precision;
use epim::search::Objective;

use super::{cost_model, uniform_epim};

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Row label, e.g. `"EPIM-ResNet50-Latency-Opt"`.
    pub model: String,
    /// Bit-width label, e.g. `"W9A9"`.
    pub bitwidth: String,
    /// Epitome column, e.g. `"1024x256"`, `"layer-wise"` or `"-"`.
    pub epitome: String,
    /// Top-1 accuracy (%), from the calibrated surrogate.
    pub accuracy: f64,
    /// Crossbars allocated (NaN-free; 0 only for rows the paper leaves
    /// blank).
    pub xbs: usize,
    /// Crossbar compression rate vs the FP32 baseline.
    pub cr_xbs: f64,
    /// Network latency, ms.
    pub latency_ms: f64,
    /// Network energy, mJ.
    pub energy_mj: f64,
    /// Memristor utilization, %.
    pub utilization_pct: f64,
}

fn accuracy_model(backbone: &Backbone) -> AccuracyModel {
    if backbone.name == "ResNet50" {
        AccuracyModel::resnet50()
    } else {
        AccuracyModel::resnet101()
    }
}

/// The paper's `W3mp` assignment: 3/5-bit mixed precision allocated by
/// the HAWQ-style sensitivity proxy on the network's actual operators
/// (conv layers and small epitomes count via their parameter sizes; the
/// proxy itself is evaluated on Kaiming-initialized epitome tensors).
fn w3mp_allocation(net: &Network) -> epim::quant::BitAllocation {
    use epim::models::network::OperatorChoice;
    let mut r = epim::tensor::rng::seeded(17);
    let mut sens = Vec::new();
    let mut params = Vec::new();
    for (layer, choice) in net.backbone().layers.iter().zip(net.choices()) {
        match choice {
            OperatorChoice::Epitome(spec) => {
                let data = epim::tensor::init::kaiming_normal(&spec.shape().dims(), &mut r);
                let e = epim::core::Epitome::from_tensor(spec.clone(), data)
                    .expect("shape matches spec");
                sens.push(epim::quant::sensitivity_proxy(&e, 3).expect("proxy computes"));
                params.push(spec.shape().params());
            }
            OperatorChoice::Conv => {
                // Convolution layers keep weights verbatim; sensitivity is
                // proportional to their parameter mass at equal variance.
                sens.push(layer.conv.params() as f64);
                params.push(layer.conv.params());
            }
        }
    }
    epim::quant::MixedPrecision::w3mp()
        .allocate(&sens, &params)
        .expect("valid allocation inputs")
}

/// Generates all Table 1 rows for one backbone. `fast` shrinks the
/// evolutionary search for unit tests; the published harness uses
/// `fast = false`.
pub fn rows_for(backbone: Backbone, fast: bool) -> Vec<Table1Row> {
    let acc = accuracy_model(&backbone);
    let model = cost_model(true);
    let short = backbone.name.clone();
    let mut rows = Vec::new();

    // FP32 conv baseline.
    let baseline = Network::baseline(backbone.clone());
    let base_costs = baseline.simulate(&model, Precision::fp32());
    let base_xbs = base_costs.crossbars();
    rows.push(Table1Row {
        model: short.clone(),
        bitwidth: "FP32".into(),
        epitome: "-".into(),
        accuracy: acc.baseline(),
        xbs: base_xbs,
        cr_xbs: 1.0,
        latency_ms: base_costs.latency_ms(),
        energy_mj: base_costs.energy_mj(),
        utilization_pct: base_costs.utilization_pct(),
    });

    // Uniform EPIM at the precision ladder.
    let epim = uniform_epim(backbone.clone());
    let cr_params = epim.param_compression();
    let mp_alloc = w3mp_allocation(&epim);
    let ladder: &[(&str, Precision, WeightScheme)] = &[
        ("FP32", Precision::fp32(), WeightScheme::Fp32),
        (
            "W9A9",
            Precision::new(9, 9),
            WeightScheme::Fixed { bits: 9 },
        ),
        (
            "W7A9",
            Precision::new(7, 9),
            WeightScheme::Fixed { bits: 7 },
        ),
        (
            "W5A9",
            Precision::new(5, 9),
            WeightScheme::Fixed { bits: 5 },
        ),
        (
            "W3mpA9",
            Precision::new(4, 9),
            WeightScheme::Mixed {
                avg_bits: mp_alloc.avg_bits,
            },
        ),
        (
            "W3A9",
            Precision::new(3, 9),
            WeightScheme::Fixed { bits: 3 },
        ),
    ];
    for (label, prec, scheme) in ladder {
        let costs = if *label == "W3mpA9" {
            // The mixed-precision row simulates the genuine per-layer 3/5
            // bit assignment (HAWQ-style allocation via the sensitivity
            // proxy), not a uniform 4-bit stand-in.
            let precs: Vec<Precision> = mp_alloc
                .bits
                .iter()
                .map(|&b| Precision::new(b, 9))
                .collect();
            epim.simulate_per_layer(&model, &precs)
        } else {
            epim.simulate(&model, *prec)
        };
        rows.push(Table1Row {
            model: format!("EPIM-{short}"),
            bitwidth: (*label).into(),
            epitome: "1024x256".into(),
            accuracy: acc.epim_accuracy(cr_params, *scheme, QuantMethod::PerCrossbarOverlap),
            xbs: costs.crossbars(),
            cr_xbs: base_xbs as f64 / costs.crossbars() as f64,
            latency_ms: costs.latency_ms(),
            energy_mj: costs.energy_mj(),
            utilization_pct: costs.utilization_pct(),
        });

        // Insert the layer-wise opt rows right after the W9A9 row
        // (mirroring the paper's row order, ResNet-50 only).
        if *label == "W9A9" && short == "ResNet50" {
            // Budget: the uniform design's crossbars on the searched
            // layers, so the opt rows offer at least the same compression
            // (paper: 1080/1048 XBs vs the uniform 1424).
            let budget = super::epitome_layer_crossbars(&epim, *prec);
            for (objective, tag) in [
                (Objective::Latency, "Latency-Opt"),
                (Objective::Energy, "Energy-Opt"),
            ] {
                let net = super::searched_network(
                    &backbone,
                    objective,
                    *prec,
                    true,
                    budget,
                    Some(&epim),
                    fast,
                );
                let c = net.simulate(&model, *prec);
                rows.push(Table1Row {
                    model: format!("EPIM-{short}-{tag}"),
                    bitwidth: (*label).into(),
                    epitome: "layer-wise".into(),
                    accuracy: acc.epim_accuracy(
                        net.param_compression(),
                        *scheme,
                        QuantMethod::PerCrossbarOverlap,
                    ),
                    xbs: c.crossbars(),
                    cr_xbs: base_xbs as f64 / c.crossbars() as f64,
                    latency_ms: c.latency_ms(),
                    energy_mj: c.energy_mj(),
                    utilization_pct: c.utilization_pct(),
                });
            }
        }
    }

    // PIM-Prune reference row (the paper reports accuracy and CR only).
    rows.insert(
        2,
        Table1Row {
            model: format!("PIM-Prune-{short}"),
            bitwidth: "FP32".into(),
            epitome: "-".into(),
            accuracy: acc.pim_prune_accuracy(0.50),
            xbs: 0,
            cr_xbs: f64::NAN,
            latency_ms: f64::NAN,
            energy_mj: f64::NAN,
            utilization_pct: f64::NAN,
        },
    );
    rows
}

/// The full Table 1 (both backbones).
pub fn table1(fast: bool) -> Vec<Table1Row> {
    let mut rows = rows_for(resnet50(), fast);
    rows.extend(rows_for(resnet101(), fast));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find<'a>(rows: &'a [Table1Row], model: &str, bits: &str) -> &'a Table1Row {
        rows.iter()
            .find(|r| r.model == model && r.bitwidth == bits)
            .unwrap_or_else(|| panic!("row {model}/{bits} missing"))
    }

    #[test]
    fn resnet50_rows_match_paper_shape() {
        let rows = rows_for(resnet50(), true);
        let base = find(&rows, "ResNet50", "FP32");
        let fp = find(&rows, "EPIM-ResNet50", "FP32");
        let w9 = find(&rows, "EPIM-ResNet50", "W9A9");
        let w3 = find(&rows, "EPIM-ResNet50", "W3A9");

        // Accuracy anchors (surrogate is calibrated on these).
        assert!((base.accuracy - 76.37).abs() < 0.01);
        assert!((fp.accuracy - 74.00).abs() < 0.30);
        assert!((w3.accuracy - 71.59).abs() < 0.30);

        // Crossbar compression ordering and regime.
        assert!(fp.cr_xbs > 1.5 && fp.cr_xbs < 3.5, "FP32 CR {}", fp.cr_xbs);
        assert!(w9.cr_xbs > fp.cr_xbs);
        assert!(w3.cr_xbs > 15.0, "W3 CR {}", w3.cr_xbs);

        // Energy collapses with quantization (paper: 23x).
        assert!(base.energy_mj / w3.energy_mj > 5.0);

        // Epitome slows FP32 inference down (paper: 139.8 -> 167.7 ms).
        assert!(fp.latency_ms > base.latency_ms);

        // Utilization stays high for aligned epitomes (paper: >93%).
        assert!(w9.utilization_pct > 85.0);
    }

    #[test]
    fn opt_rows_beat_uniform_w9() {
        let rows = rows_for(resnet50(), true);
        let w9 = find(&rows, "EPIM-ResNet50", "W9A9");
        let lat = find(&rows, "EPIM-ResNet50-Latency-Opt", "W9A9");
        let en = find(&rows, "EPIM-ResNet50-Energy-Opt", "W9A9");
        // Paper: 50.9 -> 49.2 ms and 17.0 -> 15.6 mJ. Direction must hold.
        assert!(
            lat.latency_ms <= w9.latency_ms * 1.001,
            "latency-opt {} vs uniform {}",
            lat.latency_ms,
            w9.latency_ms
        );
        assert!(
            en.energy_mj <= w9.energy_mj * 1.001,
            "energy-opt {} vs uniform {}",
            en.energy_mj,
            w9.energy_mj
        );
        // Both opt rows offer similar compression (the budget is widened
        // only by the candidate-ladder representability gap).
        assert!(
            lat.xbs as f64 <= w9.xbs as f64 * 1.10,
            "{} vs {}",
            lat.xbs,
            w9.xbs
        );
        assert!(
            en.xbs as f64 <= w9.xbs as f64 * 1.10,
            "{} vs {}",
            en.xbs,
            w9.xbs
        );
    }

    #[test]
    fn resnet101_rows_present_and_consistent() {
        let rows = rows_for(resnet101(), true);
        let base = find(&rows, "ResNet101", "FP32");
        let w3 = find(&rows, "EPIM-ResNet101", "W3A9");
        assert!((base.accuracy - 78.77).abs() < 0.01);
        assert!((w3.accuracy - 74.98).abs() < 0.30);
        assert!(w3.cr_xbs > 15.0);
        // ResNet-101 larger than ResNet-50 (paper: 22912 vs 13120 XBs).
        let rows50 = rows_for(resnet50(), true);
        let base50 = find(&rows50, "ResNet50", "FP32");
        assert!(base.xbs > base50.xbs);
    }

    #[test]
    fn precision_ladder_monotone() {
        let rows = rows_for(resnet50(), true);
        let ladder = ["W9A9", "W7A9", "W5A9", "W3A9"];
        let mut prev_xbs = usize::MAX;
        let mut prev_acc = f64::INFINITY;
        for bits in ladder {
            let r = find(&rows, "EPIM-ResNet50", bits);
            assert!(r.xbs <= prev_xbs, "{bits}");
            assert!(r.accuracy <= prev_acc, "{bits}");
            prev_xbs = r.xbs;
            prev_acc = r.accuracy;
        }
    }
}
