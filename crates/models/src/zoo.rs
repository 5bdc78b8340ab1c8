//! A zoo of ready-made small networks for tests, examples and benches.
//!
//! Every integration test, serving example and bench used to hand-roll
//! its own "tiny ResNet" layer inventory; multi-tenant serving needs
//! *several distinct* small networks, so the construction lives here
//! once. The tiny ResNets run at **16×16 input** (stem stride 2 to 8×8,
//! pooled entry to 4×4) and follow the ResNet naming convention
//! [`crate::lower`] recognizes, so they lower, cost and serve exactly
//! like the full-size inventories. [`epitome_layer`] is the one-layer
//! chain that serves a single epitome layer.

use crate::lower::{LayerWeights, NetworkWeights};
use crate::network::{Network, OperatorChoice};
use crate::resnet::{Backbone, LayerInfo};
use epim_core::{Epitome, EpitomeDesigner, EpitomeError, EpitomeSpec};

fn layer(name: &str, conv: epim_core::ConvShape, res: usize) -> LayerInfo {
    LayerInfo {
        name: name.to_string(),
        conv,
        out_h: res,
        out_w: res,
    }
}

/// A tiny ResNet-style backbone at 16×16 input: a `stem` -channel stem
/// (16×16 → 8×8), the 3×3/2 entry pool (8×8 → 4×4), one
/// projection-shortcut bottleneck block and one identity block of inner
/// width `mid` (output channels `4 * mid`), and a `classes`-way
/// classifier.
///
/// Distinct `(stem, mid, classes)` triples give structurally distinct
/// networks — the building block for multi-tenant fleets. `(8, 4, 10)`
/// reproduces the runtime test backbone, `(8, 8, 10)` the serving
/// example/bench backbone.
pub fn tiny_resnet_backbone(stem: usize, mid: usize, classes: usize) -> Backbone {
    use epim_core::ConvShape;
    let out = 4 * mid;
    Backbone {
        name: format!("tiny-resnet-s{stem}m{mid}c{classes}"),
        layers: vec![
            layer("stem.conv1", ConvShape::new(stem, 3, 3, 3), 8),
            layer("stage1.block0.conv1", ConvShape::new(mid, stem, 1, 1), 4),
            layer("stage1.block0.conv2", ConvShape::new(mid, mid, 3, 3), 4),
            layer("stage1.block0.conv3", ConvShape::new(out, mid, 1, 1), 4),
            layer(
                "stage1.block0.downsample",
                ConvShape::new(out, stem, 1, 1),
                4,
            ),
            layer("stage1.block1.conv1", ConvShape::new(mid, out, 1, 1), 4),
            layer("stage1.block1.conv2", ConvShape::new(mid, mid, 3, 3), 4),
            layer("stage1.block1.conv3", ConvShape::new(out, mid, 1, 1), 4),
            layer("fc", ConvShape::new(classes, out, 1, 1), 1),
        ],
    }
}

/// The [`tiny_resnet_backbone`] with both 3×3 convolutions replaced by
/// **one shared epitome spec** (halved matrix rows, `mid / 2` output
/// channels in the epitome) — the repeat is what makes a plan cache pay
/// off across layers, and two networks of equal `mid` share the *same*
/// spec, which is what lets multi-tenant serving share one compiled plan
/// across tenants.
///
/// # Errors
///
/// Propagates epitome design errors (an inner width too small to
/// compress).
pub fn tiny_epitome_network(
    stem: usize,
    mid: usize,
    classes: usize,
) -> Result<(Network, EpitomeSpec), EpitomeError> {
    let bb = tiny_resnet_backbone(stem, mid, classes);
    let conv = bb.layers[2].conv;
    let spec = EpitomeDesigner::new(16, 16).design(
        conv,
        conv.matrix_rows() / 2,
        (conv.cout / 2).max(1),
    )?;
    let mut net = Network::baseline(bb);
    net.set_choice(2, OperatorChoice::Epitome(spec.clone()))?;
    net.set_choice(6, OperatorChoice::Epitome(spec.clone()))?;
    Ok((net, spec))
}

/// A one-layer chain network serving `epitome` on `hw × hw` inputs, with
/// its weights bound: stride 1 and the padding that keeps the resolution
/// (lowering infers both). It lowers to exactly one `Epitome` stage, so a
/// one-tenant fleet over it serves what the layer's `DataPath` computes.
///
/// # Errors
///
/// Returns [`EpitomeError::PlanMismatch`] if no padding keeps `hw`
/// (an even kernel).
pub fn epitome_layer(
    epitome: &Epitome,
    hw: usize,
) -> Result<(Network, NetworkWeights), EpitomeError> {
    let spec = epitome.spec();
    let bb = Backbone {
        name: format!("epitome-layer-{hw}"),
        layers: vec![layer("layer", spec.conv(), hw)],
    };
    let net = Network::from_choices(bb, vec![OperatorChoice::Epitome(spec.clone())])?;
    net.lower(hw, hw)?;
    let mut weights = NetworkWeights::default();
    weights.set(0, LayerWeights::Epitome(epitome.clone()));
    Ok((net, weights))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_backbones_lower_and_are_distinct() {
        let a = tiny_resnet_backbone(8, 4, 10);
        let b = tiny_resnet_backbone(8, 8, 12);
        assert_ne!(a, b);
        let prog = Network::baseline(a).lower(16, 16).unwrap();
        assert_eq!(prog.input_shape(), &[3, 16, 16]);
        assert_eq!(prog.output_shape(), &[10]);
        let prog = Network::baseline(b).lower(16, 16).unwrap();
        assert_eq!(prog.output_shape(), &[12]);
    }

    #[test]
    fn equal_mid_networks_share_a_spec_distinct_mids_do_not() {
        let (net_a, spec_a) = tiny_epitome_network(8, 4, 10).unwrap();
        let (net_b, spec_b) = tiny_epitome_network(8, 4, 16).unwrap();
        let (_, spec_c) = tiny_epitome_network(8, 8, 10).unwrap();
        assert_eq!(spec_a, spec_b, "equal inner widths must share the spec");
        assert_ne!(spec_a, spec_c);
        assert_ne!(net_a, net_b, "different class counts are distinct networks");
        // Both epitome layers of one network share the one spec.
        let prog = net_a.lower(16, 16).unwrap();
        assert_eq!(prog.epitome_specs(), vec![&spec_a]);
    }

    #[test]
    fn epitome_layer_lowers_to_one_epitome_stage() {
        use crate::lower::StageOp;
        let (_, spec) = tiny_epitome_network(8, 4, 10).unwrap();
        let dims = spec.shape().dims();
        let epi = Epitome::from_tensor(spec.clone(), epim_tensor::Tensor::zeros(&dims)).unwrap();
        let (net, weights) = epitome_layer(&epi, 6).unwrap();
        let prog = net.lower(6, 6).unwrap();
        assert_eq!(prog.stages().len(), 1);
        let StageOp::Epitome { cfg, .. } = &prog.stages()[0].op else {
            panic!("expected an epitome stage, got {:?}", prog.stages()[0].op);
        };
        assert_eq!((cfg.stride, cfg.padding), (1, 1));
        assert_eq!(prog.output_shape(), &[spec.conv().cout, 6, 6]);
        assert!(weights.epitome(0, &spec, "layer").is_ok());
    }
}
