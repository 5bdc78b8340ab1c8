//! Figure 3: per-layer parameter size, latency and energy for three
//! ResNet-50 layers, with and without the epitome.
//!
//! The paper indexes "Layer 9, 41, 67" (its own layer numbering, which
//! counts more entries than our 54 weight layers). We map them to the
//! same depth positions the figure discusses: an early stage-1 layer
//! whose epitome barely saves parameters but costs full extra rounds, a
//! middle stage-3 layer, and a late stage-4 layer where the epitome
//! removes ~1M parameters at modest extra latency/energy — reproducing
//! the figure's contrast ([`fig3`] lists the exact mapping).

use epim::models::resnet::{resnet50, LayerInfo};
use epim::pim::Precision;

use super::{cost_model, designer};

/// One bar group of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Entry {
    /// The paper's layer label ("L9", "L41", "L67").
    pub label: String,
    /// Our inventory layer name.
    pub layer_name: String,
    /// Baseline conv parameters, thousands.
    pub conv_params_k: f64,
    /// Epitome parameters, thousands.
    pub epitome_params_k: f64,
    /// Baseline latency, ms.
    pub conv_latency_ms: f64,
    /// Epitome latency, ms.
    pub epitome_latency_ms: f64,
    /// Baseline energy, 0.1 mJ units (the figure's axis).
    pub conv_energy_01mj: f64,
    /// Epitome energy, 0.1 mJ units.
    pub epitome_energy_01mj: f64,
}

fn entry(label: &str, layer: &LayerInfo) -> Fig3Entry {
    let model = cost_model(false); // the figure predates the optimizations
    let prec = Precision::fp32();
    let conv = layer.conv;
    let spec = designer().design(conv, 1024, 256).expect("legal design");
    let c = model.conv_layer(conv, layer.out_pixels(), prec);
    let e = model.epitome_layer(&spec, layer.out_pixels(), prec);
    Fig3Entry {
        label: label.to_string(),
        layer_name: layer.name.clone(),
        conv_params_k: conv.params() as f64 / 1e3,
        epitome_params_k: spec.shape().params() as f64 / 1e3,
        conv_latency_ms: c.latency_ms(),
        epitome_latency_ms: e.latency_ms(),
        conv_energy_01mj: c.energy_mj() * 10.0,
        epitome_energy_01mj: e.energy_mj() * 10.0,
    }
}

/// Generates the three Figure 3 bar groups.
pub fn fig3() -> Vec<Fig3Entry> {
    let net = resnet50();
    // Depth-mapped selections (paper labels -> our inventory):
    //   L9  -> an early stage-1 3x3 conv (few params, big feature map),
    //   L41 -> a middle stage-3 3x3 conv,
    //   L67 -> a late stage-4 3x3 conv (many params, small feature map).
    let picks = [
        ("L9", "stage1.block2.conv2"),
        ("L41", "stage3.block2.conv2"),
        ("L67", "stage4.block2.conv2"),
    ];
    picks
        .iter()
        .map(|(label, name)| {
            let layer = net.layer(name).expect("layer exists in inventory");
            entry(label, layer)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_groups_produced() {
        let f = fig3();
        assert_eq!(f.len(), 3);
        assert_eq!(f[0].label, "L9");
        assert_eq!(f[2].label, "L67");
    }

    #[test]
    fn late_layer_saves_more_parameters_than_early() {
        // The figure's core contrast: L67's epitome removes far more
        // parameters (paper: 983.6k) than L9's (paper: 20.5k).
        let f = fig3();
        let saved = |e: &Fig3Entry| e.conv_params_k - e.epitome_params_k;
        assert!(
            saved(&f[2]) > 20.0 * saved(&f[0]),
            "L67 saves {:.1}k, L9 saves {:.1}k",
            saved(&f[2]),
            saved(&f[0])
        );
        // L67 saves on the order of 1M parameters.
        assert!(saved(&f[2]) > 800.0, "L67 saves {:.1}k", saved(&f[2]));
    }

    #[test]
    fn epitome_adds_latency_and_energy_everywhere() {
        // Without wrapping/search, the epitome costs extra time and
        // energy on every layer (the §5.1 motivation).
        for e in fig3() {
            assert!(e.epitome_latency_ms >= e.conv_latency_ms, "{e:?}");
            assert!(e.epitome_energy_01mj >= e.conv_energy_01mj, "{e:?}");
            assert!(e.epitome_params_k <= e.conv_params_k, "{e:?}");
        }
    }

    #[test]
    fn early_layer_overhead_is_poor_value() {
        // L9: little parameter saving for a comparable latency hit —
        // the reason layer-wise design exists.
        let f = fig3();
        let value = |e: &Fig3Entry| {
            (e.conv_params_k - e.epitome_params_k)
                / (e.epitome_latency_ms - e.conv_latency_ms).max(1e-9)
        };
        assert!(
            value(&f[2]) > value(&f[0]),
            "late layers must give more params saved per ms of overhead"
        );
    }
}
