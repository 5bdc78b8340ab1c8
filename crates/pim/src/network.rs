//! Whole-network cost aggregation.

use crate::LayerCosts;
use serde::{Deserialize, Serialize};

/// Aggregated simulation results for a whole network.
///
/// # Example
///
/// ```
/// use epim_pim::{CostModel, NetworkCosts, Precision};
/// use epim_core::ConvShape;
///
/// let m = CostModel::default();
/// let mut net = NetworkCosts::new("demo");
/// net.push("conv1", m.conv_layer(ConvShape::new(64, 3, 7, 7), 112 * 112, Precision::new(9, 9)));
/// net.push("conv2", m.conv_layer(ConvShape::new(64, 64, 3, 3), 56 * 56, Precision::new(9, 9)));
/// assert_eq!(net.layers().len(), 2);
/// assert!(net.total().latency_ns > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkCosts {
    name: String,
    layers: Vec<(String, LayerCosts)>,
}

impl NetworkCosts {
    /// Creates an empty network report.
    pub fn new(name: impl Into<String>) -> Self {
        NetworkCosts {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// The network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a named layer's costs.
    pub fn push(&mut self, layer_name: impl Into<String>, costs: LayerCosts) {
        self.layers.push((layer_name.into(), costs));
    }

    /// The per-layer results.
    pub fn layers(&self) -> &[(String, LayerCosts)] {
        &self.layers
    }

    /// Finds a layer's costs by name.
    pub fn layer(&self, name: &str) -> Option<&LayerCosts> {
        self.layers.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Sums all layers (utilization becomes crossbar-weighted average).
    pub fn total(&self) -> LayerCosts {
        let mut acc = LayerCosts {
            latency_ns: 0.0,
            energy_pj: 0.0,
            crossbars: 0,
            utilization: 0.0,
            params: 0,
            rounds_per_pixel: 0,
            buffer_writes: 0,
            buffer_reads: 0,
            out_pixels: 0,
        };
        for (_, c) in &self.layers {
            acc = acc.combine(c);
        }
        acc
    }

    /// Total latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.total().latency_ms()
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.total().energy_mj()
    }

    /// Total crossbars.
    pub fn crossbars(&self) -> usize {
        self.total().crossbars
    }

    /// Crossbar-weighted average memristor utilization, percent.
    pub fn utilization_pct(&self) -> f64 {
        self.total().utilization * 100.0
    }

    /// Total parameters stored on crossbars.
    pub fn params(&self) -> usize {
        self.total().params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Precision};
    use epim_core::ConvShape;

    fn demo_net() -> NetworkCosts {
        let m = CostModel::default();
        let p = Precision::new(9, 9);
        let mut n = NetworkCosts::new("demo");
        n.push("a", m.conv_layer(ConvShape::new(64, 3, 7, 7), 100, p));
        n.push("b", m.conv_layer(ConvShape::new(128, 64, 3, 3), 49, p));
        n
    }

    #[test]
    fn totals_sum_layers() {
        let n = demo_net();
        let t = n.total();
        let (a, b) = (n.layer("a").unwrap(), n.layer("b").unwrap());
        assert!((t.latency_ns - (a.latency_ns + b.latency_ns)).abs() < 1e-9);
        assert_eq!(t.crossbars, a.crossbars + b.crossbars);
        assert_eq!(t.params, a.params + b.params);
        assert!(t.utilization > 0.0 && t.utilization <= 1.0);
    }

    #[test]
    fn lookup_by_name() {
        let n = demo_net();
        assert!(n.layer("a").is_some());
        assert!(n.layer("zzz").is_none());
        assert_eq!(n.name(), "demo");
        assert_eq!(n.layers().len(), 2);
    }

    #[test]
    fn unit_conversions() {
        let n = demo_net();
        assert!(n.utilization_pct() <= 100.0);
    }

    #[test]
    fn empty_network_zero() {
        let n = NetworkCosts::new("empty");
        let t = n.total();
        assert_eq!(t.crossbars, 0);
        assert_eq!(t.latency_ns, 0.0);
        assert_eq!(n.utilization_pct(), 0.0);
    }
}
