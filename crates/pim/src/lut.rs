//! The hardware behavior lookup table.
//!
//! MNSIM-style behavior-level modeling: every basic hardware behavior has a
//! latency and an energy entry; layer costs are sums of behavior counts
//! weighted by these entries. Default values are drawn from the public
//! ISAAC / PRIME / MNSIM literature for a 32 nm-class RRAM design:
//!
//! | behavior | latency | energy | source (order of magnitude) |
//! |---|---|---|---|
//! | crossbar read (one activation round) | 100 ns | — | ISAAC 100 ns read |
//! | cell compute | — | 0.002 pJ/cell | RRAM MAC ≈ 1–10 fJ |
//! | DAC drive | 1 ns/row (pipelined) | 0.004 pJ/row | ISAAC 1-bit DAC |
//! | ADC sample | 1 ns/col (pipelined) | 2 pJ/col | 8-bit SAR ADC ≈ 2 pJ/s. |
//! | shift & add | 20 ns/slice (serial merge) | 0.05 pJ/col | digital adder |
//! | buffer read/write | 0.1 ns/elem | 1 pJ/elem (write 1.5×) | eDRAM/SRAM |
//! | index table lookup | 0 (off critical path, §4.3) | 0.1 pJ/entry | small SRAM |
//! | joint-module add | 0 (pipelined) | 0.05 pJ/elem | digital adder |
//!
//! Absolute numbers matter less than ratios: the EPIM paper's claims are
//! about *shapes* (who wins, by what factor), and the
//! [`HardwareLut::calibrated`] preset scales these values so the FP32
//! ResNet-50 baseline lands near the paper's 139.8 ms / 214.0 mJ row.

use serde::{Deserialize, Serialize};

/// Per-behavior latency (ns) and energy (pJ) entries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareLut {
    /// Latency of one crossbar activation round, ns (read + sense).
    pub t_xbar_round_ns: f64,
    /// Pipelined DAC latency per active row, ns.
    pub t_dac_row_ns: f64,
    /// Pipelined ADC latency per active column, ns.
    pub t_adc_col_ns: f64,
    /// Buffer access latency per element, ns.
    pub t_buffer_elem_ns: f64,
    /// Shift-and-add merge latency per weight bit-slice per round, ns.
    /// Slices are merged serially, which is why lower weight precision
    /// shortens rounds (Table 1's latency trend across W9..W3).
    pub t_shift_add_slice_ns: f64,

    /// Energy per active cell per activation round, pJ.
    pub e_cell_pj: f64,
    /// DAC energy per active row per round, pJ.
    pub e_dac_row_pj: f64,
    /// ADC energy per active column per round, pJ.
    pub e_adc_col_pj: f64,
    /// Shift-and-add energy per active column per round, pJ.
    pub e_shift_add_pj: f64,
    /// Buffer read energy per element, pJ.
    pub e_buffer_read_pj: f64,
    /// Buffer write energy per element, pJ.
    pub e_buffer_write_pj: f64,
    /// Index-table (IFAT/IFRT/OFAT) lookup energy per entry, pJ.
    pub e_index_lookup_pj: f64,
    /// Joint-module add energy per output element, pJ.
    pub e_joint_add_pj: f64,
}

impl HardwareLut {
    /// Literature-derived default entries (see module docs).
    pub fn literature() -> Self {
        HardwareLut {
            t_xbar_round_ns: 100.0,
            t_dac_row_ns: 1.0 / 128.0, // pipelined across a 128-row tile
            t_adc_col_ns: 1.0 / 128.0,
            t_buffer_elem_ns: 0.1,
            t_shift_add_slice_ns: 20.0,
            e_cell_pj: 0.002,
            e_dac_row_pj: 0.004,
            e_adc_col_pj: 2.0,
            e_shift_add_pj: 0.05,
            e_buffer_read_pj: 1.0,
            e_buffer_write_pj: 1.5,
            e_index_lookup_pj: 0.1,
            e_joint_add_pj: 0.05,
        }
    }

    /// Entries scaled so that the FP32 ResNet-50 baseline of the cost
    /// model lands near the paper's Table 1 row (139.8 ms, 214.0 mJ).
    ///
    /// The scale factors were fitted once against the ResNet-50 layer
    /// inventory in `epim-models` and are kept as explicit constants so the
    /// calibration is reproducible and auditable.
    pub fn calibrated() -> Self {
        // Fitted by `cargo run -p epim-bench --bin calibrate`: latency
        // scale 0.1769, energy scale 5.5572 against the literature
        // entries, landing the FP32 ResNet-50 baseline on the paper's
        // Table 1 anchors (139.8 ms, 214.0 mJ).
        Self::literature().scaled(0.1769, 5.5572)
    }

    /// Returns a copy with all latency entries multiplied by
    /// `latency_scale` and all energy entries by `energy_scale`.
    pub fn scaled(&self, latency_scale: f64, energy_scale: f64) -> Self {
        HardwareLut {
            t_xbar_round_ns: self.t_xbar_round_ns * latency_scale,
            t_dac_row_ns: self.t_dac_row_ns * latency_scale,
            t_adc_col_ns: self.t_adc_col_ns * latency_scale,
            t_buffer_elem_ns: self.t_buffer_elem_ns * latency_scale,
            t_shift_add_slice_ns: self.t_shift_add_slice_ns * latency_scale,
            e_cell_pj: self.e_cell_pj * energy_scale,
            e_dac_row_pj: self.e_dac_row_pj * energy_scale,
            e_adc_col_pj: self.e_adc_col_pj * energy_scale,
            e_shift_add_pj: self.e_shift_add_pj * energy_scale,
            e_buffer_read_pj: self.e_buffer_read_pj * energy_scale,
            e_buffer_write_pj: self.e_buffer_write_pj * energy_scale,
            e_index_lookup_pj: self.e_index_lookup_pj * energy_scale,
            e_joint_add_pj: self.e_joint_add_pj * energy_scale,
        }
    }

    /// Whether every entry is finite and non-negative.
    pub fn is_sane(&self) -> bool {
        [
            self.t_xbar_round_ns,
            self.t_dac_row_ns,
            self.t_adc_col_ns,
            self.t_buffer_elem_ns,
            self.t_shift_add_slice_ns,
            self.e_cell_pj,
            self.e_dac_row_pj,
            self.e_adc_col_pj,
            self.e_shift_add_pj,
            self.e_buffer_read_pj,
            self.e_buffer_write_pj,
            self.e_index_lookup_pj,
            self.e_joint_add_pj,
        ]
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl Default for HardwareLut {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        assert!(HardwareLut::literature().is_sane());
        assert!(HardwareLut::calibrated().is_sane());
        assert!(HardwareLut::default().is_sane());
    }

    #[test]
    fn scaling_scales() {
        let base = HardwareLut::literature();
        let s = base.scaled(2.0, 3.0);
        assert!((s.t_xbar_round_ns - 2.0 * base.t_xbar_round_ns).abs() < 1e-12);
        assert!((s.e_adc_col_pj - 3.0 * base.e_adc_col_pj).abs() < 1e-12);
        assert!(s.is_sane());
    }

    #[test]
    fn insane_detected() {
        let mut l = HardwareLut::literature();
        l.e_cell_pj = -1.0;
        assert!(!l.is_sane());
        l.e_cell_pj = f64::NAN;
        assert!(!l.is_sane());
    }
}
