//! The analytic (behavior-level) cost model.
//!
//! Behavior counting follows MNSIM's philosophy: for every layer we count
//! how many times each basic hardware behavior fires and weight the counts
//! by the [`crate::HardwareLut`] entries.
//!
//! **Convolution layer.** The mapped matrix occupies `row_tiles × col_tiles`
//! crossbars that all fire **in parallel**, once per output pixel, with
//! bit-serial activation streaming (`act_bits` sub-rounds):
//!
//! ```text
//! latency  = pixels · (act_bits · T_round + (R + C) · t_buffer)
//! energy   = pixels · (act_bits · E_round + R·e_read + C·e_write)
//! ```
//!
//! **Epitome layer.** The (much smaller) epitome matrix is mapped once, but
//! every output pixel requires `plan.activation_rounds()` **serial**
//! activation rounds — one per sampled patch, each engaging only the word
//! and bit lines of that patch (paper §4.1). Each round writes its partial
//! outputs through the joint module, which is why the output buffer is
//! written `rounds`-fold more than a convolution (paper §5.1). Output
//! channel wrapping (§5.3) executes only the first output-channel block and
//! divides both rounds and buffer writes by the wrapping factor `r`.

use crate::{AcceleratorConfig, HardwareLut, Mapping, PimError, Precision};
use epim_core::{wrapping_factor, ConvShape, EpitomeSpec, MappedMatrix};
use serde::{Deserialize, Serialize};

/// Simulated costs of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerCosts {
    /// End-to-end layer latency, nanoseconds.
    pub latency_ns: f64,
    /// Layer energy, picojoules.
    pub energy_pj: f64,
    /// Crossbars allocated to the layer's weights.
    pub crossbars: usize,
    /// Memristor utilization of the allocated crossbars, `(0, 1]`.
    pub utilization: f64,
    /// Weight parameters stored.
    pub params: usize,
    /// Crossbar activation rounds per output pixel (1 for convolution).
    pub rounds_per_pixel: usize,
    /// Total output-buffer element writes.
    pub buffer_writes: u64,
    /// Total input-buffer element reads.
    pub buffer_reads: u64,
    /// Output pixels simulated.
    pub out_pixels: usize,
}

impl LayerCosts {
    /// Energy-delay product, pJ·ns.
    pub fn edp(&self) -> f64 {
        self.energy_pj * self.latency_ns
    }

    /// Latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ns * 1e-6
    }

    /// Energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy_pj * 1e-9
    }

    /// Element-wise sum of two layer costs (utilization becomes the
    /// crossbar-weighted average).
    pub fn combine(&self, other: &LayerCosts) -> LayerCosts {
        let xb = self.crossbars + other.crossbars;
        let util = if xb == 0 {
            0.0
        } else {
            (self.utilization * self.crossbars as f64 + other.utilization * other.crossbars as f64)
                / xb as f64
        };
        LayerCosts {
            latency_ns: self.latency_ns + other.latency_ns,
            energy_pj: self.energy_pj + other.energy_pj,
            crossbars: xb,
            utilization: util,
            params: self.params + other.params,
            rounds_per_pixel: self.rounds_per_pixel.max(other.rounds_per_pixel),
            buffer_writes: self.buffer_writes + other.buffer_writes,
            buffer_reads: self.buffer_reads + other.buffer_reads,
            out_pixels: self.out_pixels + other.out_pixels,
        }
    }
}

/// The behavior-level cost model: configuration + lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    cfg: AcceleratorConfig,
    lut: HardwareLut,
}

impl CostModel {
    /// Creates a cost model with the calibrated default LUT.
    pub fn new(cfg: AcceleratorConfig) -> Self {
        CostModel {
            cfg,
            lut: HardwareLut::default(),
        }
    }

    /// Creates a cost model with an explicit LUT.
    pub fn with_lut(cfg: AcceleratorConfig, lut: HardwareLut) -> Self {
        CostModel { cfg, lut }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> AcceleratorConfig {
        self.cfg
    }

    /// The lookup table in use.
    pub fn lut(&self) -> &HardwareLut {
        &self.lut
    }

    /// Costs of a plain convolution layer producing `out_pixels` output
    /// positions (OH × OW, batch 1).
    ///
    /// # Panics
    ///
    /// Panics if the configuration or precision is invalid; use
    /// [`CostModel::try_conv_layer`] for a fallible variant.
    pub fn conv_layer(&self, conv: ConvShape, out_pixels: usize, prec: Precision) -> LayerCosts {
        self.try_conv_layer(conv, out_pixels, prec)
            .expect("valid configuration and shapes")
    }

    /// Fallible variant of [`CostModel::conv_layer`].
    ///
    /// # Errors
    ///
    /// Returns [`PimError`] for invalid geometry or precision.
    pub fn try_conv_layer(
        &self,
        conv: ConvShape,
        out_pixels: usize,
        prec: Precision,
    ) -> Result<LayerCosts, PimError> {
        self.cfg.validate()?;
        let mapping = Mapping::new(MappedMatrix::from_conv(conv), self.cfg.crossbar, prec)?;
        let r = conv.matrix_rows() as f64;
        let c = conv.matrix_cols() as f64;
        let ab = prec.act_bits as f64;
        let lut = &self.lut;

        // One parallel round per pixel: the round time is set by a full
        // crossbar tile (rows/cols capped at the tile geometry), plus the
        // serial shift-add merge of the weight bit slices.
        let t_round = lut.t_xbar_round_ns
            + self.cfg.crossbar.rows.min(conv.matrix_rows()) as f64 * lut.t_dac_row_ns
            + self.cfg.crossbar.cols as f64 * lut.t_adc_col_ns
            + mapping.slices as f64 * lut.t_shift_add_slice_ns;
        let latency_per_pixel = ab * t_round + (r + c) * lut.t_buffer_elem_ns;

        let e_round = mapping.used_cells() as f64 * lut.e_cell_pj
            + r * mapping.col_tiles as f64 * lut.e_dac_row_pj
            + (c * mapping.slices as f64)
                * mapping.row_tiles as f64
                * (lut.e_adc_col_pj + lut.e_shift_add_pj);
        let energy_per_pixel = ab * e_round + r * lut.e_buffer_read_pj + c * lut.e_buffer_write_pj;

        Ok(LayerCosts {
            latency_ns: out_pixels as f64 * latency_per_pixel,
            energy_pj: out_pixels as f64 * energy_per_pixel,
            crossbars: mapping.crossbars,
            utilization: mapping.utilization,
            params: conv.params(),
            rounds_per_pixel: 1,
            buffer_writes: (out_pixels as u64) * conv.matrix_cols() as u64,
            buffer_reads: (out_pixels as u64) * conv.matrix_rows() as u64,
            out_pixels,
        })
    }

    /// Costs of an epitome layer producing `out_pixels` output positions.
    ///
    /// Honors the configuration's `channel_wrapping` flag: when on and the
    /// spec's plan wraps with factor `r > 1`, only `rounds / r` activation
    /// rounds execute and output writes shrink accordingly (paper §5.3).
    ///
    /// # Panics
    ///
    /// Panics if the configuration or precision is invalid; use
    /// [`CostModel::try_epitome_layer`] for a fallible variant.
    pub fn epitome_layer(
        &self,
        spec: &EpitomeSpec,
        out_pixels: usize,
        prec: Precision,
    ) -> LayerCosts {
        self.try_epitome_layer(spec, out_pixels, prec)
            .expect("valid configuration and shapes")
    }

    /// Fallible variant of [`CostModel::epitome_layer`].
    ///
    /// # Errors
    ///
    /// Returns [`PimError`] for invalid geometry or precision.
    pub fn try_epitome_layer(
        &self,
        spec: &EpitomeSpec,
        out_pixels: usize,
        prec: Precision,
    ) -> Result<LayerCosts, PimError> {
        self.cfg.validate()?;
        let mapping = Mapping::new(
            MappedMatrix::from_epitome(spec.shape()),
            self.cfg.crossbar,
            prec,
        )?;
        let wrap = wrapping_factor(spec.plan());
        let wrap_on = self.cfg.channel_wrapping && wrap.is_effective();
        let lut = &self.lut;
        let ab = prec.act_bits as f64;
        let slices = mapping.slices as f64;

        let mut latency_per_pixel = 0.0f64;
        let mut energy_per_pixel = 0.0f64;
        let mut reads_per_pixel = 0u64;
        let mut writes_per_pixel = 0u64;
        let mut rounds = 0usize;

        for patch in spec.plan().patches() {
            if wrap_on && patch.dst[0] != 0 {
                // Wrapped rounds are skipped: their output channels are
                // replicated from block 0 (Eq. 9).
                continue;
            }
            rounds += 1;
            let active_rows = (patch.size[1] * patch.size[2] * patch.size[3]) as f64;
            let active_cols_logical = patch.size[0] as f64;
            let active_cols = active_cols_logical * slices;

            let t_round = lut.t_xbar_round_ns
                + active_rows.min(self.cfg.crossbar.rows as f64) * lut.t_dac_row_ns
                + active_cols.min(self.cfg.crossbar.cols as f64) * lut.t_adc_col_ns
                + slices * lut.t_shift_add_slice_ns;
            latency_per_pixel +=
                ab * t_round + (active_rows + active_cols_logical) * lut.t_buffer_elem_ns;

            // A patch spanning several crossbar tiles pays DACs per column
            // tile and ADCs/shift-adds per row tile, exactly like the
            // convolution model.
            let row_tiles_p = (active_rows / self.cfg.crossbar.rows as f64)
                .ceil()
                .max(1.0);
            let col_tiles_p = (active_cols / self.cfg.crossbar.cols as f64)
                .ceil()
                .max(1.0);
            let cells = active_rows * active_cols;
            let e_round = cells * lut.e_cell_pj
                + active_rows * col_tiles_p * lut.e_dac_row_pj
                + active_cols * row_tiles_p * (lut.e_adc_col_pj + lut.e_shift_add_pj);
            // Index tables: one IFAT + one OFAT entry per round, one IFRT
            // entry per active word line (paper §4.3).
            let e_tables = (2.0 + active_rows) * lut.e_index_lookup_pj;
            // Joint module accumulates every partial output element.
            let e_joint = active_cols_logical * lut.e_joint_add_pj;
            energy_per_pixel += ab * e_round
                + active_rows * lut.e_buffer_read_pj
                + active_cols_logical * lut.e_buffer_write_pj
                + e_tables
                + e_joint;

            reads_per_pixel += (patch.size[1] * patch.size[2] * patch.size[3]) as u64;
            writes_per_pixel += patch.size[0] as u64;
        }

        Ok(LayerCosts {
            latency_ns: out_pixels as f64 * latency_per_pixel,
            energy_pj: out_pixels as f64 * energy_per_pixel,
            crossbars: mapping.crossbars,
            utilization: mapping.utilization,
            params: spec.shape().params(),
            rounds_per_pixel: rounds,
            buffer_writes: out_pixels as u64 * writes_per_pixel,
            buffer_reads: out_pixels as u64 * reads_per_pixel,
            out_pixels,
        })
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new(AcceleratorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epim_core::EpitomeDesigner;

    fn model(wrapping: bool) -> CostModel {
        CostModel::new(AcceleratorConfig::default().with_channel_wrapping(wrapping))
    }

    fn paper_spec() -> EpitomeSpec {
        EpitomeDesigner::new(128, 128)
            .design(ConvShape::new(512, 256, 3, 3), 1024, 256)
            .unwrap()
    }

    #[test]
    fn conv_costs_scale_with_pixels() {
        let m = model(false);
        let conv = ConvShape::new(128, 64, 3, 3);
        let a = m.conv_layer(conv, 100, Precision::new(9, 9));
        let b = m.conv_layer(conv, 200, Precision::new(9, 9));
        assert!((b.latency_ns / a.latency_ns - 2.0).abs() < 1e-9);
        assert!((b.energy_pj / a.energy_pj - 2.0).abs() < 1e-9);
        assert_eq!(b.crossbars, a.crossbars);
    }

    #[test]
    fn conv_latency_scales_with_act_bits() {
        let m = model(false);
        let conv = ConvShape::new(128, 64, 3, 3);
        let w9 = m.conv_layer(conv, 100, Precision::new(9, 9));
        let fp = m.conv_layer(conv, 100, Precision::fp32());
        assert!(fp.latency_ns > w9.latency_ns * 2.0);
        assert!(fp.crossbars > w9.crossbars);
    }

    #[test]
    fn epitome_uses_fewer_crossbars_but_more_rounds() {
        // The paper's §5.1 observation: compression cuts crossbars but
        // multiplies activation rounds, raising latency and energy.
        let m = model(false);
        let prec = Precision::new(9, 9);
        let conv = ConvShape::new(512, 256, 3, 3);
        let spec = paper_spec();
        let pixels = 14 * 14;
        let c = m.conv_layer(conv, pixels, prec);
        let e = m.epitome_layer(&spec, pixels, prec);
        assert!(
            e.crossbars < c.crossbars,
            "crossbars {} vs {}",
            e.crossbars,
            c.crossbars
        );
        assert!(e.rounds_per_pixel > 1);
        assert!(
            e.latency_ns > c.latency_ns,
            "epitome should be slower per §5.1"
        );
        assert!(
            e.buffer_writes > c.buffer_writes,
            "more partial writes per §5.1"
        );
    }

    #[test]
    fn channel_wrapping_reduces_rounds_and_writes() {
        let prec = Precision::new(9, 9);
        let spec = paper_spec();
        let wrap = epim_core::wrapping_factor(spec.plan());
        assert_eq!(wrap.factor, 2);
        let off = model(false).epitome_layer(&spec, 196, prec);
        let on = model(true).epitome_layer(&spec, 196, prec);
        assert_eq!(on.rounds_per_pixel * wrap.factor, off.rounds_per_pixel);
        assert_eq!(on.buffer_writes * wrap.factor as u64, off.buffer_writes);
        assert!(on.latency_ns < off.latency_ns);
        assert!(on.energy_pj < off.energy_pj);
        assert_eq!(
            on.crossbars, off.crossbars,
            "wrapping changes time, not storage"
        );
    }

    #[test]
    fn wrapping_noop_when_factor_one() {
        // Epitome with full cout: wrapping can't help.
        let spec = EpitomeDesigner::new(128, 128)
            .design(ConvShape::new(256, 256, 3, 3), 1024, 256)
            .unwrap();
        assert_eq!(epim_core::wrapping_factor(spec.plan()).factor, 1);
        let prec = Precision::new(9, 9);
        let off = model(false).epitome_layer(&spec, 10, prec);
        let on = model(true).epitome_layer(&spec, 10, prec);
        assert_eq!(off, on);
    }

    #[test]
    fn edp_is_product() {
        let c = model(false).conv_layer(ConvShape::new(64, 64, 3, 3), 49, Precision::default());
        assert!((c.edp() - c.latency_ns * c.energy_pj).abs() < 1e-6);
        assert!((c.latency_ms() - c.latency_ns * 1e-6).abs() < 1e-12);
        assert!((c.energy_mj() - c.energy_pj * 1e-9).abs() < 1e-12);
    }

    #[test]
    fn combine_accumulates() {
        let m = model(false);
        let a = m.conv_layer(ConvShape::new(64, 64, 3, 3), 49, Precision::default());
        let b = m.conv_layer(ConvShape::new(128, 64, 1, 1), 49, Precision::default());
        let s = a.combine(&b);
        assert_eq!(s.crossbars, a.crossbars + b.crossbars);
        assert!((s.latency_ns - (a.latency_ns + b.latency_ns)).abs() < 1e-9);
        assert!(s.utilization > 0.0 && s.utilization <= 1.0);
        assert_eq!(s.params, a.params + b.params);
    }

    #[test]
    fn lower_weight_bits_lower_energy() {
        let m = model(false);
        let spec = paper_spec();
        let w9 = m.epitome_layer(&spec, 196, Precision::new(9, 9));
        let w3 = m.epitome_layer(&spec, 196, Precision::new(3, 9));
        assert!(w3.energy_pj < w9.energy_pj);
        assert!(w3.crossbars < w9.crossbars);
    }

    #[test]
    fn latency_monotone_in_rounds() {
        // More compression (smaller epitome) -> more rounds -> more latency.
        let m = model(false);
        let prec = Precision::new(9, 9);
        let conv = ConvShape::new(512, 256, 3, 3);
        let d = EpitomeDesigner::new(128, 128);
        let big = d.design(conv, 2304, 512).unwrap();
        let small = d.design(conv, 1024, 128).unwrap();
        let cb = m.epitome_layer(&big, 196, prec);
        let cs = m.epitome_layer(&small, 196, prec);
        assert!(cs.rounds_per_pixel > cb.rounds_per_pixel);
        assert!(cs.latency_ns > cb.latency_ns);
    }

    #[test]
    fn try_variants_report_errors() {
        let m = model(false);
        let bad_prec = Precision {
            weight_bits: 0,
            act_bits: 9,
        };
        assert!(m
            .try_conv_layer(ConvShape::new(4, 4, 3, 3), 10, bad_prec)
            .is_err());
    }
}
