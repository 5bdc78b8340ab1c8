//! Sampling plans: the deterministic schedule of patches the sampler `τ`
//! extracts from an epitome to tile a convolution weight (paper Eq. 1 and
//! Figure 1).
//!
//! A plan is the cartesian product of four per-dimension plans (one per
//! weight axis). Along each axis the *destination* (convolution weight) is
//! covered by consecutive, non-overlapping segments, while the *source*
//! windows inside the epitome may overlap — overlap is what makes the
//! epitome compact.

use crate::{ConvShape, EpitomeError, EpitomeShape};
use serde::{Deserialize, Serialize};

/// One segment of a per-dimension plan: `len` consecutive indices starting
/// at `dst_start` in the convolution weight are copied from `len`
/// consecutive indices starting at `src_start` in the epitome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DimSegment {
    /// Start index in the destination (conv weight) axis.
    pub dst_start: usize,
    /// Start index in the source (epitome) axis.
    pub src_start: usize,
    /// Segment length.
    pub len: usize,
}

/// The per-dimension schedule: a list of segments whose destinations
/// exactly partition `0..dst_extent`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DimPlan {
    /// Destination extent (the conv weight axis length).
    pub dst_extent: usize,
    /// Source extent (the epitome axis length).
    pub src_extent: usize,
    /// The segments, in destination order.
    pub segments: Vec<DimSegment>,
}

impl DimPlan {
    /// Builds the canonical plan covering a destination axis of length
    /// `dst` from a source axis of length `src`.
    ///
    /// Strategy (matching the paper's overlapping-patch sampler):
    /// the window length is `L = min(src, dst)`; the destination is tiled
    /// in chunks of `L`; each segment's source offset is spread evenly over
    /// that segment's admissible positions `src - len + 1`, so shorter tail
    /// windows land at nonzero offsets and **overlap** the earlier full
    /// windows. Overlap makes some epitome elements repeat more often than
    /// others in the reconstruction — the structure the paper's
    /// overlap-weighted quantization exploits (Fig. 2c).
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::InvalidGeometry`] when either extent is 0.
    pub fn build(dst: usize, src: usize) -> Result<Self, EpitomeError> {
        if dst == 0 || src == 0 {
            return Err(EpitomeError::geometry(format!(
                "dimension extents must be nonzero (dst {dst}, src {src})"
            )));
        }
        let window = src.min(dst);
        let tiles = dst.div_ceil(window);
        let mut segments = Vec::with_capacity(tiles);
        for i in 0..tiles {
            let dst_start = i * window;
            let len = window.min(dst - dst_start);
            // Spread source offsets evenly over this segment's admissible
            // positions so the whole epitome is exercised and windows
            // overlap.
            let positions = src - len + 1;
            let src_start = if tiles <= 1 || positions <= 1 {
                0
            } else {
                (i * (positions - 1)) / (tiles - 1)
            };
            debug_assert!(src_start + len <= src);
            segments.push(DimSegment {
                dst_start,
                src_start,
                len,
            });
        }
        Ok(DimPlan {
            dst_extent: dst,
            src_extent: src,
            segments,
        })
    }

    /// Builds a plan where every tile reads the *same* source window
    /// starting at 0 (pure replication). This is the schedule that enables
    /// output channel wrapping (paper §5.3): identical source windows on
    /// the output-channel axis make the reconstructed weight translation
    /// invariant across channel blocks.
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::InvalidGeometry`] when either extent is 0.
    pub fn build_replicated(dst: usize, src: usize) -> Result<Self, EpitomeError> {
        if dst == 0 || src == 0 {
            return Err(EpitomeError::geometry(format!(
                "dimension extents must be nonzero (dst {dst}, src {src})"
            )));
        }
        let window = src.min(dst);
        let tiles = dst.div_ceil(window);
        let segments = (0..tiles)
            .map(|i| {
                let dst_start = i * window;
                DimSegment {
                    dst_start,
                    src_start: 0,
                    len: window.min(dst - dst_start),
                }
            })
            .collect();
        Ok(DimPlan {
            dst_extent: dst,
            src_extent: src,
            segments,
        })
    }

    /// How many segments read each source (epitome) index: the per-axis
    /// factor of [`crate::Epitome::repetition_map`].
    pub fn source_cover(&self) -> Vec<f32> {
        let mut cover = vec![0.0f32; self.src_extent];
        for seg in &self.segments {
            for n in &mut cover[seg.src_start..seg.src_start + seg.len] {
                *n += 1.0;
            }
        }
        cover
    }

    /// Number of segments (tiles) along this axis.
    pub fn tiles(&self) -> usize {
        self.segments.len()
    }

    /// Whether every segment reads the identical full-window source
    /// (precondition for channel wrapping on this axis).
    pub fn is_replicated(&self) -> bool {
        let window = self.src_extent.min(self.dst_extent);
        self.segments.iter().all(|s| {
            s.src_start == 0 && (s.len == window || s.dst_start + s.len == self.dst_extent)
        }) && self
            .segments
            .first()
            .map(|s| s.len == window)
            .unwrap_or(true)
    }

    /// Verifies the partition invariant: destination segments are
    /// consecutive, non-overlapping and cover `0..dst_extent`; source
    /// windows stay in bounds.
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::PlanMismatch`] on any violation.
    pub fn verify(&self) -> Result<(), EpitomeError> {
        let mut cursor = 0usize;
        for (i, s) in self.segments.iter().enumerate() {
            if s.dst_start != cursor {
                return Err(EpitomeError::plan(format!(
                    "segment {i} starts at {} but cursor is {cursor}",
                    s.dst_start
                )));
            }
            if s.len == 0 {
                return Err(EpitomeError::plan(format!("segment {i} has zero length")));
            }
            if s.src_start + s.len > self.src_extent {
                return Err(EpitomeError::plan(format!(
                    "segment {i} source window [{}, {}) exceeds extent {}",
                    s.src_start,
                    s.src_start + s.len,
                    self.src_extent
                )));
            }
            cursor += s.len;
        }
        if cursor != self.dst_extent {
            return Err(EpitomeError::plan(format!(
                "segments cover {cursor} of {} destination indices",
                self.dst_extent
            )));
        }
        Ok(())
    }
}

/// One 4-D patch: the cartesian product of one segment per axis.
///
/// Axis order matches tensor layout: `[cout, cin, h, w]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Patch {
    /// Per-axis destination start `[cout, cin, kh, kw]`.
    pub dst: [usize; 4],
    /// Per-axis source start in the epitome `[cout_e, cin_e, h, w]`.
    pub src: [usize; 4],
    /// Per-axis lengths.
    pub size: [usize; 4],
}

impl Patch {
    /// Number of weight elements this patch covers.
    pub fn volume(&self) -> usize {
        self.size.iter().product()
    }
}

/// The full sampling plan for reconstructing one convolution weight from
/// one epitome.
///
/// # Example
///
/// ```
/// use epim_core::{ConvShape, EpitomeShape, SamplingPlan};
///
/// # fn main() -> Result<(), epim_core::EpitomeError> {
/// let conv = ConvShape::new(512, 256, 3, 3);
/// let epi = EpitomeShape::new(256, 256, 2, 2);
/// let plan = SamplingPlan::build(conv, epi)?;
/// // 2 output-channel tiles x 1 input tile x 2 x 2 spatial tiles.
/// assert_eq!(plan.patches().len(), 8);
/// plan.verify()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingPlan {
    conv: ConvShape,
    epitome: EpitomeShape,
    /// Per-axis plans in `[cout, cin, h, w]` order.
    dim_plans: [DimPlan; 4],
    patches: Vec<Patch>,
}

impl SamplingPlan {
    /// Builds the canonical plan: overlapping windows on the input-channel
    /// and spatial axes, replicated windows on the output-channel axis
    /// (which is what the paper's channel wrapping exploits).
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::InvalidGeometry`] for zero extents.
    pub fn build(conv: ConvShape, epitome: EpitomeShape) -> Result<Self, EpitomeError> {
        conv.validate()?;
        epitome.validate()?;
        let dim_plans = [
            DimPlan::build_replicated(conv.cout, epitome.cout)?,
            DimPlan::build(conv.cin, epitome.cin)?,
            DimPlan::build(conv.kh, epitome.h)?,
            DimPlan::build(conv.kw, epitome.w)?,
        ];
        Ok(Self::from_dim_plans(conv, epitome, dim_plans))
    }

    /// Builds a plan with *overlapping* (non-replicated) windows on every
    /// axis, including output channels. Such plans use the epitome's
    /// output-channel axis more fully but forfeit channel wrapping.
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::InvalidGeometry`] for zero extents.
    pub fn build_overlapping(conv: ConvShape, epitome: EpitomeShape) -> Result<Self, EpitomeError> {
        conv.validate()?;
        epitome.validate()?;
        let dim_plans = [
            DimPlan::build(conv.cout, epitome.cout)?,
            DimPlan::build(conv.cin, epitome.cin)?,
            DimPlan::build(conv.kh, epitome.h)?,
            DimPlan::build(conv.kw, epitome.w)?,
        ];
        Ok(Self::from_dim_plans(conv, epitome, dim_plans))
    }

    /// The only constructor: every plan's patch list is the cartesian
    /// product of its four per-axis plans, which
    /// [`crate::Epitome::repetition_map`] relies on.
    fn from_dim_plans(conv: ConvShape, epitome: EpitomeShape, dim_plans: [DimPlan; 4]) -> Self {
        let mut patches = Vec::with_capacity(dim_plans.iter().map(DimPlan::tiles).product());
        for s0 in &dim_plans[0].segments {
            for s1 in &dim_plans[1].segments {
                for s2 in &dim_plans[2].segments {
                    for s3 in &dim_plans[3].segments {
                        patches.push(Patch {
                            dst: [s0.dst_start, s1.dst_start, s2.dst_start, s3.dst_start],
                            src: [s0.src_start, s1.src_start, s2.src_start, s3.src_start],
                            size: [s0.len, s1.len, s2.len, s3.len],
                        });
                    }
                }
            }
        }
        SamplingPlan {
            conv,
            epitome,
            dim_plans,
            patches,
        }
    }

    /// The convolution shape this plan reconstructs.
    pub fn conv(&self) -> ConvShape {
        self.conv
    }

    /// The epitome shape this plan samples from.
    pub fn epitome(&self) -> EpitomeShape {
        self.epitome
    }

    /// The patch schedule. Order is deterministic: output-channel tiles
    /// outermost, then input-channel, then spatial.
    pub fn patches(&self) -> &[Patch] {
        &self.patches
    }

    /// The per-axis plans in `[cout, cin, h, w]` order.
    pub fn dim_plans(&self) -> &[DimPlan; 4] {
        &self.dim_plans
    }

    /// Number of crossbar activation rounds this plan implies **per output
    /// pixel** (each patch engages the crossbars once — paper §4.1).
    pub fn activation_rounds(&self) -> usize {
        self.patches.len()
    }

    /// Verifies the plan invariants:
    /// every destination element covered by exactly one patch (checked via
    /// the per-axis partition property) and all source windows in bounds.
    ///
    /// # Errors
    ///
    /// Returns [`EpitomeError::PlanMismatch`] on any violation.
    pub fn verify(&self) -> Result<(), EpitomeError> {
        for dp in &self.dim_plans {
            dp.verify()?;
        }
        let covered: usize = self.patches.iter().map(Patch::volume).sum();
        if covered != self.conv.params() {
            return Err(EpitomeError::plan(format!(
                "patches cover {covered} of {} weight elements",
                self.conv.params()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_plan_exact_fit_single_segment() {
        let p = DimPlan::build(4, 4).unwrap();
        assert_eq!(p.tiles(), 1);
        assert_eq!(
            p.segments[0],
            DimSegment {
                dst_start: 0,
                src_start: 0,
                len: 4
            }
        );
        p.verify().unwrap();
    }

    #[test]
    fn dim_plan_source_larger_than_dest() {
        // Epitome axis longer than kernel axis: window = dst, one tile.
        let p = DimPlan::build(3, 5).unwrap();
        assert_eq!(p.tiles(), 1);
        assert_eq!(p.segments[0].len, 3);
        p.verify().unwrap();
    }

    #[test]
    fn dim_plan_compression_overlapping_windows() {
        // dst 10 from src 4: window 4, tiles ceil(10/4) = 3, positions 1 ->
        // all src at 0. With src 6: window 6? no, window=min(6,10)=6,
        // tiles 2, positions 1.
        let p = DimPlan::build(10, 4).unwrap();
        assert_eq!(p.tiles(), 3);
        p.verify().unwrap();
        assert_eq!(p.segments[2].len, 2); // tail segment

        // src 5, dst 12: window 5, tiles 3, positions 1 -> src all 0.
        let p = DimPlan::build(12, 5).unwrap();
        assert_eq!(p.tiles(), 3);
        p.verify().unwrap();
    }

    #[test]
    fn dim_plan_spreads_tail_source_offsets() {
        // dst 9 from src 5: window 5, two tiles (5 + 4). The tail segment
        // has 2 admissible positions and lands at offset 1, overlapping the
        // first window on indices 1..5 — nonuniform repetition.
        let p = DimPlan::build(9, 5).unwrap();
        assert_eq!(p.tiles(), 2);
        assert_eq!(p.segments[0].src_start, 0);
        assert_eq!(p.segments[1].src_start, 1);
        p.verify().unwrap();
    }

    #[test]
    fn replicated_plan_is_detected() {
        let p = DimPlan::build_replicated(8, 4).unwrap();
        assert!(p.is_replicated());
        assert_eq!(p.tiles(), 2);
        p.verify().unwrap();
    }

    #[test]
    fn zero_extents_rejected() {
        assert!(DimPlan::build(0, 4).is_err());
        assert!(DimPlan::build(4, 0).is_err());
        assert!(DimPlan::build_replicated(0, 1).is_err());
    }

    #[test]
    fn verify_catches_corruption() {
        let mut p = DimPlan::build(8, 4).unwrap();
        p.segments[1].dst_start = 5;
        assert!(p.verify().is_err());

        let mut p = DimPlan::build(8, 4).unwrap();
        p.segments[1].src_start = 3; // 3 + 4 > 4
        assert!(p.verify().is_err());

        let mut p = DimPlan::build(8, 4).unwrap();
        p.segments.pop();
        assert!(p.verify().is_err());
    }

    #[test]
    fn paper_uniform_epitome_plan() {
        // 512x256x3x3 conv from 1024x256 epitome (256 cout, 256 cin, 2x2).
        let conv = ConvShape::new(512, 256, 3, 3);
        let epi = EpitomeShape::new(256, 256, 2, 2);
        let plan = SamplingPlan::build(conv, epi).unwrap();
        plan.verify().unwrap();
        // cout: 2 tiles; cin: 1; h: 2 (3 from 2); w: 2.
        // One factor per dimension: cout 2, cin 1, h 2 (3 from 2), w 2.
        assert_eq!(
            plan.activation_rounds(),
            [2, 1, 2, 2].iter().product::<usize>()
        );
    }

    #[test]
    fn patch_volumes_sum_to_conv_params() {
        let conv = ConvShape::new(96, 48, 3, 3);
        let epi = EpitomeShape::new(32, 24, 2, 3);
        let plan = SamplingPlan::build(conv, epi).unwrap();
        plan.verify().unwrap();
        let covered: usize = plan.patches().iter().map(Patch::volume).sum();
        assert_eq!(covered, conv.params());
    }

    #[test]
    fn overlapping_variant_differs_on_cout_axis() {
        let conv = ConvShape::new(8, 4, 3, 3);
        let epi = EpitomeShape::new(4, 4, 3, 3);
        let rep = SamplingPlan::build(conv, epi).unwrap();
        let ovl = SamplingPlan::build_overlapping(conv, epi).unwrap();
        assert!(rep.dim_plans()[0].is_replicated());
        rep.verify().unwrap();
        ovl.verify().unwrap();
        assert_eq!(rep.activation_rounds(), ovl.activation_rounds());
    }

    #[test]
    fn identity_epitome_single_patch() {
        // Epitome same shape as conv: exactly one patch, zero offsets.
        let conv = ConvShape::new(16, 8, 3, 3);
        let epi = EpitomeShape::new(16, 8, 3, 3);
        let plan = SamplingPlan::build(conv, epi).unwrap();
        assert_eq!(plan.activation_rounds(), 1);
        let p = plan.patches()[0];
        assert_eq!(p.dst, [0, 0, 0, 0]);
        assert_eq!(p.src, [0, 0, 0, 0]);
        assert_eq!(p.size, [16, 8, 3, 3]);
    }
}
