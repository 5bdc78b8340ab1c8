//! The seed's per-pixel execution of the epitome data path (paper §4.3,
//! Figure 2b), kept as the oracle for `DataPath`'s one executor.
//!
//! It shares no code with `epim_pim::datapath`: it builds the three index
//! tables from the sampling plan, programs its own crossbar matrix, and
//! then walks the tables pixel by pixel — gather the receptive field, fetch
//! each round's IFAT runs, DAC-quantize them, place them on word lines
//! through the IFRT, sum every bit line in ascending word-line order,
//! ADC-quantize, and route the partials through the OFAT into the joint
//! module. The executor must agree with it bit for bit, stats exactly.

use epim_core::{wrapping_factor, Epitome, EpitomeSpec};
use epim_pim::datapath::{AnalogModel, DataPathStats};
use epim_tensor::ops::{conv2d_out_dims, Conv2dCfg};
use epim_tensor::{rng, Tensor};
use std::ops::Range;

/// The IFAT, IFRT and OFAT of one spec: one entry per sampled patch, i.e.
/// per activation round.
pub struct Tables {
    /// Per round, the runs of the flattened `(c_in, kh, kw)` receptive
    /// field that must be fetched from the buffer.
    pub ifat: Vec<Vec<Range<usize>>>,
    /// Per round, for every crossbar word line the gathered-input position
    /// that drives it, or `None` (word line grounded).
    pub ifrt: Vec<Vec<Option<usize>>>,
    /// Per round, the destination range among the output channels and the
    /// first source bit line.
    pub ofat: Vec<(Range<usize>, usize)>,
    /// Word lines per crossbar (IFRT sequence length).
    pub word_lines: usize,
}

/// Builds the three tables for `spec` from its sampling plan.
pub fn tables(spec: &EpitomeSpec) -> Tables {
    let conv = spec.conv();
    let eshape = spec.shape();
    let word_lines = eshape.cin * eshape.h * eshape.w;
    let mut t = Tables {
        ifat: Vec::new(),
        ifrt: Vec::new(),
        ofat: Vec::new(),
        word_lines,
    };
    for patch in spec.plan().patches() {
        // A run over kx of length size[3] is contiguous in the receptive
        // field.
        let mut runs = Vec::new();
        for ci in 0..patch.size[1] {
            for ky in 0..patch.size[2] {
                let start =
                    ((patch.dst[1] + ci) * conv.kh + (patch.dst[2] + ky)) * conv.kw + patch.dst[3];
                runs.push(start..start + patch.size[3]);
            }
        }
        t.ifat.push(runs);

        // Epitome element (ci_e, y_e, x_e) sits on word line
        // (ci_e * h + y_e) * w + x_e.
        let mut seq = vec![None; word_lines];
        let mut gathered = 0;
        for ci in 0..patch.size[1] {
            for ky in 0..patch.size[2] {
                for kx in 0..patch.size[3] {
                    let wl = ((patch.src[1] + ci) * eshape.h + (patch.src[2] + ky)) * eshape.w
                        + (patch.src[3] + kx);
                    seq[wl] = Some(gathered);
                    gathered += 1;
                }
            }
        }
        t.ifrt.push(seq);

        t.ofat
            .push((patch.dst[0]..patch.dst[0] + patch.size[0], patch.src[0]));
    }
    t
}

/// The epitome programmed into a `(c_in·h·w) × c_out` crossbar matrix,
/// row-major, with multiplicative programming noise drawn in the epitome's
/// `(co, ci, y, x)` order, and the ADC full scale: the largest column L1
/// norm, summed in row order.
fn program(epi: &Epitome, analog: AnalogModel) -> (Vec<f32>, f32) {
    let eshape = epi.spec().shape();
    let rows = eshape.cin * eshape.h * eshape.w;
    let mut matrix = vec![0.0f32; rows * eshape.cout];
    let mut noise = rng::seeded(analog.noise_seed);
    for (i, &raw) in epi.tensor().data().iter().enumerate() {
        let (co, row) = (i / rows, i % rows);
        let mut v = raw;
        if analog.weight_noise_std > 0.0 {
            v *= 1.0 + rng::normal(&mut noise, 0.0, analog.weight_noise_std);
        }
        matrix[row * eshape.cout + co] = v;
    }
    let mut full_scale = 0.0f32;
    for co in 0..eshape.cout {
        let mut l1 = 0.0f32;
        for row in 0..rows {
            l1 += matrix[row * eshape.cout + co].abs();
        }
        full_scale = full_scale.max(l1);
    }
    (matrix, full_scale.max(f32::MIN_POSITIVE))
}

/// `(step, limit)` of a converter with `bits` of resolution over
/// `[-full_scale, full_scale]`.
fn converter(bits: Option<u8>, full_scale: f32) -> Option<(f32, f32)> {
    bits.map(|bits| {
        let levels = (1u32 << bits.min(24)) as f32;
        (2.0 * full_scale / levels, levels / 2.0)
    })
}

fn quantize(v: f32, (step, limit): (f32, f32)) -> f32 {
    (v / step).round().clamp(-limit, limit) * step
}

/// Runs `epi` as a convolution under `cfg` on `input` `(N, C_in, H, W)`,
/// one pixel and one table entry at a time, returning the output
/// `(N, C_out, OH, OW)` and the counters the walk accumulates.
///
/// # Panics
///
/// If the input does not fit the layer.
pub fn execute_reference(
    epi: &Epitome,
    cfg: Conv2dCfg,
    wrapping_enabled: bool,
    analog: AnalogModel,
    input: &Tensor,
) -> (Tensor, DataPathStats) {
    let spec = epi.spec();
    let conv = spec.conv();
    let cout_e = spec.shape().cout;
    let t = tables(spec);
    let (md, adc_full_scale) = program(epi, analog);
    let dac = converter(analog.dac_bits, analog.input_full_scale);
    let adc = converter(analog.adc_bits, adc_full_scale);
    let wrapping = wrapping_factor(spec.plan());
    let wrap_on = wrapping_enabled && wrapping.is_effective();

    let (n, c_in, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    assert_eq!(c_in, conv.cin, "input channels");
    let (oh, ow) = conv2d_out_dims(h, w, conv.kh, conv.kw, cfg).expect("valid geometry");
    let mut out = Tensor::zeros(&[n, conv.cout, oh, ow]);
    let mut stats = DataPathStats::default();
    let mut receptive = vec![0.0f32; conv.cin * conv.kh * conv.kw];
    let mut out_vec = vec![0.0f32; conv.cout];

    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                for ci in 0..conv.cin {
                    for ky in 0..conv.kh {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        for kx in 0..conv.kw {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            let inside = iy >= 0 && ix >= 0 && iy < h as isize && ix < w as isize;
                            receptive[(ci * conv.kh + ky) * conv.kw + kx] = if inside {
                                input.at(&[ni, ci, iy as usize, ix as usize])
                            } else {
                                0.0
                            };
                        }
                    }
                }

                out_vec.iter_mut().for_each(|v| *v = 0.0);
                for ((runs, seq), (range, src_col)) in t.ifat.iter().zip(&t.ifrt).zip(&t.ofat) {
                    if wrap_on && range.start != 0 {
                        continue;
                    }
                    stats.rounds += 1;
                    let mut gathered = Vec::new();
                    for run in runs {
                        gathered.extend_from_slice(&receptive[run.clone()]);
                        stats.table_lookups += 1;
                    }
                    stats.buffer_reads += gathered.len() as u64;
                    if let Some(q) = dac {
                        gathered.iter_mut().for_each(|v| *v = quantize(*v, q));
                    }
                    stats.table_lookups += t.word_lines as u64;
                    let active: Vec<(usize, f32)> = seq
                        .iter()
                        .enumerate()
                        .filter_map(|(wl, &pos)| pos.map(|p| (wl, gathered[p])))
                        .collect();
                    stats.word_line_activations += active.len() as u64;
                    stats.bit_line_activations += range.len() as u64;
                    stats.table_lookups += 1;
                    for (j, co) in range.clone().enumerate() {
                        let mut acc = 0.0f32;
                        for &(wl, v) in &active {
                            acc += v * md[wl * cout_e + src_col + j];
                        }
                        if let Some(q) = adc {
                            acc = quantize(acc, q);
                        }
                        out_vec[co] += acc;
                        stats.joint_adds += 1;
                        stats.buffer_writes += 1;
                    }
                }
                if wrap_on {
                    for co in wrapping.block..conv.cout {
                        out_vec[co] = out_vec[co % wrapping.block];
                        stats.wrapped_elements += 1;
                    }
                }
                for (co, &v) in out_vec.iter().enumerate() {
                    out.set(&[ni, co, oy, ox], v)
                        .expect("output index in range");
                }
            }
        }
    }
    (out, stats)
}
