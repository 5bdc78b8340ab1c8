//! Graph optimization for [`NetworkProgram`]: fused ReLU epilogues and a
//! liveness-planned activation arena.
//!
//! Lowering (see [`crate::lower`]) emits a deliberately naive program —
//! one stage per backbone op, a separate `Relu` stage right after every
//! convolution and residual add. [`NetworkProgram::optimize`] rewrites
//! that program into the one the serving runtime actually executes: a
//! `Relu` whose producer is a `Conv`, `Epitome`, `Linear` or `Add` stage
//! that *no other stage reads pre-activation* is folded into the
//! producer's epilogue (`relu: true` on the [`StageOp`]). The fused
//! kernels clamp at the final writeback of the exact same accumulated
//! value, so fusion is **bit-identity-safe by construction** — not "close
//! enough", bitwise equal.
//!
//! The pass never drops `Epitome` stages, so the program's
//! [`DataPathStats`](epim_pim::datapath::DataPathStats) rollups are
//! unchanged. Because each `Relu` directly follows its producer, a fused
//! final `Relu`'s producer is the new final stage, whose value is the
//! program output.
//!
//! [`NetworkProgram::plan_arena`] then computes per-stage liveness over
//! the (optimized) program and packs every activation into one static
//! arena with a greedy first-fit assignment. The runtime allocates that arena once per
//! in-flight batch instead of churning a resize-prone buffer pool.

use crate::lower::{NetworkProgram, Stage, StageInput, StageOp};

impl NetworkProgram {
    /// Returns the optimized program, with every fusable ReLU folded into
    /// its producer's epilogue.
    ///
    /// The optimized program's [`forward_reference`] output and datapath
    /// stats are bitwise equal to the unoptimized program's — the
    /// serving runtime enforces exactly that invariant in its tests.
    ///
    /// [`forward_reference`]: NetworkProgram::forward_reference
    pub fn optimize(&self) -> NetworkProgram {
        let consumers = self.consumers();
        let n = self.stages.len();
        // remap[old] = index of the new stage producing old stage's value.
        let mut remap: Vec<usize> = Vec::with_capacity(n);
        // origin[new] = the old stage a kept new stage came from.
        let mut origin: Vec<usize> = Vec::new();
        let mut stages: Vec<Stage> = Vec::new();

        for (i, stage) in self.stages.iter().enumerate() {
            if let (StageOp::Relu, StageInput::Stage(j)) = (&stage.op, stage.input) {
                let nj = remap[j];
                // Sole reader of the pre-activation value: fold into the
                // producer's epilogue.
                if consumers[j] == [i] && origin[nj] == j {
                    if let Some(fused) = stages[nj].op.with_fused_relu() {
                        stages[nj].op = fused;
                        stages[nj].name.push_str("+relu");
                        remap.push(nj);
                        continue;
                    }
                }
            }
            // Keep the stage, remapping its reads into the new indexing.
            let input = match stage.input {
                StageInput::Source => StageInput::Source,
                StageInput::Stage(j) => StageInput::Stage(remap[j]),
            };
            let mut op = stage.op.clone();
            if let StageOp::Add { with, .. } = &mut op {
                *with = remap[*with];
            }
            stages.push(Stage {
                name: stage.name.clone(),
                input,
                op,
                out_shape: stage.out_shape.clone(),
            });
            origin.push(i);
            remap.push(stages.len() - 1);
        }

        NetworkProgram {
            input_shape: self.input_shape.clone(),
            stages,
        }
    }

    /// Computes the static activation arena for this program.
    ///
    /// All slot offsets and lengths are **per image**; an executor
    /// serving `n` images scales every offset and length by `n`, which
    /// preserves disjointness.
    ///
    /// # Panics
    ///
    /// Panics if the program is empty.
    pub fn plan_arena(&self) -> ArenaPlan {
        let n = self.stages.len();
        assert!(n > 0, "cannot plan an empty program");

        // Inclusive live intervals over stage indices. A value is born
        // when its stage executes and dies after its last reader; the
        // source is born before stage 0 and dies after its last reader.
        let mut value_death = vec![0usize; n];
        let mut source_death = 0usize;
        for (i, stage) in self.stages.iter().enumerate() {
            value_death[i] = i;
            match stage.input {
                StageInput::Source => source_death = source_death.max(i),
                StageInput::Stage(j) => value_death[j] = value_death[j].max(i),
            }
            if let StageOp::Add { with, .. } = stage.op {
                value_death[with] = value_death[with].max(i);
            }
        }

        let mut placed: Vec<PlacedSlot> = Vec::new();
        let source_len: usize = self.input_shape.iter().product();
        let source = first_fit(&mut placed, source_len, 0, source_death);
        let mut values = Vec::with_capacity(n);
        for (i, stage) in self.stages.iter().enumerate() {
            let len: usize = stage.out_shape.iter().product();
            values.push(first_fit(&mut placed, len, i, value_death[i]));
        }
        let total = placed.iter().map(|p| p.slot.offset + p.slot.len).max();
        ArenaPlan {
            total: total.unwrap_or(0),
            source,
            values,
        }
    }
}

/// One contiguous range of the activation arena, in per-image f32 units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaSlot {
    /// Start of the range.
    pub offset: usize,
    /// Length of the range.
    pub len: usize,
}

/// A static arena layout for every activation a program touches, produced by [`NetworkProgram::plan_arena`].
///
/// Offsets and lengths are per image; scale by the batch size to size a
/// concrete allocation. Slots whose lifetimes overlap never share bytes;
/// slots whose lifetimes are disjoint may.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaPlan {
    /// Arena size in per-image f32 units (the peak live footprint).
    pub total: usize,
    /// Where the program input lives.
    pub source: ArenaSlot,
    /// Where each stage's output lives, indexed by stage.
    pub values: Vec<ArenaSlot>,
}

struct PlacedSlot {
    slot: ArenaSlot,
    birth: usize,
    death: usize,
}

/// Greedy first-fit: the lowest offset whose range avoids every placed
/// slot with an overlapping (inclusive) lifetime.
fn first_fit(placed: &mut Vec<PlacedSlot>, len: usize, birth: usize, death: usize) -> ArenaSlot {
    let mut live: Vec<(usize, usize)> = placed
        .iter()
        .filter(|p| p.birth <= death && birth <= p.death)
        .map(|p| (p.slot.offset, p.slot.offset + p.slot.len))
        .collect();
    live.sort_unstable();
    let mut offset = 0usize;
    for (start, end) in live {
        if offset + len <= start {
            break;
        }
        offset = offset.max(end);
    }
    let slot = ArenaSlot { offset, len };
    placed.push(PlacedSlot { slot, birth, death });
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::NetworkWeights;
    use crate::network::Network;
    use crate::resnet::{Backbone, LayerInfo};
    use crate::zoo;
    use epim_core::ConvShape;
    use epim_pim::datapath::AnalogModel;
    use epim_tensor::{rng, Tensor};

    fn chain_net() -> Network {
        let layer = |name: &str, conv: ConvShape, res: usize| LayerInfo {
            name: name.to_string(),
            conv,
            out_h: res,
            out_w: res,
        };
        Network::baseline(Backbone {
            name: "chain".to_string(),
            layers: vec![
                layer("l0", ConvShape::new(8, 4, 3, 3), 8),
                layer("l1", ConvShape::new(8, 8, 3, 3), 4),
                layer("head", ConvShape::new(10, 8, 1, 1), 1),
            ],
        })
    }

    fn random_input(shape: &[usize], seed: u64) -> Tensor {
        let mut r = rng::seeded(seed);
        let data: Vec<f32> = (0..shape.iter().product::<usize>())
            .map(|_| rng::uniform(&mut r, -1.0, 1.0))
            .collect();
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn chain_relus_fuse_into_convs() {
        let prog = chain_net().lower(8, 8).unwrap();
        let opt = prog.optimize();
        // l0, relu, l1, relu, gap, head -> l0+relu, l1+relu, gap, head.
        assert_eq!(opt.stages().len(), 4);
        assert!(opt.stages()[0].op.fused_relu());
        assert!(opt.stages()[1].op.fused_relu());
        assert_eq!(opt.stages()[0].name, "l0+relu");
        assert!(matches!(opt.stages()[2].op, StageOp::GlobalAvgPool));
        assert!(!opt.stages()[3].op.fused_relu(), "head has no relu");
        assert_eq!(opt.output_shape(), prog.output_shape());
    }

    #[test]
    fn resnet_fuses_stem_block_and_add_relus() {
        let net = Network::baseline(zoo::tiny_resnet_backbone(8, 4, 10));
        let prog = net.lower(16, 16).unwrap();
        let opt = prog.optimize();
        assert!(opt.stages().len() < prog.stages().len());
        assert!(
            opt.stages().iter().all(|s| !matches!(s.op, StageOp::Relu)),
            "every relu fuses in a resnet program"
        );
        // Residual adds carry the post-add relu.
        let adds: Vec<&Stage> = opt
            .stages()
            .iter()
            .filter(|s| matches!(s.op, StageOp::Add { .. }))
            .collect();
        assert_eq!(adds.len(), 2);
        assert!(adds.iter().all(|s| s.op.fused_relu()));
        // conv3 feeds the add pre-activation: it must NOT be fused.
        let conv3 = opt
            .stages()
            .iter()
            .find(|s| s.name == "stage1.block0.conv3")
            .unwrap();
        assert!(!conv3.op.fused_relu());
        // Epitome stages fuse too.
        let (enet, _) = zoo::tiny_epitome_network(8, 4, 10).unwrap();
        let eopt = enet.lower(16, 16).unwrap().optimize();
        assert!(eopt
            .stages()
            .iter()
            .any(|s| matches!(s.op, StageOp::Epitome { relu: true, .. })));
    }

    #[test]
    fn optimized_reference_is_bitwise_equal() {
        let analog = AnalogModel {
            adc_bits: Some(8),
            dac_bits: Some(9),
            ..AnalogModel::ideal()
        };
        let cases: Vec<(Network, usize, usize)> = vec![
            (chain_net(), 8, 8),
            (
                Network::baseline(zoo::tiny_resnet_backbone(8, 4, 10)),
                16,
                16,
            ),
            (zoo::tiny_epitome_network(8, 4, 10).unwrap().0, 16, 16),
        ];
        for (net, h, w) in cases {
            let prog = net.lower(h, w).unwrap();
            let opt = prog.optimize();
            let weights = NetworkWeights::random(&net, 11).unwrap();
            let mut shape = vec![2];
            shape.extend_from_slice(prog.input_shape());
            let x = random_input(&shape, 97);
            for wrapping in [false, true] {
                let (y0, s0) = prog
                    .forward_reference(&weights, wrapping, analog, &x)
                    .unwrap();
                let (y1, s1) = opt
                    .forward_reference(&weights, wrapping, analog, &x)
                    .unwrap();
                assert_eq!(y0.data(), y1.data(), "bitwise output identity");
                assert_eq!(s0, s1, "datapath stats identity");
            }
        }
    }

    #[test]
    fn arena_slots_never_overlap_while_live() {
        let net = Network::baseline(zoo::tiny_resnet_backbone(8, 4, 10));
        let opt = net.lower(16, 16).unwrap().optimize();
        let plan = opt.plan_arena();

        // Rebuild (slot, interval) tuples exactly as planning assigns them.
        let n = opt.stages().len();
        let mut value_death = vec![0usize; n];
        let mut source_death = 0usize;
        for (i, stage) in opt.stages().iter().enumerate() {
            value_death[i] = i;
            match stage.input {
                StageInput::Source => source_death = source_death.max(i),
                StageInput::Stage(j) => value_death[j] = value_death[j].max(i),
            }
            if let StageOp::Add { with, .. } = stage.op {
                value_death[with] = value_death[with].max(i);
            }
        }
        let mut slots: Vec<(ArenaSlot, usize, usize)> = vec![(plan.source, 0, source_death)];
        for (i, &death) in value_death.iter().enumerate() {
            slots.push((plan.values[i], i, death));
        }
        for (a, (sa, ba, da)) in slots.iter().enumerate() {
            assert!(sa.offset + sa.len <= plan.total);
            for (sb, bb, db) in slots.iter().skip(a + 1) {
                let time_overlap = ba <= db && bb <= da;
                let mem_overlap = sa.offset < sb.offset + sb.len && sb.offset < sa.offset + sa.len;
                assert!(
                    !(time_overlap && mem_overlap),
                    "live slots must not share memory"
                );
            }
        }
        // The arena must be strictly smaller than keeping everything live.
        let keep_all: usize = plan.source.len + plan.values.iter().map(|s| s.len).sum::<usize>();
        assert!(plan.total < keep_all);
    }
}
