//! The served-output ledger: one FNV-1a hash over everything
//! `NetworkPlan::execute_batch` returns on a fixed set of workloads — the
//! output bits of every request and the eight `DataPathStats` counters of
//! every group.
//!
//! The served-vs-reference tests compare the plan against
//! `forward_reference`, which runs the same kernels, so a change inside a
//! kernel moves both sides and they cannot see it. This test can: its
//! expected value was computed before the code under test changed. One
//! value holds on every ISA arm: the GEMM tile and the crossbar MVM each
//! fuse every multiply-accumulate, and the other kernels match the scalar
//! arm lane for lane, so `EPIM_FORCE_ISA=scalar` is an oracle for the
//! vector arms.
//!
//! Workloads:
//! - dense and uniform-epitome (1024 × 256) ResNet-50 at 64 × 64, weight
//!   seed 50, A9/ADC8, channel wrapping on, a 2-image and a 1-image group;
//! - the same uniform-epitome network on the ideal analog model: no ADC
//!   absorbs a last-place change in a crossbar sum, so this line moves
//!   with the crossbar's arithmetic even where the 8-bit readout hides it;
//! - the default zoo fleet (`FleetConfig::default_zoo`), every tenant
//!   with a 2-image and a 1-image group.
//!
//! Outputs are bit-deterministic across `EPIM_THREADS`, so the value holds
//! at every pool width. A change that moves served bits on purpose
//! recomputes it, checks that `EPIM_FORCE_ISA=scalar`, `=avx2` and an
//! AVX-512 host agree on the new one, and says why it moved.

use epim::core::EpitomeDesigner;
use epim::models::lower::NetworkWeights;
use epim::models::network::Network;
use epim::models::resnet::resnet50;
use epim::pim::datapath::{AnalogModel, DataPathStats};
use epim::runtime::{NetworkPlan, PlanCache};
use epim::serve::fleet::{FleetConfig, INPUT_SHAPE};
use epim::tensor::{init, rng, Tensor};

/// The pinned ledger value, on every arm.
const EXPECTED: u64 = 0x54bb_40f8_cc02_92a5;

/// FNV-1a, 64 bit, over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        for v in t.data() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn stats(&mut self, s: &DataPathStats) {
        for field in [
            s.rounds,
            s.word_line_activations,
            s.bit_line_activations,
            s.buffer_writes,
            s.buffer_reads,
            s.joint_adds,
            s.table_lookups,
            s.wrapped_elements,
        ] {
            self.bytes(&field.to_le_bytes());
        }
    }
}

/// Runs a 2-image and then a 1-image group of fixed inputs through `plan`
/// and hashes what it returns.
fn hash_groups(plan: &NetworkPlan, shape: &[usize], input_seed: u64) -> u64 {
    let mut r = rng::seeded(input_seed);
    let inputs: Vec<Tensor> = (0..3)
        .map(|_| init::uniform(shape, -1.0, 1.0, &mut r))
        .collect();
    let mut h = Fnv::new();
    for group in [&inputs[..2], &inputs[2..]] {
        let refs: Vec<&Tensor> = group.iter().collect();
        let (outs, stats) = plan.execute_batch(&refs).unwrap();
        for out in &outs {
            h.tensor(out);
        }
        h.stats(&stats);
    }
    h.0
}

fn resnet50_at_64(net: &Network, analog: AnalogModel) -> u64 {
    let weights = NetworkWeights::random(net, 50).unwrap();
    let plan = NetworkPlan::compile(
        &PlanCache::new(),
        net,
        &weights,
        (64, 64),
        true,
        analog,
        true,
    )
    .unwrap();
    hash_groups(&plan, &[1, 3, 64, 64], 64)
}

#[test]
fn served_outputs_match_the_ledger() {
    let a9adc8 = AnalogModel {
        dac_bits: Some(9),
        adc_bits: Some(8),
        ..AnalogModel::ideal()
    };
    let epitome_net =
        Network::uniform_epitome(resnet50(), &EpitomeDesigner::new(128, 128), 1024, 256).unwrap();
    let dense = resnet50_at_64(&Network::baseline(resnet50()), a9adc8);
    let uniform = resnet50_at_64(&epitome_net, a9adc8);
    let uniform_ideal = resnet50_at_64(&epitome_net, AnalogModel::ideal());
    let zoo = FleetConfig::default_zoo().build().unwrap();
    let tenants: Vec<u64> = zoo
        .tenant_names()
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let plan = zoo.plan(zoo.tenant_id(name).unwrap()).unwrap();
            hash_groups(plan, &INPUT_SHAPE, 16 + i as u64)
        })
        .collect();

    let mut h = Fnv::new();
    for part in [dense, uniform, uniform_ideal].iter().chain(&tenants) {
        h.bytes(&part.to_le_bytes());
    }
    assert!(
        h.0 == EXPECTED,
        "ledger moved on the {:?} arm: {:#018x}, want {EXPECTED:#018x} (dense {dense:#018x}, \
         uniform {uniform:#018x}, uniform ideal {uniform_ideal:#018x}, zoo {tenants:#018x?})",
        epim_simd::isa(),
        h.0,
    );
}
