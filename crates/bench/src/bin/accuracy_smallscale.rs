//! The ImageNet-substitution experiment: trains conv vs epitome vs
//! quantized-epitome CNNs on synthetic data with real SGD (the stand-in for
//! ImageNet training; see `epim_models::accuracy`) and reports test
//! accuracies.
//!
//! `cargo run -p epim-bench --release --bin accuracy_smallscale`

use epim::models::training::{
    run_small_scale_experiment, run_small_scale_experiment_avg, SmallScaleConfig, SyntheticDataset,
};
use epim_bench::format::{num, Table};

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let cfg = if fast {
        SmallScaleConfig {
            per_class: 24,
            epochs: 8,
            ..SmallScaleConfig::default()
        }
    } else {
        // Full mode uses the harder striped-texture task (frequency
        // detection), where compression and low-bit quantization actually
        // cost accuracy — the blobs task saturates at 100% for every
        // variant.
        SmallScaleConfig {
            classes: 6,
            image_size: 12,
            per_class: 60,
            epochs: 25,
            quant_bits: 2,
            dataset: SyntheticDataset::Stripes,
            // Paper-like ~2x compression (cout halved, wrapping factor 2).
            epitome_shape: (8, 8, 3, 3),
            ..SmallScaleConfig::default()
        }
    };
    println!(
        "Small-scale accuracy experiment: {} classes, {}x{} images, {} per class, {} epochs ({:?})",
        cfg.classes, cfg.image_size, cfg.image_size, cfg.per_class, cfg.epochs, cfg.dataset
    );
    let res = if fast {
        run_small_scale_experiment(&cfg)
    } else {
        // Average over 5 seeds: individual tiny-test-set runs are noisy.
        println!("(averaging over 5 seeds)");
        run_small_scale_experiment_avg(&cfg, 5)
    };
    let mut t = Table::new(vec!["Variant", "Test accuracy (%)"]);
    t.row(vec![
        "conv CNN".to_string(),
        num(100.0 * res.conv_acc as f64, 1),
    ]);
    t.row(vec![
        format!("epitome CNN ({:.1}x fewer params)", res.param_compression),
        num(100.0 * res.epitome_acc as f64, 1),
    ]);
    t.row(vec![
        format!("epitome + naive {}-bit QAT", cfg.quant_bits),
        num(100.0 * res.epitome_naive_quant_acc as f64, 1),
    ]);
    t.row(vec![
        format!("epitome + overlap-aware {}-bit QAT", cfg.quant_bits),
        num(100.0 * res.epitome_overlap_quant_acc as f64, 1),
    ]);
    println!("{}", t.render());
    let gap = 100.0 * (res.epitome_overlap_quant_acc - res.epitome_naive_quant_acc);
    println!("reading: the epitome trains to near conv-level accuracy (the paper's");
    println!("central accuracy claim), and low-bit QAT trains through the");
    println!("reconstruction adjoint. Overlap-aware ranges on per-crossbar scales");
    println!("minus the naive per-tensor min/max range: {gap:+.1} points. The full");
    println!("run (striped textures, 2 bits) shows the paper's Table 2 order, overlap");
    println!("above naive, which tests/end_to_end.rs asserts on every seed; the");
    println!("--fast blobs task is too easy to separate the two.");
}
