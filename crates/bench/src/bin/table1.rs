//! Regenerates Table 1 of the EPIM paper: main experimental results on
//! ImageNet (accuracy via the calibrated surrogate; #XBs, CR, latency,
//! energy and utilization simulated).
//!
//! `cargo run -p epim-bench --release --bin table1`

use epim_bench::experiments::table1::table1;
use epim_bench::format::{num, Table};

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let rows = table1(fast);
    let mut t = Table::new(vec![
        "Model",
        "Bitwidth",
        "Epitome",
        "Accuracy(%)",
        "#XBs",
        "CR of XBs",
        "Latency(ms)",
        "Energy(mJ)",
        "Util(%)",
    ]);
    for r in &rows {
        t.row(vec![
            r.model.clone(),
            r.bitwidth.clone(),
            r.epitome.clone(),
            num(r.accuracy, 2),
            if r.xbs == 0 {
                "-".to_string()
            } else {
                r.xbs.to_string()
            },
            num(r.cr_xbs, 2),
            num(r.latency_ms, 1),
            num(r.energy_mj, 1),
            num(r.utilization_pct, 1),
        ]);
    }
    println!("Table 1: Experimental results of EPIM on ImageNet (simulated)");
    println!("{}", t.render());
    println!("note: accuracy column is the calibrated surrogate (epim_models::accuracy);");
    println!("      hardware columns are measured by the behavior-level simulator.");
}
