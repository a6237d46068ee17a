//! Figure 8 — Microbenchmark: disk and runtime overhead vs fanin/fanout.
//!
//! Sweeps the synthetic operator's fanin (x-axis) for fanout ∈ {1, 100} and
//! reports, per strategy (←PayMany, ←PayOne, ←FullMany, ←FullOne, →FullOne,
//! BlackBox), the lineage bytes stored and the capture overhead — the two
//! panels of Figure 8.  `--paper-scale` uses the full 1000×1000 array.

use subzero_array::Shape;
use subzero_bench::harness::run_benchmark;
use subzero_bench::micro::{MicroConfig, MicroWorkflow};
use subzero_bench::report::{mb, secs, Table};
use subzero_bench::strategies::micro_strategies;

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper-scale");
    let shape = if paper_scale {
        Shape::d2(1000, 1000)
    } else {
        Shape::d2(400, 400)
    };
    let fanins = [1usize, 25, 50, 75, 100];
    let fanouts = [1usize, 100];
    println!("Microbenchmark overhead (Figure 8) — array {shape}, 10% output coverage\n");

    let mut table = Table::new(
        "Figure 8: lineage size and capture overhead",
        &[
            "fanout",
            "fanin",
            "strategy",
            "lineage(MB)",
            "capture(s)",
            "pairs",
        ],
    );

    for &fanout in &fanouts {
        for &fanin in &fanins {
            let config = MicroConfig {
                shape,
                fanin,
                fanout,
                ..MicroConfig::default()
            };
            let micro = MicroWorkflow::build(config);
            let inputs = micro.inputs();
            for named in micro_strategies(&micro) {
                let result = run_benchmark(
                    &named.name,
                    &micro.workflow,
                    &inputs,
                    named.strategy,
                    true,
                    |_sz, _run| Vec::new(),
                );
                table.row(vec![
                    fanout.to_string(),
                    fanin.to_string(),
                    result.strategy_name.clone(),
                    mb(result.lineage_bytes),
                    secs(result.workflow_runtime),
                    micro.pairs.len().to_string(),
                ]);
            }
            eprintln!("fanout={fanout} fanin={fanin} done");
        }
    }

    println!("{}", table.render());
    println!("csv:\n{}", table.to_csv());
}
