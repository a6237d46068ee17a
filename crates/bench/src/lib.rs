//! # subzero-bench
//!
//! The evaluation harness of the SubZero reproduction: the two end-to-end
//! scientific benchmarks of §II/§VIII (astronomy and genomics), the synthetic
//! microbenchmark of §VIII-C, the named strategy configurations of Table II,
//! and the binaries that regenerate every figure of the paper's evaluation.
//!
//! * [`astronomy`] — the LSST-style image-processing workflow (22 built-in
//!   operators + 4 UDFs), a synthetic sky generator, and the five backward /
//!   one forward lineage queries of Figure 5.
//! * [`genomics`] — the medulloblastoma-prediction workflow (10 built-in
//!   operators + 4 UDFs), a synthetic patient-feature cohort generator, and
//!   the two backward / two forward queries of Figure 6.
//! * [`micro`] — the tunable fanin/fanout synthetic operator of Figures 8–9.
//! * [`strategies`] — the named lineage strategies of Table II.
//! * [`harness`] — measurement helpers shared by the figure binaries:
//!   running a workload under a strategy, recording disk/runtime overheads
//!   and per-query latencies.
//! * [`report`] — plain-text table and CSV rendering.
//!
//! Figure binaries (run with `cargo run --release -p subzero-bench --bin …`):
//! `fig5_astronomy`, `fig6_genomics`, `fig7_optimizer`, `fig8_micro_overhead`,
//! `fig9_micro_query`, and `all_experiments` which runs everything.

pub mod astronomy;
pub mod genomics;
pub mod harness;
pub mod micro;
pub mod report;
pub mod strategies;

pub use harness::{BenchmarkMeasurement, NamedQuery, QueryMeasurement};
