//! Runs the five figure binaries in sequence: `fig5_astronomy`,
//! `fig6_genomics`, `fig7_optimizer`, `fig8_micro_overhead` and
//! `fig9_micro_query`, each printing its tables to stdout.
//!
//! Every command-line argument is passed through to each binary (e.g.
//! `--paper-scale`); the run stops at the first binary that fails.

use std::process::Command;

fn main() {
    let binaries = [
        "fig5_astronomy",
        "fig6_genomics",
        "fig7_optimizer",
        "fig8_micro_overhead",
        "fig9_micro_query",
    ];
    let pass_through: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .expect("current executable directory");
    for bin in binaries {
        println!("\n================ {bin} ================\n");
        let path = exe_dir.join(bin);
        let status = Command::new(&path)
            .args(&pass_through)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        if !status.success() {
            eprintln!("{bin} exited with {status}");
            std::process::exit(1);
        }
    }
    println!("\nAll experiments completed.");
}
