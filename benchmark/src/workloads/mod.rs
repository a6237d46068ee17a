//! The four workloads.  Each stresses different layers, so that for any
//! optimisation one workload exercises its mechanism and another bypasses it.

pub mod astro;
pub mod daemon;
pub mod micro;

use subzero::query::{QueryOptions, QueryResult, StepMethod};
use subzero_array::CellSet;

use crate::sys::Fnv;

/// Static plans: every step of a query is answered from stored lineage
/// (or the entire-array shortcut, the system default), never by the
/// query-time optimizer's fallback to re-execution, so what is measured is
/// the stored path.
pub const STATIC_PLANS: QueryOptions = QueryOptions {
    entire_array_optimization: true,
    query_time_optimizer: false,
};

/// Cell count and hash of the sorted linear ids of an answer.
pub fn cells_checksum(cells: &CellSet) -> (u64, u64) {
    let mut h = Fnv::default();
    for idx in cells.iter_linear() {
        h.push(idx as u64);
    }
    (cells.len() as u64, h.finish())
}

/// Folds a list of answers into one `(total cells, hash)` checksum.
pub fn answers_checksum<'a>(answers: impl IntoIterator<Item = &'a CellSet>) -> (u64, u64) {
    let mut h = Fnv::default();
    let mut total = 0u64;
    for cells in answers {
        let (n, hash) = cells_checksum(cells);
        total += n;
        h.push(n);
        h.push(hash);
    }
    (total, h.finish())
}

/// The in-window check of an indexed-lookup answer: every step was served
/// from stored lineage (or the entire-array shortcut) without a scan.
pub fn indexed_only(result: &QueryResult) -> Result<(), String> {
    for step in &result.report.steps {
        if step.scanned {
            return Err(format!("op {} scanned", step.op_id));
        }
        if !matches!(
            step.method,
            StepMethod::Stored | StepMethod::EntireArray | StepMethod::Skipped
        ) {
            return Err(format!("op {} answered by {}", step.op_id, step.method));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use subzero_array::{Coord, Shape};

    #[test]
    fn checksum_is_order_independent_and_stable() {
        let shape = Shape::d2(8, 8);
        let a = CellSet::from_coords(shape, [Coord::d2(1, 2), Coord::d2(7, 7), Coord::d2(0, 0)]);
        let b = CellSet::from_coords(shape, [Coord::d2(7, 7), Coord::d2(0, 0), Coord::d2(1, 2)]);
        assert_eq!(cells_checksum(&a), cells_checksum(&b));
        // Pinned: a change here silently invalidates golden/seed42.tsv.
        assert_eq!(cells_checksum(&a), (3, 0xd760_ff8f_6c15_1b90));
        assert_eq!(
            cells_checksum(&CellSet::empty(shape)),
            (0, 0xcbf2_9ce4_8422_2325)
        );
        let (cells, hash) = answers_checksum([&a, &b]);
        assert_eq!(cells, 6);
        assert_ne!(hash, answers_checksum([&a]).1);
    }
}
