//! Allocation guard for warm indexed `Full` lookups.
//!
//! Once a worker's entry cache and its record-read buffers are warm, an
//! indexed lookup reads each query cell's record into a reused buffer and
//! answers from cached runs: what it allocates is a per-call constant (the
//! outcome's two sets, the outcome vector), never a per-cell one.  A counting
//! global allocator pins that for both indexed directions on a file-backed
//! store — a `Vec` per record read creeping back into the query loop shows
//! up here as a thousand allocations.
//!
//! The allocator wrapper needs `unsafe impl GlobalAlloc`; `cargo xtask lint`
//! exempts `tests/` from its `unsafe` confinement.  This file holds exactly
//! one test so no concurrent test pollutes the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use subzero::datastore::OpDatastore;
use subzero::model::{Direction, StorageStrategy};
use subzero_array::{Array, ArrayRef, CellSet, Coord, Shape};
use subzero_engine::{LineageMode, LineageSink, OpMeta, Operator, RegionPair};
use subzero_store::kv::FileBackend;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) performed while `f` runs.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Indexed `Full` lookups never call into the operator.
struct Identity;

impl Operator for Identity {
    fn name(&self) -> &str {
        "identity"
    }
    fn output_shape(&self, input_shapes: &[Shape]) -> Shape {
        input_shapes[0]
    }
    fn run(&self, inputs: &[ArrayRef], _m: &[LineageMode], _s: &mut dyn LineageSink) -> Array {
        (*inputs[0]).clone()
    }
}

const SIDE: u32 = 64;

/// One region pair per 2x2 output tile, whose input side is the tile's
/// transpose plus one shared cell: every cell has lineage in both
/// directions, and query cells share entries the way real lookups do.
fn pairs() -> Vec<RegionPair> {
    let mut pairs = Vec::new();
    for tr in (0..SIDE).step_by(2) {
        for tc in (0..SIDE).step_by(2) {
            let tile: Vec<Coord> = (0..4).map(|k| Coord::d2(tr + k / 2, tc + k % 2)).collect();
            let mut incells: Vec<Coord> = tile.iter().map(|c| Coord::d2(c[1], c[0])).collect();
            incells.push(Coord::d2(0, 0));
            pairs.push(RegionPair::Full {
                outcells: tile,
                incells: vec![incells],
            });
        }
    }
    pairs
}

/// A query of the first `cells` cells in row-major order.
fn query(shape: Shape, cells: u32) -> CellSet {
    CellSet::from_coords(shape, (0..cells).map(|i| Coord::d2(i / SIDE, i % SIDE)))
}

#[test]
fn warm_indexed_lookups_allocate_per_call_not_per_cell() {
    let shape = Shape::d2(SIDE, SIDE);
    let meta = OpMeta::new(vec![shape], shape);
    let (small, large) = (query(shape, 10), query(shape, 1_000));
    let dir = std::env::temp_dir().join(format!("subzero-lookup-guard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create guard dir");
    for (strategy, direction) in [
        (StorageStrategy::full_one(), Direction::Backward),
        (StorageStrategy::full_one_forward(), Direction::Forward),
    ] {
        let path = dir.join(format!("{}.kv", strategy.db_suffix()));
        let backend = FileBackend::open(&path).expect("open guard store");
        let mut ds = OpDatastore::new("guard", strategy, &meta, Box::new(backend));
        ds.store_batch(&pairs(), 1);
        ds.finish_ingest();
        ds.set_workers(1);
        let mut lookup = |q: &CellSet| {
            let out = ds.lookup_many(direction, &[q], 0, &Identity, &meta);
            assert!(!out[0].result.is_empty() && !out[0].scanned);
        };
        // Warm-up: the cache decodes every entry either query names, and
        // the scratch buffers grow to the large query's size.
        lookup(&large);
        lookup(&small);
        let few = allocations_during(|| lookup(&small));
        let many = allocations_during(|| lookup(&large));
        // Both are a handful; what must not happen is growth with the query.
        const SLACK: usize = 4;
        assert!(
            many <= few + SLACK,
            "{direction:?}: {few} allocations for a 10-cell lookup, {many} for a 1000-cell one"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
