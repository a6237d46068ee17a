//! Allocation guard for warm indexed lookups.
//!
//! Once a worker's entry cache, its record-read buffers and the store's
//! memo of cell records are warm, an indexed `Full` lookup answers each
//! query cell from the memo and cached runs: what it allocates is a
//! per-call constant (the outcome's two sets, the outcome vector), never a
//! per-cell one.  A counting global allocator pins that for both indexed
//! directions on a file-backed two-input store whose lookups alternate
//! between the inputs — a `Vec` per record read creeping back into the
//! query loop, or a cache that only stays warm for one input, shows up here
//! as a thousand allocations.
//!
//! A `PayOne` lookup maps every stored payload through the operator, which
//! allocates per query cell by design; its leg pins that its record reads,
//! through per-worker key and value buffers, add no allocation to that.
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

/// Indexed `Full` lookups never call into the operator; a payload lookup
/// maps every stored payload to the output cell it was stored for.
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
    fn map_payload(
        &self,
        outcell: &Coord,
        _payload: &[u8],
        _input_idx: usize,
        _meta: &OpMeta,
    ) -> Option<Vec<Coord>> {
        Some(vec![*outcell])
    }
}

const SIDE: u32 = 64;

/// One region pair per 2x2 output tile, whose input-0 side is the tile's
/// transpose plus one shared cell and whose input-1 side is the tile
/// itself: every cell has lineage in both directions on both inputs, and
/// query cells share entries the way real lookups do.
///
/// Each tile also gets a one-byte payload pair, which only the payload
/// store keeps.
fn pairs() -> Vec<RegionPair> {
    let mut pairs = Vec::new();
    for tr in (0..SIDE).step_by(2) {
        for tc in (0..SIDE).step_by(2) {
            let tile: Vec<Coord> = (0..4).map(|k| Coord::d2(tr + k / 2, tc + k % 2)).collect();
            let mut incells: Vec<Coord> = tile.iter().map(|c| Coord::d2(c[1], c[0])).collect();
            incells.push(Coord::d2(0, 0));
            pairs.push(RegionPair::Full {
                outcells: tile.clone(),
                incells: vec![incells, tile.clone()],
            });
            pairs.push(RegionPair::Payload {
                outcells: tile,
                payload: vec![tr as u8],
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
    let meta = OpMeta::new(vec![shape, shape], shape);
    let (small, large) = (query(shape, 10), query(shape, 1_000));
    let dir = std::env::temp_dir().join(format!("subzero-lookup-guard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create guard dir");
    for (strategy, direction) in [
        (StorageStrategy::full_one(), Direction::Backward),
        (StorageStrategy::full_one_forward(), Direction::Forward),
        (StorageStrategy::pay_one(), Direction::Backward),
    ] {
        let path = dir.join(format!("{}.kv", strategy.db_suffix()));
        let backend = FileBackend::open(&path).expect("open guard store");
        let mut ds = OpDatastore::new("guard", strategy, &meta, Box::new(backend));
        ds.store_batch(&pairs(), 1);
        ds.finish_ingest();
        ds.set_workers(1);
        // One lookup about each input in turn.
        let mut lookup = |q: &CellSet| {
            for input_idx in 0..2 {
                let out = ds.lookup_many(direction, &[q], input_idx, &Identity, &meta);
                assert!(!out[0].result.is_empty() && !out[0].scanned);
            }
        };
        // Warm-up: the cache decodes every entry either query names on
        // either input, the memo holds every query cell's record, and the
        // scratch buffers grow to the large query's size.
        lookup(&large);
        lookup(&small);
        let few = allocations_during(|| lookup(&small));
        let many = allocations_during(|| lookup(&large));
        if strategy == StorageStrategy::pay_one() {
            // Per query cell, the payload list, its payload and the mapped
            // region, plus the answer sets' amortised growth (about one
            // allocation per 80 cells here); reading the record must add
            // nothing (a key and a value `Vec` per read would add 2).
            let cells = 2 * (large.len() - small.len());
            let bound = 3 * cells + cells / 32;
            assert!(
                many - few <= bound,
                "PayOne: {} allocations for {cells} more query cells, over {bound}",
                many - few
            );
            continue;
        }
        // Both are a handful; what must not happen is growth with the query.
        const SLACK: usize = 4;
        assert!(
            many <= few + SLACK,
            "{direction:?}: {few} allocations for two 10-cell lookups, {many} for two 1000-cell ones"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
