//! Memory guard for mismatched-direction scans.
//!
//! A lookup whose direction the store does not index scans the whole log,
//! but it must not hold the whole log: the streamed join keeps two bits per
//! entry (seen and hit), a mask per hit entry and per query cell, and the
//! answers, and nothing else that grows with the store.  A counting global allocator
//! tracks live and peak heap bytes and pins that bound on file-backed stores
//! of more than 50 scan blocks, for both `Full` layouts.
//!
//! The `One` store is written in several batches, so later batches supersede
//! earlier cell records, and is checked again after compaction.  Each id a
//! cell record names is a 16-byte deferral if the join meets the record
//! before its entry; the stores are sized so that deferring them would break
//! the bound, which proves a file log's live cell records follow the entries
//! they name.
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

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are passed through verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live heap bytes above the starting level while `f` runs.
fn peak_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - base, out)
}

/// Scans never call into the operator.
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

/// One side of the square arrays: 65 536 cells, one `CellSet` chunk, so a
/// densified query costs 8 KiB.
const SIDE: u32 = 256;
/// Region pairs stored; every one is an entry record.
const PAIRS: u32 = 60_000;
/// Input cells per pair, hence entry ids named per pair by cell records.
const FANIN: u32 = 4;
/// Queries per batch, and output cells per query.
const QUERIES: u32 = 16;
const QUERY_CELLS: u32 = 100;
/// Record-block size of the scan (`datastore::SCAN_BLOCK`).
const SCAN_BLOCK: usize = 1024;

/// Pair `i` maps output cells `i` and `i + 1` (mod the array) to `FANIN`
/// pseudo-random input cells, so input cells recur across the batches.
fn pairs() -> Vec<RegionPair> {
    let cells = SIDE * SIDE;
    let at = |i: u32| Coord::d2(i / SIDE, i % SIDE);
    let mut state = 0x9e37_79b9_u32;
    (0..PAIRS)
        .map(|i| {
            let incells = (0..FANIN)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 17;
                    state ^= state << 5;
                    at(state % cells)
                })
                .collect();
            RegionPair::Full {
                outcells: vec![at(i % cells), at((i + 1) % cells)],
                incells: vec![incells],
            }
        })
        .collect()
}

/// Checks the peak live bytes of one 16-query backward batch against the
/// streamed join's bound, and returns the bound.
fn check_scan(ds: &mut OpDatastore, meta: &OpMeta, case: &str) -> usize {
    let shape = meta.output_shape;
    let queries: Vec<CellSet> = (0..QUERIES)
        .map(|q| {
            let first = q * 3_000;
            CellSet::from_coords(
                shape,
                (first..first + QUERY_CELLS).map(|i| Coord::d2(i / SIDE, i % SIDE)),
            )
        })
        .collect();
    let refs: Vec<&CellSet> = queries.iter().collect();
    // Warm-up: the first lookup builds the spatial index of a `Many` store.
    ds.lookup_many(Direction::Backward, &refs, 0, &Identity, meta);
    let (peak, outs) =
        peak_during(|| ds.lookup_many(Direction::Backward, &refs, 0, &Identity, meta));
    assert!(
        outs.iter().all(|o| o.scanned && !o.result.is_empty()),
        "{case}"
    );
    let answer_cells: usize = outs.iter().map(|o| o.result.len()).sum();
    // Two bits per entry; the masks of hit entries and query cells grow
    // with the answers, not the store.
    let entries = PAIRS as usize;
    let bound = entries.div_ceil(4) + 16 * answer_cells + (1 << 18);
    assert!(
        peak <= bound,
        "{case}: the scan peaked at {peak} live bytes, over the bound of {bound}"
    );
    bound
}

#[test]
fn mismatched_scans_hold_hit_masks_and_answers_not_the_store() {
    let shape = Shape::d2(SIDE, SIDE);
    let meta = OpMeta::new(vec![shape], shape);
    let pairs = pairs();
    let dir = std::env::temp_dir().join(format!("subzero-scan-guard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create guard dir");
    for strategy in [
        StorageStrategy::full_one_forward(),
        StorageStrategy::full_many_forward(),
    ] {
        let path = dir.join(format!("{}.kv", strategy.db_suffix()));
        let backend = FileBackend::open(&path).expect("open guard store");
        let mut ds = OpDatastore::new("guard", strategy, &meta, Box::new(backend));
        ds.set_workers(1);
        for batch in pairs.chunks(PAIRS as usize / 6) {
            ds.store_batch(batch, 1);
        }
        ds.finish_ingest();
        assert!(
            ds.num_entries() >= 50 * SCAN_BLOCK,
            "{strategy}: store too small"
        );
        if strategy == StorageStrategy::full_one_forward() {
            let bound = check_scan(&mut ds, &meta, &format!("{strategy} after batches"));
            // Deferring every id the cell records name would not fit.
            let named = (PAIRS * FANIN) as usize;
            assert!(16 * named > bound, "the store is too small to prove order");
            assert!(ds.compact().expect("compact") > 0, "batches left garbage");
        }
        check_scan(&mut ds, &meta, &format!("{strategy}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
