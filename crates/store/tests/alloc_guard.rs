//! Allocation guard for the batched kv write path.
//!
//! The file backend's group writes are allocation-free *per record*: one
//! group buffer, one index reservation, and nothing that scales with the
//! batch.  A counting global allocator pins that — a `to_vec()` creeping back
//! into the index insert would show up as 10 000 allocations here long
//! before it showed up in a benchmark.
//!
//! The allocator wrapper needs `unsafe impl GlobalAlloc`; `cargo xtask lint`
//! confines `unsafe` to `mmap.rs` in the crate's *library* code and exempts
//! `tests/` (pinned by its `unsafe_outside_mmap` self-test).  This file holds
//! exactly one test so no concurrent test pollutes the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use subzero_store::kv::{FileBackend, KvBackend};

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

#[test]
fn group_writes_allocate_per_batch_not_per_record() {
    const RECORDS: u64 = 10_000;
    // The encoder's key shapes: a tag byte plus a fixed little-endian u64.
    let keys: Vec<[u8; 9]> = (0..RECORDS)
        .map(|i| {
            let mut key = [1u8; 9];
            key[1..].copy_from_slice(&i.to_le_bytes());
            key
        })
        .collect();
    let value = [0x5au8; 12];
    let items: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (&k[..], &value[..])).collect();
    let (puts, appends) = items.split_at(items.len() / 2);

    let dir = std::env::temp_dir().join(format!("subzero-alloc-guard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut backend = FileBackend::open(&dir.join("guard.kv")).expect("open guard store");

    // A handful each: the group buffer (plus its growth when old values are
    // folded in), the index reservation, the remap.
    const PER_BATCH: usize = 32;
    let fresh = allocations_during(|| backend.put_batch_slices(&items));
    assert!(fresh < PER_BATCH, "{fresh} allocations for {RECORDS} puts");
    let merged = allocations_during(|| backend.merge_append_batch(&items));
    assert!(
        merged < PER_BATCH,
        "{merged} allocations for {RECORDS} merges"
    );
    let grouped = allocations_during(|| backend.write_group(puts, appends));
    assert!(
        grouped < PER_BATCH,
        "{grouped} allocations for one {RECORDS}-record group write"
    );
    assert_eq!(backend.len(), RECORDS as usize);
    assert_eq!(backend.get(&keys[9_999]).map(|v| v.len()), Some(36));

    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);
}
