//! Stress tests for concurrent `FileBackend` access.
//!
//! The capture pipeline's flushers append lineage batches (group writes)
//! while query sessions stream the same stores back (`scan_slices`, point
//! `get`s) through the backend's one shared mapping of the log.  These
//! tests drive many reader threads against an interleaved writer at full
//! speed so the ThreadSanitizer CI lane (`ci.yml` `tsan` job) can observe
//! the read paths under real contention — several threads reading one
//! mapping while the writer remaps it between batches — and so the
//! consistency invariants (a reader never sees a torn record or a partial
//! batch) hold under every interleaving the scheduler produces.
//!
//! Writer exclusivity mirrors production: flushers mutate a store only
//! under its shard lock, so the test arbitrates group writes vs readers
//! with an `RwLock` and lets everything *inside* the read side race.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::RwLock;

use subzero_store::kv::{FileBackend, KvBackend};

/// Batches appended by the writer; readers assert they only ever observe
/// whole batches.
const BATCHES: usize = 24;
/// Records per batch.
const BATCH: usize = 32;
/// Concurrent reader threads racing the scans.
const READERS: usize = 4;

fn record(batch: usize, i: usize) -> (Vec<u8>, Vec<u8>) {
    let id = (batch * BATCH + i) as u32;
    // Value derives from the key so torn reads are detectable.
    let val: Vec<u8> = id.to_be_bytes().iter().cycle().take(64).copied().collect();
    (id.to_be_bytes().to_vec(), val)
}

/// Writes `items` to `backend` as one group.
fn put_all(backend: &mut FileBackend, items: &[(Vec<u8>, Vec<u8>)]) {
    let refs: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
    backend.put_batch_slices(&refs);
}

#[test]
fn readers_race_scans_against_group_write_flushes() {
    let dir = std::env::temp_dir().join(format!("subzero-kv-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stress.kv");
    let _ = std::fs::remove_file(&path);

    let backend = RwLock::new(FileBackend::open(&path).unwrap());
    let done = AtomicBool::new(false);
    let max_seen = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let backend = &backend;
        let done = &done;
        let max_seen = &max_seen;

        for reader in 0..READERS {
            scope.spawn(move || {
                let mut last_count = 0usize;
                while !done.load(Ordering::Acquire) || last_count < BATCHES * BATCH {
                    let guard = backend.read().unwrap();
                    // Full streamed scan: whole batches only, values intact.
                    let mut count = 0usize;
                    guard.scan_slices(7, &mut |pairs| {
                        for &(key, value) in pairs {
                            let expected: Vec<u8> = key.iter().cycle().take(64).copied().collect();
                            assert_eq!(value, &expected, "torn record for key {key:?}");
                        }
                        count += pairs.len();
                    });
                    assert_eq!(count % BATCH, 0, "reader saw a partial batch: {count}");
                    assert!(
                        count >= last_count,
                        "scan went backwards: {count} < {last_count}"
                    );
                    last_count = count;
                    // Point reads race the other readers' scans on the same
                    // shared reader handle.
                    if count > 0 {
                        let i = (reader * 13) % count;
                        let (key, val) = record(i / BATCH, i % BATCH);
                        assert_eq!(guard.get(&key).as_deref(), Some(&val[..]));
                    }
                    max_seen.fetch_max(count, Ordering::Release);
                }
            });
        }

        scope.spawn(move || {
            for batch in 0..BATCHES {
                let items: Vec<_> = (0..BATCH).map(|i| record(batch, i)).collect();
                put_all(&mut backend.write().unwrap(), &items);
                // Brief yield so readers interleave between flushes.
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });
    });

    assert_eq!(
        max_seen.load(Ordering::Acquire),
        BATCHES * BATCH,
        "readers never observed the fully-flushed backend"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn point_gets_race_scans_on_a_fully_written_backend() {
    // All-reader contention: every thread hammers the one shared mapping
    // with interleaved scans and point reads — the pattern the TSan lane
    // must prove race-free without any write-side arbitration in the mix.
    let dir = std::env::temp_dir().join(format!("subzero-kv-stress-ro-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stress-ro.kv");
    let _ = std::fs::remove_file(&path);

    let mut backend = FileBackend::open(&path).unwrap();
    let items: Vec<_> = (0..BATCHES)
        .flat_map(|b| (0..BATCH).map(move |i| record(b, i)))
        .collect();
    put_all(&mut backend, &items);
    let backend = &backend;

    std::thread::scope(|scope| {
        for t in 0..READERS * 2 {
            scope.spawn(move || {
                for round in 0..8 {
                    if (t + round) % 2 == 0 {
                        let mut count = 0usize;
                        backend.scan_slices(11, &mut |pairs| count += pairs.len());
                        assert_eq!(count, BATCHES * BATCH);
                    } else {
                        for i in (t..BATCHES * BATCH).step_by(READERS * 2) {
                            let (key, val) = record(i / BATCH, i % BATCH);
                            assert_eq!(backend.get(&key).as_deref(), Some(&val[..]));
                        }
                    }
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
