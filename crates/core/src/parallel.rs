//! Scoped worker-thread helpers for the batched ingestion pipeline.
//!
//! The capture hot path is lock-free by construction: work is split into
//! disjoint shards (a chunk of a batch to encode, or one per-operator
//! datastore to flush) and each shard is owned by exactly one scoped thread
//! for the duration of the call.  On single-core hosts (`workers <= 1`) every
//! helper degrades to a plain serial loop with zero thread overhead.
//!
//! Edge cases are pinned down by contract (and by unit + property tests):
//! a zero or one worker budget, an empty input, and an input below the
//! serial threshold never spawn a thread; a budget larger than the item
//! count is capped at one thread per item.  All threading goes through
//! [`crate::sync::thread`] so `tests/loom.rs` can model-check the fan-out.

use crate::sync::thread;

/// Default worker count: the host's available parallelism, capped so a wide
/// machine does not spawn more encode threads than a batch can feed.
pub fn default_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Splits a worker budget across `shares` concurrent consumers: each share
/// gets an equal slice, never less than one worker.  Used when independent
/// units (datastore shards flushed in parallel, capture flusher threads) each
/// run their own `store_batch` and must not collectively oversubscribe the
/// host.
pub fn split_budget(workers: usize, shares: usize) -> usize {
    if shares <= 1 {
        workers.max(1)
    } else {
        (workers / shares).max(1)
    }
}

/// Splits `items` into up to `workers` contiguous chunks and maps `g` over
/// the chunks on scoped threads, returning the per-chunk results in order.
///
/// `g` receives the global index of its chunk's first item.  This is the
/// shape the arena encode phase and the batched lookups want: each worker
/// owns one contiguous shard and can amortise per-shard state (an encode
/// arena, a decoded-entry cache) across every item in it.  With `workers <=
/// 1` or fewer than `min_items` items (and always below two) the whole input
/// is one chunk processed inline, so chunking never changes observable
/// results — only how the work is sliced.  A budget larger than the item
/// count is capped at one chunk per item.
pub fn parallel_chunks<T, U, F>(items: &[T], workers: usize, min_items: usize, g: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &[T]) -> U + Sync,
{
    // One unit state per worker; a `Vec` of zero-sized values never
    // allocates.
    let mut states = vec![(); workers.max(1)];
    parallel_chunks_stateful(items, &mut states, min_items, |start, _, slice| {
        g(start, slice)
    })
}

/// [`parallel_chunks`] with one slot of caller-owned mutable state pinned to
/// each chunk: chunk `i` runs with exclusive access to `states[i]`, so
/// per-worker state that outlives one call (a decoded-entry cache, say)
/// keeps a stable shard↔state association across calls — the state that
/// served a query range last batch serves the same range next batch, warm,
/// instead of being rebuilt at every call site.
///
/// The chunk count is `states.len()` capped at one chunk per item; with a
/// single state or fewer than `min_items` items the whole input is one chunk
/// processed inline with `states[0]`.  Like [`parallel_chunks`], slicing
/// never changes observable results — states only memoise shared reads.
pub fn parallel_chunks_stateful<T, S, U, F>(
    items: &[T],
    states: &mut [S],
    min_items: usize,
    g: F,
) -> Vec<U>
where
    T: Sync,
    S: Send,
    U: Send,
    F: Fn(usize, &mut S, &[T]) -> U + Sync,
{
    assert!(
        !states.is_empty(),
        "stateful fan-out needs at least one state"
    );
    if states.len() <= 1 || items.len() < min_items.max(2) {
        return vec![g(0, &mut states[0], items)];
    }
    let shards = states.len().min(items.len());
    let chunk = items.len().div_ceil(shards);
    thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .zip(states.iter_mut())
            .enumerate()
            .map(|(ci, (slice, state))| {
                let g = &g;
                scope.spawn(move || g(ci * chunk, state, slice))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk worker panicked"))
            .collect()
    })
}

/// Runs `f` once per item with exclusive access, one scoped thread per item
/// when `parallel` is set (used to flush the independent per-operator
/// datastore shards concurrently).
pub fn for_each_mut<T, F>(items: &mut [T], parallel: bool, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if !parallel || items.len() <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    thread::scope(|scope| {
        for (i, item) in items.iter_mut().enumerate() {
            let f = &f;
            scope.spawn(move || f(i, item));
        }
    });
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Runs `run` with a probe that records every thread executing an item,
    /// returning the set of observed thread ids.
    fn observed_threads(run: impl FnOnce(&(dyn Fn() + Sync))) -> HashSet<ThreadId> {
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let probe = || {
            seen.lock().unwrap().insert(std::thread::current().id());
        };
        run(&probe);
        seen.into_inner().unwrap()
    }

    /// `parallel_chunks` used as an order-preserving map: `f` sees every
    /// item with its global index, and the chunk results are concatenated.
    fn chunked_map<U: Send>(
        items: &[u32],
        workers: usize,
        min_items: usize,
        f: impl Fn(usize, u32) -> U + Sync,
    ) -> Vec<U> {
        parallel_chunks(items, workers, min_items, |start, slice| {
            slice
                .iter()
                .enumerate()
                .map(|(i, &v)| f(start + i, v))
                .collect::<Vec<U>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    #[test]
    fn zero_workers_and_empty_inputs_never_spawn() {
        // workers == 0 stays on the calling thread.
        let items: Vec<u32> = (0..100).collect();
        let seen = observed_threads(|probe| {
            let out = chunked_map(&items, 0, 2, |i, v| {
                probe();
                v + i as u32
            });
            assert_eq!(out.len(), 100);
        });
        assert_eq!(seen.len(), 1, "workers=0 must not spawn");
        assert!(seen.contains(&std::thread::current().id()));

        // An empty input is one inline chunk: no scope is entered.
        let empty: Vec<u32> = Vec::new();
        let seen = observed_threads(|probe| {
            let out = parallel_chunks(&empty, 8, 0, |_, s| {
                probe();
                s.len()
            });
            assert_eq!(out, vec![0]);
        });
        assert_eq!(seen.len(), 1, "empty input must not spawn");
        assert!(seen.contains(&std::thread::current().id()));
    }

    #[test]
    fn oversized_worker_budget_caps_at_one_thread_per_item() {
        // 3 items with a budget of 64: at most 3 worker threads may touch
        // the items (the serial threshold is forced down to let it fan out).
        let items = [1u32, 2, 3];
        let seen = observed_threads(|probe| {
            let out = chunked_map(&items, 64, 2, |i, v| {
                probe();
                v + i as u32
            });
            assert_eq!(out, vec![1, 3, 5]);
        });
        assert!(
            seen.len() <= items.len(),
            "spawned more threads than items: {}",
            seen.len()
        );
        let chunks = parallel_chunks(&items, 64, 2, |start, slice| (start, slice.to_vec()));
        assert_eq!(chunks.len(), items.len(), "one single-item chunk per item");
    }

    proptest! {
        #[test]
        fn parallel_chunks_map_matches_serial_for_any_config(
            len in 0usize..40,
            workers in 0usize..12,
            min_items in 0usize..12,
        ) {
            let items: Vec<u32> = (0..len as u32).map(|v| v * 3 + 1).collect();
            let serial: Vec<u32> =
                items.iter().enumerate().map(|(i, &v)| v * 2 + i as u32).collect();
            let par = chunked_map(&items, workers, min_items, |i, v| v * 2 + i as u32);
            prop_assert_eq!(par, serial);
        }

        #[test]
        fn parallel_chunks_rebuild_input_for_any_config(
            len in 0usize..40,
            workers in 0usize..12,
            min_items in 0usize..12,
        ) {
            let items: Vec<u64> = (0..len as u64).collect();
            let chunks = parallel_chunks(&items, workers, min_items, |start, slice| {
                (start, slice.to_vec())
            });
            let mut rebuilt = Vec::new();
            for (start, slice) in &chunks {
                prop_assert_eq!(*start, rebuilt.len());
                rebuilt.extend_from_slice(slice);
            }
            prop_assert_eq!(rebuilt, items.clone());
            prop_assert!(chunks.len() <= items.len().max(1), "more chunks than items");
        }

        #[test]
        fn split_budget_partitions_without_starving(
            workers in 0usize..32,
            shares in 0usize..32,
        ) {
            let per_share = split_budget(workers, shares);
            prop_assert!(per_share >= 1, "a share must never be starved");
            if shares <= 1 {
                prop_assert_eq!(per_share, workers.max(1));
            } else if workers >= shares {
                prop_assert!(
                    per_share * shares <= workers,
                    "shares oversubscribe a sufficient budget: \
                     {} shares x {} workers each from {}",
                    shares, per_share, workers
                );
            } else {
                prop_assert_eq!(per_share, 1);
            }
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u32> = (0..1000).collect();
        for workers in [1, 2, 5] {
            let out = chunked_map(&items, workers, 64, |i, v| (i as u32, v * 2));
            assert_eq!(out.len(), 1000);
            for (i, (idx, doubled)) in out.iter().enumerate() {
                assert_eq!(*idx as usize, i);
                assert_eq!(*doubled, items[i] * 2);
            }
        }
    }

    #[test]
    fn parallel_map_small_inputs_stay_serial() {
        // Below `min_items` the input is one inline chunk on the caller.
        let items = [1, 2, 3];
        let seen = observed_threads(|probe| {
            let out = chunked_map(&items, 8, 64, |_, v| {
                probe();
                v + 1
            });
            assert_eq!(out, vec![2, 3, 4]);
        });
        assert_eq!(seen.len(), 1, "a small input must not spawn");
        assert!(seen.contains(&std::thread::current().id()));
        assert_eq!(parallel_chunks(&items, 8, 64, |_, s| s.len()), vec![3]);
    }

    #[test]
    fn for_each_mut_touches_every_item() {
        for parallel in [false, true] {
            let mut items = vec![0u64; 5];
            for_each_mut(&mut items, parallel, |i, v| *v = i as u64 + 10);
            assert_eq!(items, vec![10, 11, 12, 13, 14]);
        }
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
        assert!(default_workers() <= 8);
    }

    #[test]
    fn split_budget_never_starves_a_share() {
        assert_eq!(split_budget(8, 1), 8);
        assert_eq!(split_budget(8, 2), 4);
        assert_eq!(split_budget(8, 3), 2);
        assert_eq!(split_budget(2, 8), 1);
        assert_eq!(split_budget(0, 0), 1);
    }

    #[test]
    fn parallel_chunks_fan_out_small_heavy_inputs() {
        // 4 items is below the default threshold but above an explicit one.
        let items = [10u32, 20, 30, 40];
        for workers in [1, 2, 8] {
            let chunks = parallel_chunks(&items, workers, 2, |_, s| s.len());
            assert_eq!(chunks.len(), workers.min(items.len()), "workers={workers}");
            assert_eq!(
                chunked_map(&items, workers, 2, |i, v| v + i as u32),
                vec![10, 21, 32, 43],
                "workers={workers}"
            );
        }
    }

    #[test]
    fn parallel_chunks_cover_items_in_order_with_offsets() {
        let items: Vec<u32> = (0..100).collect();
        for workers in [1, 2, 3, 8] {
            let chunks =
                parallel_chunks(&items, workers, 2, |start, slice| (start, slice.to_vec()));
            // Chunks are contiguous, ordered, and cover every item once.
            let mut rebuilt = Vec::new();
            for (start, slice) in &chunks {
                assert_eq!(*start, rebuilt.len());
                rebuilt.extend_from_slice(slice);
            }
            assert_eq!(rebuilt, items, "workers={workers}");
        }
    }

    #[test]
    fn parallel_chunks_stateful_pins_states_and_covers_items() {
        let items: Vec<u32> = (0..100).collect();
        for nstates in [1usize, 2, 3, 8] {
            // Each state counts the items its chunk saw, twice over, so the
            // second call must land on already-warm (non-zero) counters.
            let mut states = vec![0u64; nstates];
            for round in 1..=2u64 {
                let chunks =
                    parallel_chunks_stateful(&items, &mut states, 2, |start, state, slice| {
                        *state += slice.len() as u64;
                        (start, slice.to_vec())
                    });
                let mut rebuilt = Vec::new();
                for (start, slice) in &chunks {
                    assert_eq!(*start, rebuilt.len());
                    rebuilt.extend_from_slice(slice);
                }
                assert_eq!(rebuilt, items, "states={nstates}");
                let total: u64 = states.iter().sum();
                assert_eq!(total, round * items.len() as u64, "states={nstates}");
            }
        }
        // Below the serial threshold everything runs inline on states[0].
        let mut states = vec![0u64; 4];
        let out = parallel_chunks_stateful(&[7u32], &mut states, 2, |start, state, slice| {
            *state += 1;
            (start, slice.len())
        });
        assert_eq!(out, vec![(0, 1)]);
        assert_eq!(states, vec![1, 0, 0, 0]);
    }

    proptest! {
        #[test]
        fn parallel_chunks_stateful_matches_parallel_chunks(
            len in 0usize..40,
            nstates in 1usize..12,
            min_items in 0usize..12,
        ) {
            let items: Vec<u64> = (0..len as u64).collect();
            let plain = parallel_chunks(&items, nstates, min_items, |start, slice| {
                (start, slice.to_vec())
            });
            let mut states = vec![(); nstates];
            let stateful =
                parallel_chunks_stateful(&items, &mut states, min_items, |start, _, slice| {
                    (start, slice.to_vec())
                });
            prop_assert_eq!(stateful, plain);
        }
    }

    #[test]
    fn lookup_backward_many_fan_out_is_deterministic_in_input_order() {
        // The batched lookup paths fan queries and scan joins across these
        // helpers; whatever the worker count, the outcomes must come back in
        // input order with identical contents — for an indexed strategy
        // (per-worker shards with their own caches) and for a
        // mismatched-direction strategy (shared scan, parallel join).
        use crate::datastore::OpDatastore;
        use crate::model::StorageStrategy;
        use subzero_array::{CellSet, Coord, Shape};
        use subzero_engine::{OpMeta, RegionPair};

        struct NoopOp;
        impl subzero_engine::Operator for NoopOp {
            fn name(&self) -> &str {
                "noop"
            }
            fn output_shape(&self, input_shapes: &[Shape]) -> Shape {
                input_shapes[0]
            }
            fn run(
                &self,
                inputs: &[subzero_array::ArrayRef],
                _m: &[subzero_engine::LineageMode],
                _s: &mut dyn subzero_engine::LineageSink,
            ) -> subzero_array::Array {
                (*inputs[0]).clone()
            }
        }

        let shape = Shape::d2(16, 16);
        let meta = OpMeta::new(vec![shape], shape);
        let pairs: Vec<RegionPair> = (0..16u32)
            .map(|i| RegionPair::Full {
                outcells: vec![Coord::d2(i % 16, i / 4)],
                incells: vec![vec![Coord::d2(15 - i % 16, i % 4)]],
            })
            .collect();
        let queries: Vec<CellSet> = (0..6u32)
            .map(|i| {
                CellSet::from_coords(
                    shape,
                    [Coord::d2(i, 0), Coord::d2(i + 1, 1), Coord::d2(0, 0)],
                )
            })
            .collect();
        let refs: Vec<&CellSet> = queries.iter().collect();

        for strategy in [
            StorageStrategy::full_one(),
            StorageStrategy::full_one_forward(), // backward query => scan
        ] {
            let mut reference: Option<Vec<Vec<Coord>>> = None;
            for workers in [1usize, 2, 8] {
                let mut ds = OpDatastore::in_memory("t", strategy, &meta);
                ds.store_batch(&pairs, workers);
                ds.set_workers(workers);
                let outs = ds.lookup_backward_many(&refs, 0, &NoopOp, &meta);
                assert_eq!(outs.len(), refs.len());
                let results: Vec<Vec<Coord>> = outs.iter().map(|o| o.result.to_coords()).collect();
                // Query i's outcome sits at position i: its covered cells
                // are a subset of exactly that query's cells.
                for (out, q) in outs.iter().zip(&queries) {
                    for c in out.covered.to_coords() {
                        assert!(q.contains(&c), "outcome out of input order");
                    }
                }
                match &reference {
                    None => reference = Some(results),
                    Some(expected) => assert_eq!(
                        &results, expected,
                        "{strategy} results differ at workers={workers}"
                    ),
                }
            }
        }
    }
}
