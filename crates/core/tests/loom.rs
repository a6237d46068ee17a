//! Exhaustive concurrency model checking of the capture and parallel
//! runtimes (build with `RUSTFLAGS="--cfg loom" cargo test -p subzero --test
//! loom`).
//!
//! Each test body runs under [`loom::model`], which executes it once per
//! *schedule*: every interleaving of the participating threads at mutex,
//! condvar and atomic granularity is explored, so an assertion here holds
//! under every ordering the sync API admits — not just the ones the host
//! scheduler happens to produce.  The production code is untouched: it
//! imports its primitives from `subzero::sync`, which under `--cfg loom`
//! resolves to the model-checking shim these tests drive.
//!
//! The shim has no partial-order reduction, so bodies are deliberately
//! small (2–3 threads, a handful of staged items); test-harness
//! instrumentation (result vectors, counters) uses plain `std` primitives
//! on purpose — the scheduler serializes model threads, so they are never
//! contended and add no scheduling points of their own.

#![cfg(loom)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex as StdMutex;

use subzero::capture::{flusher_loop, BoundedQueue, Job, OverflowPolicy, Shard, ShardState};
use subzero::sync::thread;
use subzero::sync::{lock_or_recover, Arc, Mutex};
use subzero_engine::executor::CaptureError;

// ---------------------------------------------------------------------------
// BoundedQueue
// ---------------------------------------------------------------------------

#[test]
fn queue_is_fifo_under_every_schedule() {
    loom::model(|| {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(2, OverflowPolicy::Block));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..3 {
                    assert!(q.push(i).unwrap(), "Block policy never sheds");
                }
            })
        };
        let mut received = Vec::new();
        for _ in 0..3 {
            received.push(q.pop().expect("queue is not closed"));
            q.task_done();
        }
        producer.join().unwrap();
        assert_eq!(received, vec![0, 1, 2], "FIFO order violated");
        assert_eq!(q.dropped(), 0);
    });
}

#[test]
fn block_policy_backpressures_instead_of_dropping() {
    loom::model(|| {
        // Depth 1 forces the producer through the blocking wait for every
        // schedule in which it outruns the consumer.
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1, OverflowPolicy::Block));
        let received = Arc::new(StdMutex::new(Vec::new()));
        let consumer = {
            let q = Arc::clone(&q);
            let received = Arc::clone(&received);
            thread::spawn(move || {
                while let Some(v) = q.pop() {
                    received.lock().unwrap().push(v);
                    q.task_done();
                }
            })
        };
        for i in 0..3 {
            assert!(q.push(i).unwrap());
        }
        q.close();
        consumer.join().unwrap();
        assert_eq!(*received.lock().unwrap(), vec![0, 1, 2]);
        assert_eq!(q.dropped(), 0, "Block policy must never shed");
    });
}

#[test]
fn drop_newest_sheds_exactly_the_overflow() {
    loom::model(|| {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1, OverflowPolicy::DropNewest));
        let received = Arc::new(StdMutex::new(Vec::new()));
        let consumer = {
            let q = Arc::clone(&q);
            let received = Arc::clone(&received);
            thread::spawn(move || {
                while let Some(v) = q.pop() {
                    received.lock().unwrap().push(v);
                    q.task_done();
                }
            })
        };
        let mut accepted = 0u64;
        for i in 0..3 {
            if q.push(i).unwrap() {
                accepted += 1;
            }
        }
        q.close();
        consumer.join().unwrap();
        let received = received.lock().unwrap();
        // Accounting: every batch is either delivered or counted as shed.
        assert_eq!(
            received.len() as u64,
            accepted,
            "accepted batches are delivered"
        );
        assert_eq!(accepted + q.dropped(), 3, "shed batches are counted");
        // Whatever was shed, what survives is still in emission order.
        assert!(
            received.windows(2).all(|w| w[0] < w[1]),
            "order violated: {received:?}"
        );
    });
}

#[test]
fn fail_wakes_blocked_producer_with_error() {
    loom::model(|| {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1, OverflowPolicy::Block));
        assert!(q.push(0).unwrap());
        let failer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.fail())
        };
        // The queue is full and nothing ever pops: only fail() can release
        // this push.  In schedules where fail() lands first the push errors
        // immediately; in the rest it blocks and must be woken.  Either way
        // it returns an error rather than hanging (a hang is reported by the
        // model as a deadlock).
        assert!(
            q.push(1).is_err(),
            "blocked producer must error after fail()"
        );
        failer.join().unwrap();
        assert!(q.is_failed());
    });
}

#[test]
fn close_drains_staged_items_before_none() {
    loom::model(|| {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4, OverflowPolicy::Block));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                    q.task_done();
                }
                got
            })
        };
        assert!(q.push(0).unwrap());
        assert!(q.push(1).unwrap());
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![0, 1], "close() must drain staged items in order");
        assert!(q.push(2).is_err(), "push after close errors");
    });
}

#[test]
fn wait_idle_covers_in_flight_items() {
    loom::model(|| {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4, OverflowPolicy::Block));
        let done = Arc::new(AtomicUsize::new(0));
        let consumer = {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                while let Some(_v) = q.pop() {
                    // The window between pop() and task_done() is exactly
                    // what wait_idle() must not miss.
                    done.fetch_add(1, Ordering::SeqCst);
                    q.task_done();
                }
            })
        };
        q.push(0).unwrap();
        q.push(1).unwrap();
        q.wait_idle();
        assert_eq!(
            done.load(Ordering::SeqCst),
            2,
            "wait_idle returned while items were staged or in flight"
        );
        q.close();
        consumer.join().unwrap();
    });
}

// ---------------------------------------------------------------------------
// Shard sequencing + the real flusher loop
// ---------------------------------------------------------------------------

/// Stages `seqs` as jobs of one shard, runs `flushers` copies of the real
/// [`flusher_loop`] over them (applying `record`), and returns
/// `(applied-in-order, recorded error)`.
fn run_flushers(
    seqs: &[u64],
    flushers: usize,
    record: impl Fn(u64, &StdMutex<Vec<u64>>) + Sync + Send + Clone + 'static,
) -> (Vec<u64>, Option<CaptureError>) {
    let shard = Arc::new(Shard::new(Vec::new()));
    let queue: Arc<BoundedQueue<Job<u64>>> =
        Arc::new(BoundedQueue::new(seqs.len().max(1), OverflowPolicy::Block));
    let error = Arc::new(Mutex::new(None));
    let applied = Arc::new(StdMutex::new(Vec::new()));
    // Stage everything up front: the interesting concurrency is flushers
    // racing each other through wait_turn/advance, not the staging.
    for &seq in seqs {
        queue
            .push(Job {
                shard: Arc::clone(&shard),
                seq,
                batch: seq,
            })
            .unwrap();
    }
    queue.close();
    let handles: Vec<_> = (0..flushers)
        .map(|_| {
            let queue = Arc::clone(&queue);
            let error = Arc::clone(&error);
            let applied = Arc::clone(&applied);
            let record = record.clone();
            thread::spawn(move || {
                flusher_loop(&queue, &error, |_state: &mut ShardState, batch: &u64| {
                    record(*batch, &applied);
                });
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let applied = applied.lock().unwrap().clone();
    let error = lock_or_recover(&error).clone();
    (applied, error)
}

#[test]
fn flushers_apply_shard_batches_in_seq_order() {
    loom::model(|| {
        // Two flushers race over two batches of one shard: whichever pops
        // seq 1 first must wait until seq 0 has been applied.
        let (applied, error) = run_flushers(&[0, 1], 2, |seq, applied| {
            applied.lock().unwrap().push(seq);
        });
        assert_eq!(applied, vec![0, 1], "batches applied out of order");
        assert!(error.is_none());
    });
}

#[test]
fn abandoned_head_seq_never_stalls_successors() {
    loom::model(|| {
        // Seq 0 was shed by the producer; only seq 1 is staged.  The
        // abandon() races the flusher's wait_turn(1): in every schedule the
        // flusher must still apply seq 1 (a stall is a model deadlock).
        let shard = Arc::new(Shard::new(Vec::new()));
        let queue: Arc<BoundedQueue<Job<u64>>> =
            Arc::new(BoundedQueue::new(1, OverflowPolicy::Block));
        let error = Arc::new(Mutex::new(None));
        let applied = Arc::new(StdMutex::new(Vec::new()));
        queue
            .push(Job {
                shard: Arc::clone(&shard),
                seq: 1,
                batch: 1u64,
            })
            .unwrap();
        queue.close();
        let flusher = {
            let queue = Arc::clone(&queue);
            let error = Arc::clone(&error);
            let applied = Arc::clone(&applied);
            thread::spawn(move || {
                flusher_loop(&queue, &error, |_state: &mut ShardState, batch: &u64| {
                    applied.lock().unwrap().push(*batch);
                });
            })
        };
        shard.abandon(0);
        flusher.join().unwrap();
        assert_eq!(*applied.lock().unwrap(), vec![1]);
    });
}

#[test]
fn abandoned_future_seq_is_skipped_when_reached() {
    loom::model(|| {
        // Seqs 0 and 2 are staged; seq 1 was shed.  abandon(1) races the
        // flusher applying seq 0: whether the abandon lands before or after
        // the sequence reaches 1, seq 2 must still be applied.
        let shard = Arc::new(Shard::new(Vec::new()));
        let queue: Arc<BoundedQueue<Job<u64>>> =
            Arc::new(BoundedQueue::new(2, OverflowPolicy::Block));
        let error = Arc::new(Mutex::new(None));
        let applied = Arc::new(StdMutex::new(Vec::new()));
        for seq in [0u64, 2] {
            queue
                .push(Job {
                    shard: Arc::clone(&shard),
                    seq,
                    batch: seq,
                })
                .unwrap();
        }
        queue.close();
        let flusher = {
            let queue = Arc::clone(&queue);
            let error = Arc::clone(&error);
            let applied = Arc::clone(&applied);
            thread::spawn(move || {
                flusher_loop(&queue, &error, |_state: &mut ShardState, batch: &u64| {
                    applied.lock().unwrap().push(*batch);
                });
            })
        };
        shard.abandon(1);
        flusher.join().unwrap();
        assert_eq!(*applied.lock().unwrap(), vec![0, 2]);
    });
}

#[test]
fn flusher_panic_fails_queue_and_records_error() {
    loom::model(|| {
        // The first batch's apply panics.  The real loop must catch it,
        // record the error, fail the queue, fast-drain the second batch
        // without applying it, and leave wait_idle() releasable.
        let shard = Arc::new(Shard::new(Vec::new()));
        let queue: Arc<BoundedQueue<Job<u64>>> =
            Arc::new(BoundedQueue::new(2, OverflowPolicy::Block));
        let error = Arc::new(Mutex::new(None));
        let applied = Arc::new(StdMutex::new(Vec::new()));
        for seq in [0u64, 1] {
            queue
                .push(Job {
                    shard: Arc::clone(&shard),
                    seq,
                    batch: seq,
                })
                .unwrap();
        }
        queue.close();
        let flusher = {
            let queue = Arc::clone(&queue);
            let error = Arc::clone(&error);
            let applied = Arc::clone(&applied);
            thread::spawn(move || {
                flusher_loop(&queue, &error, |_state: &mut ShardState, batch: &u64| {
                    if *batch == 0 {
                        panic!("injected store failure");
                    }
                    applied.lock().unwrap().push(*batch);
                });
            })
        };
        queue.wait_idle();
        flusher.join().unwrap();
        assert!(queue.is_failed(), "a flusher panic must fail the queue");
        let recorded = lock_or_recover(&error).clone();
        let msg = format!("{}", recorded.expect("panic must be recorded"));
        assert!(
            msg.contains("injected store failure"),
            "lost panic message: {msg}"
        );
        assert!(
            applied.lock().unwrap().is_empty(),
            "batches after a failure must fast-drain, not apply"
        );
    });
}

// ---------------------------------------------------------------------------
// parallel helpers
// ---------------------------------------------------------------------------

#[test]
fn parallel_map_preserves_order_under_every_schedule() {
    loom::model(|| {
        let items = [10u32, 20, 30];
        let chunks = subzero::parallel::parallel_chunks(&items, 2, 2, |start, slice| {
            slice
                .iter()
                .enumerate()
                .map(|(i, &v)| v + (start + i) as u32)
                .collect::<Vec<u32>>()
        });
        assert_eq!(
            chunks.concat(),
            vec![10, 21, 32],
            "fan-out reordered results"
        );
    });
}

#[test]
fn for_each_mut_runs_each_item_exactly_once() {
    loom::model(|| {
        let mut items = vec![0u64; 3];
        subzero::parallel::for_each_mut(&mut items, true, |i, v| *v += i as u64 + 1);
        assert_eq!(items, vec![1, 2, 3]);
    });
}
