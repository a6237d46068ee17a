//! The asynchronous capture pipeline.
//!
//! Synchronous capture runs `OpDatastore::store_batch` on the executor
//! thread, so operator wall-clock includes encode + kv-table time.  This
//! module moves that work off the executor: the runtime hands completed
//! [`RegionBatch`]es to a bounded multi-producer queue ([`BoundedQueue`]) and
//! a pool of background flusher threads (the capture pipeline) drains them
//! into the per-operator datastore shards through the existing arena
//! `store_batch` path.
//!
//! Guarantees:
//!
//! * **Byte parity with sync capture.**  Batches of one `(run, operator)`
//!   shard are applied in emission order — each job carries a per-shard
//!   sequence number and flushers wait their turn on the shard — so the
//!   datastore contents are identical to [`CaptureMode::Sync`] at any queue
//!   depth and flusher count.
//! * **Backpressure, not loss.**  With the default [`OverflowPolicy::Block`]
//!   a full queue blocks the producer until a flusher frees a slot; batches
//!   are never dropped.  [`OverflowPolicy::DropNewest`] is available for
//!   load-shedding deployments that prefer losing lineage (a recoverable
//!   cache) over stalling the workflow; drops are counted.
//! * **Errors surface, hangs don't.**  A flusher panic is caught, recorded,
//!   and the queue is failed: blocked producers wake up with the error, the
//!   remaining jobs fast-drain without storing, and the runtime returns the
//!   error from the next engine call ([`CaptureError`]) instead of deadlocking.
//! * **Drain on shutdown.**  Dropping the pipeline closes the queue, lets the
//!   flushers finish every staged batch, and joins them — nothing staged is
//!   lost on a clean shutdown.
//!
//! Every primitive below comes from [`crate::sync`] (never `std::sync`
//! directly, enforced by `cargo xtask lint`): under `--cfg loom` the same
//! code runs against the model-checking shim and `tests/loom.rs` explores
//! every interleaving of the queue, the shard sequencing and the failure
//! paths.  Types marked `#[doc(hidden)]` are exposed for that suite only.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::sync::thread::JoinHandle;
use crate::sync::{lock_or_recover, wait_or_recover, Arc, Condvar, Mutex, MutexGuard};

use subzero_engine::executor::CaptureError;
use subzero_engine::RegionBatch;

use crate::datastore::OpDatastore;

/// How captured batches reach the datastores.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum CaptureMode {
    /// Encode and store on the executor thread (the parity reference):
    /// operator wall-clock includes capture time.
    #[default]
    Sync,
    /// Hand completed batches to the bounded capture queue and return;
    /// background flusher threads encode and store them.
    Async,
}

/// What a full capture queue does with the next batch.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Block the producer until a slot frees up (the default): capture is
    /// lossless and byte-identical to sync capture.
    #[default]
    Block,
    /// Drop the incoming batch and count it.  Lineage is a recoverable
    /// cache, so deployments that must never stall the workflow can shed
    /// load here — at the price of *holes* in stored lineage: queries
    /// against an affected operator answer from what was stored and will
    /// silently miss the shed regions.  Callers are responsible for auditing
    /// [`Runtime::dropped_batches`](crate::runtime::Runtime::dropped_batches)
    /// after a run and discarding (or re-capturing) runs that shed — a
    /// per-region fallback to mapping functions/re-execution for the holes
    /// is a roadmap item, not current behaviour.
    DropNewest,
}

/// Configuration of the async capture pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Maximum number of batches staged in the queue (clamped to >= 1).
    /// Deeper queues decouple the executor from slow flushers at the cost of
    /// staging memory (one [`RegionBatch`] per slot).
    pub queue_depth: usize,
    /// Number of background flusher threads (clamped to >= 1).  Shards are
    /// independent, so flushers scale until datastore work runs out — one or
    /// two per storage backend device is usually enough.
    pub flushers: usize,
    /// What to do when the queue is full.
    pub policy: OverflowPolicy,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            queue_depth: 64,
            flushers: 2,
            policy: OverflowPolicy::Block,
        }
    }
}

impl CaptureConfig {
    fn clamped(self) -> Self {
        CaptureConfig {
            queue_depth: self.queue_depth.max(1),
            flushers: self.flushers.max(1),
            policy: self.policy,
        }
    }
}

/// One `(run, operator)` capture shard: the datastores owned by the flusher
/// side while the pipeline is running, plus the in-order application state.
///
/// Sequencing state and datastore state live under *separate* mutexes: the
/// sequence gate is only ever held for bookkeeping (never across a store),
/// so the producer's shed path and waiting flushers are never blocked behind
/// an in-progress `store_batch` — only the flusher whose turn it is touches
/// `state`, and sequencing guarantees that flusher exclusive access.
#[doc(hidden)]
pub struct Shard {
    seq: Mutex<SeqState>,
    applied: Condvar,
    state: Mutex<ShardState>,
}

/// In-order application bookkeeping (held briefly, never across a store).
struct SeqState {
    /// Sequence number handed to the next submitted batch.  Lives on the
    /// shard (not derived from any one `collect_batches` call) so repeated
    /// collections for the same `(run, operator)` continue the sequence
    /// instead of colliding with already-applied numbers.
    next_ticket: u64,
    /// Sequence number of the next batch to apply; jobs wait until their
    /// number comes up so shard contents are order-identical to sync capture.
    next_seq: u64,
    /// Sequence numbers shed under [`OverflowPolicy::DropNewest`] while
    /// predecessors were still pending; skipped over as the sequence reaches
    /// them so successors never stall behind a batch that will not arrive.
    skipped: Vec<u64>,
}

#[doc(hidden)]
pub struct ShardState {
    /// One datastore per pair-storing strategy of the operator.
    pub(crate) stores: Vec<OpDatastore>,
    /// Flusher-side time spent storing into this shard (charged back to the
    /// operator's capture statistics when the shard is harvested).
    pub(crate) flush_time: Duration,
}

impl SeqState {
    /// Advances the sequence past `applied_seq` and any directly following
    /// shed batches.
    fn advance_from(&mut self, applied_seq: u64) {
        self.next_seq = applied_seq + 1;
        while let Some(idx) = self.skipped.iter().position(|&s| s == self.next_seq) {
            self.skipped.swap_remove(idx);
            self.next_seq += 1;
        }
    }
}

impl Shard {
    #[doc(hidden)]
    pub fn new(stores: Vec<OpDatastore>) -> Self {
        Shard {
            seq: Mutex::new(SeqState {
                next_ticket: 0,
                next_seq: 0,
                skipped: Vec::new(),
            }),
            applied: Condvar::new(),
            state: Mutex::new(ShardState {
                stores,
                flush_time: Duration::ZERO,
            }),
        }
    }

    /// Locks the sequencing gate, recovering from poisoning (nothing panics
    /// while holding it, but harvest-after-failure must stay usable
    /// regardless).
    fn lock_seq(&self) -> MutexGuard<'_, SeqState> {
        lock_or_recover(&self.seq)
    }

    /// Takes the sequence number for the next submitted batch.
    #[doc(hidden)]
    pub fn ticket(&self) -> u64 {
        let mut gate = self.lock_seq();
        let ticket = gate.next_ticket;
        gate.next_ticket += 1;
        ticket
    }

    /// Locks the datastore state, recovering from poisoning: flusher panics
    /// are caught before they can unwind across this mutex, and
    /// harvest-after-failure must still be able to read statistics.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ShardState> {
        lock_or_recover(&self.state)
    }

    /// Blocks until `seq` is the next batch to apply (on failure the failing
    /// flusher still advances, so this cannot hang).
    fn wait_turn(&self, seq: u64) {
        let mut gate = self.lock_seq();
        while gate.next_seq != seq {
            gate = wait_or_recover(&self.applied, gate);
        }
    }

    /// Marks `seq` applied (or abandoned) and wakes waiters for successors.
    fn advance(&self, seq: u64) {
        let mut gate = self.lock_seq();
        gate.advance_from(seq);
        drop(gate);
        self.applied.notify_all();
    }

    /// Marks a shed batch's sequence number as never-arriving so successors
    /// don't stall behind it.  If it is the current head, advance past it
    /// (and past any shed batches queued up right behind it); otherwise
    /// record it so the flusher that applies its predecessor skips over it.
    /// Only the sequencing gate is taken — never the datastore mutex — so a
    /// shedding producer cannot stall behind an in-progress store.
    #[doc(hidden)]
    pub fn abandon(&self, seq: u64) {
        let mut gate = self.lock_seq();
        if gate.next_seq == seq {
            gate.advance_from(seq);
            drop(gate);
            self.applied.notify_all();
        } else {
            gate.skipped.push(seq);
        }
    }
}

/// One staged unit of flusher work: apply `batch` as the `seq`'th batch of
/// `shard`.  Generic over the batch payload so the loom suite can drive the
/// real flusher loop with trivial (or panic-injecting) payloads; the
/// pipeline itself always uses [`RegionBatch`].
#[doc(hidden)]
pub struct Job<B> {
    pub shard: Arc<Shard>,
    pub seq: u64,
    pub batch: B,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    /// Jobs popped but not yet completed by a flusher.
    in_flight: usize,
    /// Batches dropped under [`OverflowPolicy::DropNewest`].
    dropped: u64,
    /// No further pushes; flushers exit once the queue is empty.
    closed: bool,
    /// A flusher failed: pushes error out, waiting producers wake up, and
    /// remaining jobs fast-drain without storing.
    failed: bool,
}

/// A bounded multi-producer / multi-consumer FIFO with blocking push,
/// blocking pop, failure propagation and an idle barrier.
///
/// This is the hand-off between the executor thread and the capture flusher
/// pool, kept separate so backpressure semantics are testable in isolation.
pub struct BoundedQueue<T> {
    depth: usize,
    policy: OverflowPolicy,
    inner: Mutex<QueueInner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    idle: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `depth` items (clamped to >= 1).
    pub fn new(depth: usize, policy: OverflowPolicy) -> Self {
        BoundedQueue {
            depth: depth.max(1),
            policy,
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                in_flight: 0,
                dropped: 0,
                closed: false,
                failed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner<T>> {
        lock_or_recover(&self.inner)
    }

    /// Stages one item, blocking while the queue is full (under
    /// [`OverflowPolicy::Block`]).  Returns `Ok(true)` when the item was
    /// accepted, `Ok(false)` when it was shed under
    /// [`OverflowPolicy::DropNewest`], and `Err` when the queue has failed or
    /// been closed.
    pub fn push(&self, item: T) -> Result<bool, CaptureError> {
        self.push_with_policy(item, self.policy)
    }

    /// [`push`](BoundedQueue::push) with an explicit overflow policy for this
    /// one item, overriding the queue's configured policy.  The lineage
    /// server uses this to keep query admission lossless
    /// ([`OverflowPolicy::Block`]) on queues whose ingest side is configured
    /// to shed ([`OverflowPolicy::DropNewest`]).
    pub fn push_with_policy(&self, item: T, policy: OverflowPolicy) -> Result<bool, CaptureError> {
        let mut inner = self.lock();
        loop {
            if inner.failed {
                return Err(CaptureError::new("capture queue failed"));
            }
            if inner.closed {
                return Err(CaptureError::new("capture queue closed"));
            }
            if inner.items.len() < self.depth {
                inner.items.push_back(item);
                drop(inner);
                self.not_empty.notify_one();
                return Ok(true);
            }
            match policy {
                OverflowPolicy::Block => {
                    inner = wait_or_recover(&self.not_full, inner);
                }
                OverflowPolicy::DropNewest => {
                    inner.dropped += 1;
                    return Ok(false);
                }
            }
        }
    }

    /// Takes the next item, blocking while the queue is empty.  Returns
    /// `None` once the queue is closed and drained; consumers must pair every
    /// `Some` with a later [`task_done`](BoundedQueue::task_done).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                inner.in_flight += 1;
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = wait_or_recover(&self.not_empty, inner);
        }
    }

    /// Takes the next item without blocking.  Returns `None` when the queue
    /// is currently empty (regardless of open/closed state); like
    /// [`pop`](BoundedQueue::pop), every `Some` must be paired with a later
    /// [`task_done`](BoundedQueue::task_done).  The lineage server's
    /// round-robin scheduler uses this to sweep many per-client queues
    /// without parking on any one of them.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.lock();
        let item = inner.items.pop_front()?;
        inner.in_flight += 1;
        drop(inner);
        self.not_full.notify_one();
        Some(item)
    }

    /// Whether the queue has been closed (items may still be draining).
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Marks one popped item as fully processed (successfully or not).
    pub fn task_done(&self) {
        let mut inner = self.lock();
        inner.in_flight = inner.in_flight.saturating_sub(1);
        if inner.in_flight == 0 && inner.items.is_empty() {
            self.idle.notify_all();
        }
    }

    /// Blocks until every staged item has been popped *and* completed.
    pub fn wait_idle(&self) {
        let mut inner = self.lock();
        while !(inner.items.is_empty() && inner.in_flight == 0) {
            inner = wait_or_recover(&self.idle, inner);
        }
    }

    /// Fails the queue: producers blocked in [`push`](BoundedQueue::push)
    /// wake up with an error and all future pushes error out.  Already-staged
    /// items remain poppable so consumers can fast-drain them.
    pub fn fail(&self) {
        let mut inner = self.lock();
        inner.failed = true;
        drop(inner);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Whether [`fail`](BoundedQueue::fail) has been called.
    pub fn is_failed(&self) -> bool {
        self.lock().failed
    }

    /// Closes the queue: no further pushes; consumers drain the remaining
    /// items and then see `None`.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of batches shed under [`OverflowPolicy::DropNewest`].
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Number of staged items not yet popped (for tests and introspection).
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether no items are staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The background flusher pool: owns the queue and the worker threads that
/// drain it into the capture shards.
pub(crate) struct CapturePipeline {
    queue: Arc<BoundedQueue<Job<RegionBatch>>>,
    error: Arc<Mutex<Option<CaptureError>>>,
    handles: Vec<JoinHandle<()>>,
}

impl CapturePipeline {
    /// Starts `config.flushers` background threads draining a queue of
    /// `config.queue_depth` slots.  Each flusher gives `store_workers`
    /// threads to `store_batch` (the runtime splits its worker budget across
    /// the pool so flushers don't oversubscribe the host).
    pub(crate) fn start(config: CaptureConfig, store_workers: usize) -> Self {
        let config = config.clamped();
        let queue = Arc::new(BoundedQueue::new(config.queue_depth, config.policy));
        let error = Arc::new(Mutex::new(None));
        let handles = (0..config.flushers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let error = Arc::clone(&error);
                let workers = store_workers.max(1);
                crate::sync::thread::Builder::new()
                    .name(format!("subzero-capture-flusher-{i}"))
                    .spawn(move || {
                        flusher_loop(&queue, &error, |state, batch: &RegionBatch| {
                            for ds in state.stores.iter_mut() {
                                ds.store_batch(&batch.pairs, workers);
                            }
                        })
                    })
                    .expect("spawn capture flusher thread")
            })
            .collect();
        CapturePipeline {
            queue,
            error,
            handles,
        }
    }

    /// Stages one batch as the `seq`'th of `shard`, blocking on a full queue
    /// under [`OverflowPolicy::Block`].  A dropped batch (under
    /// [`OverflowPolicy::DropNewest`]) still consumes its sequence number so
    /// later batches of the shard don't stall; the shard is told to skip it.
    pub(crate) fn submit(
        &self,
        shard: &Arc<Shard>,
        seq: u64,
        batch: RegionBatch,
    ) -> Result<(), CaptureError> {
        let accepted = self
            .queue
            .push(Job {
                shard: Arc::clone(shard),
                seq,
                batch,
            })
            .map_err(|_| self.error_or_generic())?;
        if !accepted {
            // Shed batch: its sequence number must not stall successors.
            shard.abandon(seq);
        }
        Ok(())
    }

    /// Barrier: blocks until every staged batch has been applied (or
    /// fast-drained after a failure), then reports any recorded flusher
    /// error.
    pub(crate) fn flush(&self) -> Result<(), CaptureError> {
        self.queue.wait_idle();
        match self.take_error() {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// The first recorded flusher error, if any (left in place so later
    /// calls see it too).
    pub(crate) fn take_error(&self) -> Option<CaptureError> {
        lock_or_recover(&self.error).clone()
    }

    /// Number of batches shed under [`OverflowPolicy::DropNewest`].
    pub(crate) fn dropped_batches(&self) -> u64 {
        self.queue.dropped()
    }

    fn error_or_generic(&self) -> CaptureError {
        self.take_error()
            .unwrap_or_else(|| CaptureError::new("capture pipeline unavailable"))
    }
}

impl Drop for CapturePipeline {
    /// Drain-on-shutdown: close the queue, let the flushers apply everything
    /// still staged, and join them.  On-disk shards therefore reach their
    /// files even when the runtime is dropped without an explicit flush.
    fn drop(&mut self) {
        self.queue.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Body of one flusher thread: pop, wait for the shard's turn, apply, bump
/// the shard sequence, repeat.  Panics from `apply` (normally `store_batch`)
/// are caught *inside* the datastore critical section (so the mutex is never
/// poisoned mid-update), recorded, and fail the queue.
///
/// Generic over the batch payload and apply function so `tests/loom.rs` can
/// model-check this exact loop — including the panic path — without real
/// datastores.
#[doc(hidden)]
pub fn flusher_loop<B, F>(
    queue: &BoundedQueue<Job<B>>,
    error: &Mutex<Option<CaptureError>>,
    apply: F,
) where
    F: Fn(&mut ShardState, &B),
{
    while let Some(job) = queue.pop() {
        // Predecessor batches were popped by other flushers (the queue is
        // FIFO); wait until they have been applied.  On failure the failing
        // flusher still advances the gate, so this cannot hang.
        job.shard.wait_turn(job.seq);
        if !queue.is_failed() {
            // Sequencing admits exactly one flusher per shard at a time, so
            // this lock is uncontended by other flushers; it exists so
            // harvest and the pending-shard statistics reads stay safe.
            let mut state = job.shard.lock();
            let start = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                apply(&mut state, &job.batch);
            }));
            match outcome {
                Ok(()) => state.flush_time += start.elapsed(),
                Err(panic) => {
                    // `panic.as_ref()`, not `&panic`: coercing `&Box<dyn
                    // Any>` unsizes the *box* into the trait object and every
                    // downcast of the payload inside would miss.
                    let msg = panic_message(panic.as_ref());
                    let mut slot = lock_or_recover(error);
                    slot.get_or_insert(CaptureError::new(format!(
                        "capture flusher panicked while storing a batch: {msg}"
                    )));
                    drop(slot);
                    queue.fail();
                }
            }
        }
        job.shard.advance(job.seq);
        queue.task_done();
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn queue_is_fifo_and_bounded() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4, OverflowPolicy::Block);
        for i in 0..4 {
            assert!(q.push(i).unwrap());
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
            q.task_done();
        }
        assert!(q.is_empty());
        q.close();
        assert_eq!(q.pop(), None);
        assert!(q.push(9).is_err(), "push after close errors");
    }

    #[test]
    fn blocking_push_waits_for_slow_consumer_without_dropping() {
        // The backpressure contract of the ISSUE: a slow flusher with a
        // depth-1 queue must block (not drop) producer batches.
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1, OverflowPolicy::Block));
        let received = Arc::new(Mutex::new(Vec::new()));
        let consumer = {
            let q = Arc::clone(&q);
            let received = Arc::clone(&received);
            std::thread::spawn(move || {
                while let Some(v) = q.pop() {
                    // Slow flusher: hold the single slot hostage for a while.
                    std::thread::sleep(Duration::from_millis(20));
                    received.lock().unwrap().push(v);
                    q.task_done();
                }
            })
        };
        let start = Instant::now();
        for i in 0..5 {
            assert!(q.push(i).unwrap(), "Block policy never sheds");
            assert!(q.len() <= 1, "queue never exceeds its depth");
        }
        // Pushing 5 items through a depth-1 queue with a 20ms consumer must
        // have blocked the producer for several consumer cycles.
        assert!(
            start.elapsed() >= Duration::from_millis(60),
            "producer was not backpressured: {:?}",
            start.elapsed()
        );
        q.wait_idle();
        q.close();
        consumer.join().unwrap();
        assert_eq!(*received.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn drop_newest_policy_sheds_and_counts() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2, OverflowPolicy::DropNewest);
        assert!(q.push(1).unwrap());
        assert!(q.push(2).unwrap());
        assert!(!q.push(3).unwrap(), "full queue sheds under DropNewest");
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.pop(), Some(1));
        q.task_done();
        assert!(q.push(4).unwrap(), "slot freed, accepted again");
    }

    #[test]
    fn failed_queue_wakes_blocked_producer_with_error() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1, OverflowPolicy::Block));
        assert!(q.push(0).unwrap());
        let failer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                q.fail();
            })
        };
        // This push blocks on the full queue until fail() wakes it.
        assert!(q.push(1).is_err(), "blocked producer must error, not hang");
        failer.join().unwrap();
        assert!(q.is_failed());
    }

    #[test]
    fn wait_idle_covers_in_flight_items() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(8, OverflowPolicy::Block));
        let done = Arc::new(AtomicUsize::new(0));
        let consumer = {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while let Some(_v) = q.pop() {
                    std::thread::sleep(Duration::from_millis(5));
                    done.fetch_add(1, Ordering::SeqCst);
                    q.task_done();
                }
            })
        };
        for i in 0..6 {
            q.push(i).unwrap();
        }
        q.wait_idle();
        assert_eq!(done.load(Ordering::SeqCst), 6, "idle only after task_done");
        q.close();
        consumer.join().unwrap();
    }

    #[test]
    fn try_pop_is_non_blocking_and_tracks_in_flight() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2, OverflowPolicy::Block);
        assert_eq!(q.try_pop(), None, "empty queue returns None immediately");
        q.push(7).unwrap();
        assert_eq!(q.try_pop(), Some(7));
        // The popped item is in flight, so the queue is not idle yet.
        q.push(8).unwrap();
        assert_eq!(q.try_pop(), Some(8));
        q.task_done();
        q.task_done();
        q.wait_idle();
        assert_eq!(q.try_pop(), None);
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_pop(), None, "closed+drained queue returns None");
    }

    #[test]
    fn push_with_policy_overrides_queue_policy() {
        // Queue configured to shed; a per-push Block override must not shed.
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1, OverflowPolicy::DropNewest));
        assert!(q.push(0).unwrap());
        assert!(!q.push(1).unwrap(), "configured policy sheds when full");
        assert_eq!(q.dropped(), 1);
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                let v = q.pop();
                q.task_done();
                v
            })
        };
        // Block override: waits for the consumer instead of shedding.
        assert!(q.push_with_policy(2, OverflowPolicy::Block).unwrap());
        assert_eq!(consumer.join().unwrap(), Some(0));
        assert_eq!(q.dropped(), 1, "Block override never sheds");
    }

    #[test]
    fn config_clamps_to_usable_values() {
        let c = CaptureConfig {
            queue_depth: 0,
            flushers: 0,
            policy: OverflowPolicy::Block,
        }
        .clamped();
        assert_eq!(c.queue_depth, 1);
        assert_eq!(c.flushers, 1);
        let d = CaptureConfig::default();
        assert!(d.queue_depth >= 1 && d.flushers >= 1);
        assert_eq!(d.policy, OverflowPolicy::Block);
    }
}
