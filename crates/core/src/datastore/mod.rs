//! Per-operator lineage datastores.
//!
//! "The runtime allocates a new BerkeleyDB database for each operator
//! instance that stores region lineage" (§VI-A).  An [`OpDatastore`] is that
//! database: it owns a [`Database`] of encoded region-pair entries, the
//! R-tree over key-side cells for the *Many* encodings, and the statistics
//! (bytes, entries, encode time) the optimizer's cost model consumes.
//!
//! A datastore is created for one `(operator execution, storage strategy)`
//! pair and answers backward/forward lookups for the query executor.  When a
//! query direction does not match the strategy's index direction the lookup
//! degrades to a full scan — deliberately so, because that mismatch penalty
//! (up to two orders of magnitude in the paper's genomics benchmark) is one
//! of the effects SubZero's optimizer exists to avoid.
//!
//! What every store has — the backend, counters, spatial index, sidecar and
//! recovery — lives here; its records are `Full` region pairs (`full`) or
//! payloads (`pay`, composite lineage too), each type with its own lookups
//! and caches.

mod full;
mod pay;

use std::collections::{hash_map, HashSet};
use std::time::{Duration, Instant};

use subzero_array::{BoundingBox, CellSet, Coord, Shape};
use subzero_engine::{LineageMode, OpMeta, Operator, RegionPair};
use subzero_store::codec::{
    decode_fixed_u64, encode_fixed_u64, read_varint, write_varint, Arena, CodecError, Span,
};
use subzero_store::hash::FxHashMap;
use subzero_store::kv::{Database, KvBackend, MemBackend};
use subzero_store::RTree;

use crate::encoder::{
    self, decode_full_entry, decode_key_linear, decode_pay_entry, DecodedKeyLinear, PackedCellKey,
};
use crate::model::{Direction, Granularity, StorageStrategy};
use crate::parallel;
use full::{FullRecords, RecordSide};
use pay::PayRecords;

/// Magic bytes of the sidecar spatial-index file persisted next to a
/// file-backed store's `.kv` log (see
/// [`persist_sidecar_index`](OpDatastore::persist_sidecar_index)).
const SIDECAR_MAGIC: [u8; 4] = *b"SZIX";
/// Format version of the sidecar index file.
const SIDECAR_VERSION: u8 = 1;

/// Outcome of one datastore lookup.
#[derive(Debug, Clone)]
pub struct LookupOutcome {
    /// Lineage cells found (input cells for backward lookups, output cells
    /// for forward lookups).
    pub result: CellSet,
    /// The query cells for which stored lineage was found.  Composite
    /// lineage uses this to decide which cells fall back to the default
    /// mapping function.
    pub covered: CellSet,
    /// Number of hash entries fetched.
    pub entries_fetched: usize,
    /// Whether the lookup had to scan the whole datastore because the
    /// stored index direction did not match the query direction.
    pub scanned: bool,
}

/// Write-side key dedup for one ingestion batch.
///
/// The per-pair path re-reads and rewrites a hash record on every key
/// collision ("decode, merge, re-encode"); within a batch that is wasted
/// work.  The interner coalesces repeated cell keys *before they ever reach
/// the kv table*: keys stay in their packed integer form
/// ([`PackedCellKey`] — no allocation, FxHash over one word) until first
/// touch, at which point the key bytes are materialised once into the
/// interner's arena.  Every later touch of the same key is a hash probe plus
/// an in-place append to the staged delta.
///
/// Cell-record merges are pure appends (entry-id lists, payload lists), so
/// the staged values are *deltas*, not full records: nothing is read from
/// the database while staging, and the batch's single group write
/// ([`Database::write_group`]) applies every delta behind the entry bodies —
/// one table probe per distinct key, no value clones, and exactly the bytes
/// the per-pair path's read-modify-write sequence would have left behind.
/// Bytes of staged delta stored inline in a [`KeyInterner`] slot.  An
/// entry-id varint is 1-3 bytes at realistic scales, so the inline buffer
/// absorbs several touches of a key without any heap allocation; payload
/// deltas and heavily-shared keys overflow into the spill `Vec`.
const SLOT_INLINE: usize = 15;

/// One distinct key's staging state: the materialised key bytes (a span of
/// the interner's key arena) and the append-only delta, inline while small.
struct Slot {
    key: Span,
    inline_len: u8,
    inline: [u8; SLOT_INLINE],
    /// Overflow storage; once non-empty it holds the *whole* delta
    /// (`Vec::new` does not allocate, so untouched spills are free).
    spill: Vec<u8>,
}

impl Slot {
    fn new(key: Span) -> Self {
        Slot {
            key,
            inline_len: 0,
            inline: [0; SLOT_INLINE],
            spill: Vec::new(),
        }
    }

    /// Appends `bytes` to the staged delta.
    fn append(&mut self, bytes: &[u8]) {
        let len = self.inline_len as usize;
        if self.spill.is_empty() && len + bytes.len() <= SLOT_INLINE {
            self.inline[len..len + bytes.len()].copy_from_slice(bytes);
            self.inline_len += bytes.len() as u8;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..len]);
                self.inline_len = 0;
            }
            self.spill.extend_from_slice(bytes);
        }
    }

    /// The staged delta bytes.
    fn delta(&self) -> &[u8] {
        if self.spill.is_empty() {
            &self.inline[..self.inline_len as usize]
        } else {
            &self.spill
        }
    }
}

#[derive(Default)]
struct KeyInterner {
    /// packed key -> index into `slots`.
    index: FxHashMap<PackedCellKey, usize>,
    /// Per distinct key, in first-touch order.
    slots: Vec<Slot>,
    /// Arena holding the distinct keys' bytes back-to-back.
    keys: Arena,
    /// Reusable encode scratch for one append.
    scratch: Vec<u8>,
}

impl KeyInterner {
    /// An interner expecting around `touches` key touches drawn from at most
    /// `key_space` distinct keys (the keyed array's cell count).  Touches
    /// repeat keys — a 7×7 convolution touches each input cell 49 times — so
    /// only the smaller of the two is reserved; the table still grows if the
    /// hint is short.
    fn with_capacity(touches: usize, key_space: usize) -> Self {
        let keys = touches.min(key_space);
        let mut interner = KeyInterner::default();
        interner.index.reserve(keys);
        interner.slots.reserve(keys);
        interner
    }

    /// Appends one value fragment (written by `write`, e.g. an entry-id
    /// varint or a length-prefixed payload) to the staged delta for `key`,
    /// interning the key on first touch.
    fn append_with(&mut self, key: PackedCellKey, write: impl FnOnce(&mut Vec<u8>)) {
        self.scratch.clear();
        write(&mut self.scratch);
        let slot = match self.index.entry(key) {
            hash_map::Entry::Occupied(e) => *e.get(),
            hash_map::Entry::Vacant(e) => {
                let start = self.keys.begin();
                key.write_into(self.keys.buf_mut());
                let span = self.keys.finish(start);
                self.slots.push(Slot::new(span));
                *e.insert(self.slots.len() - 1)
            }
        };
        self.slots[slot].append(&self.scratch);
    }

    /// Every staged `(key, delta)`, in first-touch order: the `appends` half
    /// of the batch's group write.
    fn deltas(&self) -> Vec<(&[u8], &[u8])> {
        self.slots
            .iter()
            .map(|slot| (self.keys.get(slot.key), slot.delta()))
            .collect()
    }
}

/// One worker's contiguous shard of an ingest batch, serialised into one
/// arena: entry bodies back-to-back, then each pair's index records flat
/// with per-pair counts — cell keys kept packed (no per-key allocation) for
/// a `One` layout, bounding boxes for a `Many` layout.
#[derive(Default)]
struct Shard {
    bodies: Arena,
    spans: Vec<Span>,
    keys: Vec<PackedCellKey>,
    boxes: Vec<BoundingBox>,
    counts: Vec<u32>,
}

/// Serialises `work` in contiguous shards, one per worker thread (no
/// per-record allocations, no locks): `encode` writes one pair's entry body,
/// if its layout has entry records, and pushes its index records.
fn encode_shards<T: Sync>(
    work: &[T],
    workers: usize,
    encode: impl Fn(&T, &mut Shard) + Sync,
) -> Vec<Shard> {
    parallel::parallel_chunks(work, workers, 64, |_, chunk| {
        let mut shard = Shard {
            bodies: Arena::with_capacity(chunk.len() * 16),
            spans: Vec::with_capacity(chunk.len()),
            counts: Vec::with_capacity(chunk.len()),
            ..Shard::default()
        };
        for item in chunk {
            let start = shard.bodies.begin();
            let before = shard.keys.len() + shard.boxes.len();
            encode(item, &mut shard);
            shard.spans.push(shard.bodies.finish(start));
            let after = shard.keys.len() + shard.boxes.len();
            shard.counts.push((after - before) as u32);
        }
        shard
    })
}

/// Record-block size for streamed full scans ([`Database::scan_slices`]):
/// large enough to amortise the per-block dispatch, small enough that a
/// block of decoded records stays cache-resident.
const SCAN_BLOCK: usize = 1024;

/// Grows `pool` to the shard count a fanned-out lookup will use (one cache
/// per worker chunk, capped at one per query) and returns the slice whose
/// shards [`parallel::parallel_chunks_stateful`] pins to the query chunks.
/// Caches persist on the datastore between calls, so a repeat batch against
/// an unchanged store starts warm.
fn cache_shards<C: Default>(pool: &mut Vec<C>, workers: usize, queries: usize) -> &mut [C] {
    let want = workers.min(queries).max(1);
    pool.resize_with(pool.len().max(want), C::default);
    &mut pool[..want]
}

/// One operator's materialised lineage under one storage strategy.
///
/// Ingestion is batch-oriented: the runtime hands whole
/// [`RegionBatch`](subzero_engine::RegionBatch)es of pairs to
/// [`store_batch`](OpDatastore::store_batch), which encodes the
/// batch (in parallel on multi-core hosts), coalesces key-collision merges
/// per batch, writes entries and merges with one
/// [`write_group`](Database::write_group), and *stages* spatial-index
/// entries instead of inserting
/// them one by one — the R-tree is bulk-loaded (STR-packed) lazily before the
/// first lookup.  [`store_pair`](OpDatastore::store_pair) writes one pair at a
/// time through the allocating encoders; the capture runtime never calls it.
/// It is the independent byte reference that the parity tests compare
/// `store_batch` against: both produce byte-identical datastore contents.
pub struct OpDatastore {
    /// What every store has, whatever its records.
    base: Base,
    /// The records the strategy's mode writes, with their lookup caches.
    records: Records,
}

/// The part of an [`OpDatastore`] its records share: the backend, the
/// spatial index and its staging, the counters and the sidecar state.
struct Base {
    strategy: StorageStrategy,
    out_shape: Shape,
    in_shapes: Vec<Shape>,
    db: Database,
    rtree: Option<RTree>,
    /// Spatial-index entries captured by the batched path but not yet
    /// indexed; drained into `rtree` (STR bulk-loaded when the tree is still
    /// empty) on first lookup.  The per-pair reference path inserts into the
    /// tree directly, as the prototype did.
    rtree_staged: Vec<(BoundingBox, u64)>,
    next_entry_id: u64,
    pairs_stored: u64,
    cells_stored: u64,
    encode_time: Duration,
    /// Worker threads the batched *lookup* paths may fan out across (the
    /// batched write path takes its worker budget per call, because the
    /// runtime splits it between datastore shards).
    workers: usize,
    /// `(log stamp, next entry id, pairs, cells)` the sidecar file on disk
    /// was last written for; a repeat `finish_ingest` with nothing new (the
    /// commit path finishes a run twice) skips the rewrite.
    sidecar_written: Option<(u64, u64, u64, u64)>,
}

/// The records of one store: `Full` region pairs, or payloads (for the
/// payload and composite modes alike).
enum Records {
    Full(FullRecords),
    Pay(PayRecords),
}

impl OpDatastore {
    /// Creates a datastore backed by the given key-value backend.
    ///
    /// # Panics
    ///
    /// If `strategy` stores no region pairs (mapping or black-box lineage):
    /// such an operator has no datastore.
    pub fn new(
        name: impl Into<String>,
        strategy: StorageStrategy,
        meta: &OpMeta,
        backend: Box<dyn KvBackend>,
    ) -> Self {
        let records = match strategy.mode {
            LineageMode::Full => Records::Full(FullRecords::default()),
            LineageMode::Pay | LineageMode::Comp => Records::Pay(PayRecords::default()),
            mode => panic!("a {mode:?} strategy stores no region pairs and has no datastore"),
        };
        let mut store = OpDatastore {
            base: Base {
                strategy,
                out_shape: meta.output_shape,
                in_shapes: meta.input_shapes.clone(),
                db: Database::new(name, backend),
                rtree: (strategy.granularity == Granularity::Many).then(RTree::new),
                rtree_staged: Vec::new(),
                next_entry_id: 0,
                pairs_stored: 0,
                cells_stored: 0,
                encode_time: Duration::ZERO,
                workers: parallel::default_workers(),
                sidecar_written: None,
            },
            records,
        };
        // A non-empty file backend means this datastore is being *reopened*
        // (daemon restart, crash recovery): restore the spatial index and
        // entry counters, from the sidecar when it is still valid, otherwise
        // by rescanning the log.
        store.base.recover_on_open(&store.records);
        store
    }

    /// Drops every cached decoded entry; the write paths call this because a
    /// newly written entry id invalidates a cached "no body" miss.
    fn invalidate_caches(&mut self) {
        match &mut self.records {
            Records::Full(records) => records.clear_caches(),
            Records::Pay(records) => records.clear_caches(),
        }
    }

    /// Sets how many worker threads batched lookups may fan out across
    /// (clamped to at least 1; 1 means fully serial lookups).
    pub fn set_workers(&mut self, workers: usize) {
        self.base.workers = workers.max(1);
    }

    /// Creates an in-memory datastore (the common case for tests and
    /// benchmarks; the paper's prototype also treats lineage as a cache).
    pub fn in_memory(name: impl Into<String>, strategy: StorageStrategy, meta: &OpMeta) -> Self {
        Self::new(name, strategy, meta, Box::new(MemBackend::new()))
    }

    /// The storage strategy this datastore implements.
    pub fn strategy(&self) -> StorageStrategy {
        self.base.strategy
    }

    /// Number of region pairs stored.
    pub fn pairs_stored(&self) -> u64 {
        self.base.pairs_stored
    }

    /// Total number of coordinates stored across all pairs.
    pub fn cells_stored(&self) -> u64 {
        self.base.cells_stored
    }

    /// Time spent encoding and writing pairs (the runtime overhead charged to
    /// this strategy).
    pub fn encode_time(&self) -> Duration {
        self.base.encode_time
    }

    /// Logical bytes used by the hash entries plus the spatial index
    /// (including index entries staged but not yet bulk-loaded, estimated
    /// with the inner-node overhead a packed tree will add so the number
    /// does not jump when the first lookup builds the index).
    pub fn bytes_used(&self) -> usize {
        let base = &self.base;
        let entry_bytes = std::mem::size_of::<BoundingBox>() + 8;
        let staged_estimate =
            base.rtree_staged.len() * entry_bytes * RTree::BRANCHING / (RTree::BRANCHING - 1);
        base.db.bytes_used()
            + base.rtree.as_ref().map(|t| t.size_bytes()).unwrap_or(0)
            + staged_estimate
    }

    /// Number of live hash entries.
    pub fn num_entries(&self) -> usize {
        self.base.db.len()
    }

    /// A sorted copy of every `(key, value)` pair in the hash database.
    /// Used by tests to assert that `store_batch` and the `store_pair`
    /// reference produce byte-identical contents.
    pub fn snapshot(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = self.base.db.iter().collect();
        pairs.sort();
        pairs
    }

    /// Stores one region pair according to the strategy.
    ///
    /// The byte reference for [`store_batch`](OpDatastore::store_batch):
    /// every write goes through the allocating encoders
    /// ([`encode_full_entry`](encoder::encode_full_entry),
    /// [`encode_pay_entry`](encoder::encode_pay_entry)) and one
    /// `put`/`merge` per record, with none of the batch path's arena,
    /// interning or group writes.  Capture never calls it; the parity tests
    /// replay captured pairs through it and compare the results.
    ///
    /// Pairs whose kind does not match the strategy's mode (e.g. a payload
    /// pair arriving for a `Full` strategy) are ignored: operators may emit
    /// several kinds when asked for several modes, and each datastore keeps
    /// only what it understands.
    pub fn store_pair(&mut self, pair: &RegionPair) {
        self.invalidate_caches();
        let start = Instant::now();
        let base = &mut self.base;
        match (base.strategy.mode, pair) {
            (LineageMode::Full, RegionPair::Full { outcells, incells }) => {
                base.store_full(outcells, incells);
            }
            (LineageMode::Pay | LineageMode::Comp, RegionPair::Payload { outcells, payload }) => {
                base.store_payload(outcells, payload);
            }
            _ => return,
        }
        base.pairs_stored += 1;
        base.cells_stored += pair.num_cells() as u64;
        base.encode_time += start.elapsed();
    }

    /// Stores a whole batch of region pairs according to the strategy.
    ///
    /// Equivalent to calling the [`store_pair`](OpDatastore::store_pair)
    /// reference on every pair in order — the stored contents are
    /// byte-identical, which the parity tests check — but organised
    /// batch-at-a-time: worker threads serialise contiguous shards of the
    /// batch into arenas, a per-batch interning table (`KeyInterner`)
    /// coalesces repeated cell keys into append deltas before they reach the
    /// kv table, entry records and deltas go to the backend as one
    /// [`write_group`](Database::write_group), and spatial-index entries are
    /// staged for deferred STR bulk loading.
    pub fn store_batch(&mut self, pairs: &[RegionPair], workers: usize) {
        if pairs.is_empty() {
            return;
        }
        let start = Instant::now();
        match &mut self.records {
            Records::Full(records) => records.store_batch(&mut self.base, pairs, workers),
            Records::Pay(records) => records.store_batch(&mut self.base, pairs, workers),
        }
        self.base.encode_time += start.elapsed();
    }

    /// Finishes an ingestion phase: builds the spatial index from staged
    /// entries, flushes the hash database and persists the sidecar index
    /// file for file-backed stores.  Lookups do this lazily; call it
    /// explicitly to move the cost out of the first query (the benchmarks
    /// do, so index build time is charged to ingestion, not to queries).
    pub fn finish_ingest(&mut self) {
        self.base.ensure_spatial_index();
        self.base.db.flush().expect("lineage database flush");
        self.persist_sidecar_index();
    }

    /// Forces flushed log bytes to stable storage (no-op in memory).  The
    /// transactional prepare path calls this before recording the log length
    /// as durable.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.base.db.sync()
    }

    /// `(file name, flushed byte length)` of the backing `.kv` log — exactly
    /// what a [`WalRecord::Prepare`](subzero_store::WalRecord::Prepare)
    /// publishes for this store.  `None` for in-memory stores (nothing to
    /// recover, nothing to prepare).
    pub fn commit_file(&self) -> Option<(String, u64)> {
        let db = &self.base.db;
        let name = db.file_path()?.file_name()?.to_str()?.to_string();
        Some((name, db.log_len()?))
    }

    /// Folds superseded `merge_append_batch` delta chains (and overwritten
    /// entries generally) out of the backing log, returning bytes reclaimed.
    ///
    /// Only call on fully committed stores: compaction rewrites the file, so
    /// staged-but-uncommitted tail bytes would be folded in.  Decoded-entry
    /// caches are dropped (record offsets moved) and the sidecar index is
    /// re-stamped against the dense log.
    pub fn compact(&mut self) -> std::io::Result<u64> {
        let reclaimed = self.base.db.compact()?;
        if reclaimed > 0 {
            self.invalidate_caches();
            self.persist_sidecar_index();
        }
        Ok(reclaimed)
    }

    /// Writes the spatial index and entry counters to the sidecar file next
    /// to the backing `.kv` log, stamped with the log's current persist
    /// fingerprint so a reopen can tell whether the sidecar still describes
    /// the log contents.  No-op for in-memory stores.  A write failure only
    /// warns: the sidecar is a restart accelerator, and a reopen rebuilds
    /// everything from the log.
    pub fn persist_sidecar_index(&mut self) {
        let base = &mut self.base;
        let Some(path) = base.sidecar_path() else {
            return;
        };
        // Every change to the index or the counters comes with a log append
        // (or a compaction), which moves the stamp.
        let state = (
            base.db.persist_stamp(),
            base.next_entry_id,
            base.pairs_stored,
            base.cells_stored,
        );
        if base.sidecar_written == Some(state) {
            return;
        }
        base.ensure_spatial_index();
        let mut buf = Vec::new();
        buf.extend_from_slice(&SIDECAR_MAGIC);
        buf.push(SIDECAR_VERSION);
        buf.extend_from_slice(&encode_fixed_u64(state.0));
        write_varint(&mut buf, base.next_entry_id);
        write_varint(&mut buf, base.pairs_stored);
        write_varint(&mut buf, base.cells_stored);
        match &base.rtree {
            Some(tree) => {
                buf.push(1);
                tree.serialize_into(&mut buf);
            }
            None => buf.push(0),
        }
        match std::fs::write(&path, &buf) {
            Ok(()) => base.sidecar_written = Some(state),
            Err(e) => eprintln!(
                "subzero: failed to write spatial-index sidecar {}: {e}",
                path.display()
            ),
        }
    }

    /// Answers a whole batch of lookups in `direction` about input
    /// `input_idx` in one pass, returning one [`LookupOutcome`] per query
    /// (identical to running each query alone).  A backward query names
    /// output cells and is answered with cells of input `input_idx`; a
    /// forward query names cells of that input and is answered with output
    /// cells.
    ///
    /// The batch shares the physical work: a hash entry referenced by several
    /// queries is fetched and decoded once, payload mapping functions run
    /// once per stored region instead of once per query, and — the big one —
    /// when the stored index direction does not match the query direction,
    /// the *single* full scan (streamed through [`Database::scan_slices`] in
    /// decode blocks riding the `put_batch` file layout) answers every query
    /// of the batch, instead of one scan per query.
    ///
    /// Indexed lookups fan out across the scoped worker threads of
    /// [`parallel`] (see [`set_workers`](OpDatastore::set_workers)),
    /// splitting the query batch into per-worker shards, each with its own
    /// decoded-entry cache.  The shared scan is one single-threaded pass that
    /// joins while it decodes, in memory bounded by a hit mask per entry
    /// plus the answers rather than by the store.  Results are deterministic
    /// and identical at any worker count.
    ///
    /// The arm follows from the record type, from whether the store's index
    /// serves `direction` and from the granularity; payload lineage is
    /// indexed by output cells only, so its forward lookups scan.
    pub fn lookup_many(
        &mut self,
        direction: Direction,
        queries: &[&CellSet],
        input_idx: usize,
        op: &dyn Operator,
        meta: &OpMeta,
    ) -> Vec<LookupOutcome> {
        self.base.ensure_spatial_index();
        if queries.is_empty() {
            return Vec::new();
        }
        let base = &self.base;
        match &mut self.records {
            Records::Full(records) => records.lookup_many(base, direction, queries, input_idx),
            Records::Pay(records) => {
                records.lookup_many(base, direction, queries, input_idx, op, meta)
            }
        }
    }

    /// [`lookup_many`](OpDatastore::lookup_many) in the backward direction.
    pub fn lookup_backward_many(
        &mut self,
        queries: &[&CellSet],
        input_idx: usize,
        op: &dyn Operator,
        meta: &OpMeta,
    ) -> Vec<LookupOutcome> {
        self.lookup_many(Direction::Backward, queries, input_idx, op, meta)
    }

    /// [`lookup_many`](OpDatastore::lookup_many) in the forward direction.
    pub fn lookup_forward_many(
        &mut self,
        queries: &[&CellSet],
        input_idx: usize,
        op: &dyn Operator,
        meta: &OpMeta,
    ) -> Vec<LookupOutcome> {
        self.lookup_many(Direction::Forward, queries, input_idx, op, meta)
    }
}

impl Base {
    /// Writes the `shards` [`encode_shards`] serialised from `work`, pair by
    /// pair: with `entries`, each pair gets the next entry id and an entry
    /// record holding its body; its cell keys are interned with the bytes
    /// `delta` appends for it (from at most `key_space` distinct keys) and
    /// its boxes are staged for the R-tree.  The entry records and the
    /// coalesced deltas reach the backend zero-copy, as one group write.
    fn write_shards<T>(
        &mut self,
        shards: &[Shard],
        work: &[T],
        entries: bool,
        key_space: usize,
        delta: impl Fn(&T, u64, &mut Vec<u8>),
    ) {
        let base_id = self.next_entry_id;
        let count = if entries { work.len() } else { 0 };
        self.next_entry_id += count as u64;
        let many = self.strategy.granularity == Granularity::Many;
        let total_keys = shards.iter().map(|s| s.keys.len()).sum();
        let mut interner = KeyInterner::with_capacity(total_keys, key_space);
        let (mut id, mut items) = (base_id, work.iter());
        for shard in shards {
            let mut pos = 0usize;
            for &n in &shard.counts {
                let item = items.next().expect("one count per pair");
                let range = pos..pos + n as usize;
                if many {
                    let boxes = shard.boxes[range].iter();
                    self.rtree_staged.extend(boxes.map(|&bbox| (bbox, id)));
                } else {
                    for &key in &shard.keys[range] {
                        interner.append_with(key, |value| delta(item, id, value));
                    }
                }
                pos += n as usize;
                id += entries as u64;
            }
        }
        // The entry keys `base_id..`, materialised into one arena.
        let mut keys = Arena::with_capacity(count * 9);
        let key_spans: Vec<Span> = (base_id..base_id + count as u64)
            .map(|id| {
                let start = keys.begin();
                encoder::entry_key_into(keys.buf_mut(), id);
                keys.finish(start)
            })
            .collect();
        let bodies = shards
            .iter()
            .flat_map(|s| s.spans.iter().map(|&span| s.bodies.get(span)));
        let records: Vec<(&[u8], &[u8])> = key_spans
            .iter()
            .map(|&span| keys.get(span))
            .zip(bodies)
            .collect();
        self.db.write_group(&records, &interner.deltas());
    }

    fn store_full(&mut self, outcells: &[Coord], incells: &[Vec<Coord>]) {
        if outcells.is_empty() {
            return;
        }
        match (self.strategy.granularity, self.strategy.direction) {
            (Granularity::One, Direction::Backward) => {
                // Shared entry holds the input cells; one hash entry per
                // output cell references it.
                let id = self.alloc_entry();
                let body = encoder::encode_full_entry(
                    &self.out_shape,
                    &self.in_shapes,
                    &[],
                    incells,
                    false,
                );
                self.db.put(&encoder::entry_key(id), &body);
                for oc in outcells {
                    let key = encoder::out_cell_key(&self.out_shape, oc);
                    self.db.merge(&key, |old| {
                        let mut v = old.unwrap_or_default();
                        encoder::append_entry_id(&mut v, id);
                        v
                    });
                }
            }
            (Granularity::Many, Direction::Backward) => {
                let id = self.alloc_entry();
                let body = encoder::encode_full_entry(
                    &self.out_shape,
                    &self.in_shapes,
                    outcells,
                    incells,
                    true,
                );
                self.db.put(&encoder::entry_key(id), &body);
                if let (Some(tree), Some(bbox)) =
                    (self.rtree.as_mut(), BoundingBox::enclosing(outcells))
                {
                    tree.insert(bbox, id);
                }
            }
            (Granularity::One, Direction::Forward) => {
                // Shared entry holds the output cells; one hash entry per
                // input cell (tagged with its input index) references it.
                let id = self.alloc_entry();
                let body = encoder::encode_full_entry(
                    &self.out_shape,
                    &self.in_shapes,
                    outcells,
                    &vec![Vec::new(); self.in_shapes.len()],
                    true,
                );
                self.db.put(&encoder::entry_key(id), &body);
                for (i, cells) in incells.iter().enumerate() {
                    for ic in cells {
                        let key = encoder::in_cell_key(&self.in_shapes[i], i, ic);
                        self.db.merge(&key, |old| {
                            let mut v = old.unwrap_or_default();
                            encoder::append_entry_id(&mut v, id);
                            v
                        });
                    }
                }
            }
            (Granularity::Many, Direction::Forward) => {
                let id = self.alloc_entry();
                let body = encoder::encode_full_entry(
                    &self.out_shape,
                    &self.in_shapes,
                    outcells,
                    incells,
                    true,
                );
                self.db.put(&encoder::entry_key(id), &body);
                if let Some(tree) = self.rtree.as_mut() {
                    for cells in incells {
                        if let Some(bbox) = BoundingBox::enclosing(cells) {
                            tree.insert(bbox, id);
                        }
                    }
                }
            }
        }
    }

    fn store_payload(&mut self, outcells: &[Coord], payload: &[u8]) {
        if outcells.is_empty() {
            return;
        }
        match self.strategy.granularity {
            Granularity::One => {
                // The payload is duplicated into every output cell's entry
                // (the PayOne layout of Fig. 4.4).
                for oc in outcells {
                    let key = encoder::out_cell_key(&self.out_shape, oc);
                    self.db.merge(&key, |old| {
                        let mut v = old.unwrap_or_default();
                        encoder::append_payload(&mut v, payload);
                        v
                    });
                }
            }
            Granularity::Many => {
                let id = self.alloc_entry();
                let body = encoder::encode_pay_entry(&self.out_shape, outcells, payload);
                self.db.put(&encoder::entry_key(id), &body);
                if let (Some(tree), Some(bbox)) =
                    (self.rtree.as_mut(), BoundingBox::enclosing(outcells))
                {
                    tree.insert(bbox, id);
                }
            }
        }
    }

    fn alloc_entry(&mut self) -> u64 {
        let id = self.next_entry_id;
        self.next_entry_id += 1;
        id
    }

    /// An outcome with no cells for a lookup in `direction` about input
    /// `input_idx`.
    fn empty_outcome(
        &self,
        direction: Direction,
        input_idx: usize,
        scanned: bool,
    ) -> LookupOutcome {
        let (query_side, answer_side) = RecordSide::of(direction, input_idx);
        LookupOutcome {
            result: CellSet::empty(answer_side.shape(&self.out_shape, &self.in_shapes)),
            covered: CellSet::empty(query_side.shape(&self.out_shape, &self.in_shapes)),
            entries_fetched: 0,
            scanned,
        }
    }

    /// The cell counts of the output array and of each input array, which
    /// bound the linear indices [`decode_key_linear`] accepts.
    fn cell_counts(&self) -> (u64, Vec<u64>) {
        let in_cells = self.in_shapes.iter().map(|s| s.num_cells() as u64);
        (self.out_shape.num_cells() as u64, in_cells.collect())
    }

    /// Drains staged spatial-index entries into the R-tree.  An empty tree is
    /// STR bulk-loaded from the whole staged set (the common case: capture
    /// everything, then query); a non-empty tree absorbs late arrivals with
    /// incremental inserts.  Called before every indexed lookup.
    fn ensure_spatial_index(&mut self) {
        if self.rtree_staged.is_empty() {
            return;
        }
        let Some(tree) = self.rtree.as_mut() else {
            self.rtree_staged.clear();
            return;
        };
        let staged = std::mem::take(&mut self.rtree_staged);
        if tree.is_empty() {
            *tree = RTree::bulk_load(staged);
        } else {
            for (bbox, id) in staged {
                tree.insert(bbox, id);
            }
        }
    }

    /// Path of the sidecar index file (`<log>.kv.idx`) for file-backed
    /// stores, `None` in memory.
    fn sidecar_path(&self) -> Option<std::path::PathBuf> {
        let path = self.db.file_path()?;
        let mut os = path.as_os_str().to_os_string();
        os.push(".idx");
        Some(std::path::PathBuf::from(os))
    }

    /// Restores index state when constructed over a non-empty file backend:
    /// loads the sidecar index if its stamp still matches the log, otherwise
    /// rebuilds the index and counters by scanning the log (warning when a
    /// sidecar existed but no longer matched — e.g. after a crash between a
    /// log append and the sidecar rewrite).
    fn recover_on_open(&mut self, records: &Records) {
        if self.db.is_empty() {
            return;
        }
        let Some(path) = self.sidecar_path() else {
            return;
        };
        let loaded = match std::fs::read(&path) {
            Err(_) => false, // No sidecar (older store / crash before first write).
            Ok(bytes) => match Self::parse_sidecar(&bytes, self.db.persist_stamp()) {
                Ok((next_entry_id, pairs_stored, cells_stored, tree)) => {
                    self.next_entry_id = next_entry_id;
                    self.pairs_stored = pairs_stored;
                    self.cells_stored = cells_stored;
                    if self.rtree.is_some() {
                        match tree {
                            Some(tree) => self.rtree = Some(tree),
                            // Valid sidecar but no tree for an indexed
                            // strategy: treat as corrupt, fall through.
                            None => {
                                eprintln!(
                                    "subzero: spatial-index sidecar {} lacks the index tree; \
                                     rebuilding from the log",
                                    path.display()
                                );
                                self.rebuild_index_from_scan(records);
                                return;
                            }
                        }
                    }
                    self.rtree_staged.clear();
                    true
                }
                Err(e) => {
                    eprintln!(
                        "subzero: stale or corrupt spatial-index sidecar {} ({e}); \
                         rebuilding from the log",
                        path.display()
                    );
                    false
                }
            },
        };
        if !loaded {
            self.rebuild_index_from_scan(records);
        }
    }

    /// Decodes a sidecar file, validating magic, version and the log stamp.
    #[allow(clippy::type_complexity)]
    fn parse_sidecar(
        bytes: &[u8],
        expect_stamp: u64,
    ) -> Result<(u64, u64, u64, Option<RTree>), CodecError> {
        if bytes.len() < 13 || bytes[..4] != SIDECAR_MAGIC {
            return Err(CodecError::Corrupt("sidecar magic"));
        }
        if bytes[4] != SIDECAR_VERSION {
            return Err(CodecError::Corrupt("sidecar format version"));
        }
        let stamp = decode_fixed_u64(&bytes[5..13])?;
        if stamp != expect_stamp {
            return Err(CodecError::Corrupt(
                "sidecar stamp does not match the log contents",
            ));
        }
        let mut pos = 13usize;
        let next_entry_id = read_varint(bytes, &mut pos)?;
        let pairs_stored = read_varint(bytes, &mut pos)?;
        let cells_stored = read_varint(bytes, &mut pos)?;
        let has_tree = *bytes.get(pos).ok_or(CodecError::UnexpectedEof)?;
        pos += 1;
        let tree = match has_tree {
            0 => None,
            1 => Some(RTree::deserialize(bytes, &mut pos)?),
            _ => return Err(CodecError::Corrupt("sidecar tree flag")),
        };
        if pos != bytes.len() {
            return Err(CodecError::Corrupt("sidecar trailing bytes"));
        }
        Ok((next_entry_id, pairs_stored, cells_stored, tree))
    }

    /// Rebuilds the spatial index and entry counters by scanning the hash
    /// database — the fallback when no valid sidecar exists.  `next_entry_id`
    /// and the index are restored exactly; `pairs_stored`/`cells_stored`
    /// (optimizer statistics only) are reconstructed from the shared entries,
    /// which undercounts the *One*-granularity layouts that fold cells into
    /// hash keys.
    fn rebuild_index_from_scan(&mut self, records: &Records) {
        let out_shape = self.out_shape;
        let in_shapes = &self.in_shapes;
        let (out_cells, in_cells) = self.cell_counts();
        let direction = self.strategy.direction;
        let wants_tree = self.rtree.is_some();
        let mut next_entry_id = 0u64;
        let mut pairs_stored = 0u64;
        let mut cells_stored = 0u64;
        let mut staged: Vec<(BoundingBox, u64)> = Vec::new();
        self.db.scan_batch(256, &mut |block| {
            for (key, value) in block.iter().map(|(k, v)| (k.as_slice(), v.as_slice())) {
                let Ok(DecodedKeyLinear::Entry(id)) = decode_key_linear(out_cells, &in_cells, key)
                else {
                    continue;
                };
                next_entry_id = next_entry_id.max(id + 1);
                pairs_stored += 1;
                // The cells of the entry's indexed side, one list per box.
                let mut index = |cells: &[Coord]| {
                    if wants_tree {
                        staged.extend(BoundingBox::enclosing(cells).map(|bbox| (bbox, id)));
                    }
                };
                match records {
                    Records::Full(_) => {
                        let Ok(entry) = decode_full_entry(&out_shape, in_shapes, value) else {
                            continue;
                        };
                        cells_stored += entry.outcells.len() as u64;
                        cells_stored += entry.incells.iter().map(|c| c.len() as u64).sum::<u64>();
                        for cells in full::indexed(direction, &entry.outcells, &entry.incells) {
                            index(cells);
                        }
                    }
                    Records::Pay(_) => {
                        let Ok(entry) = decode_pay_entry(&out_shape, value) else {
                            continue;
                        };
                        cells_stored += entry.outcells.len() as u64;
                        index(&entry.outcells);
                    }
                }
            }
        });
        self.next_entry_id = next_entry_id;
        self.pairs_stored = pairs_stored;
        self.cells_stored = cells_stored;
        if wants_tree {
            // STR bulk load sorts by spatial tiles with id tie-breaks, so the
            // rebuilt tree is deterministic regardless of scan order.
            self.rtree = Some(RTree::bulk_load(staged));
        }
        self.rtree_staged.clear();
    }
}

/// The store of an operator that a lookup in `direction` should use: the
/// first whose index serves the direction, else the first one (which will
/// scan).  `None` when the operator stores nothing.  The in-process query
/// engine and the daemon's shards both choose through here, which is what
/// keeps remote answers byte-identical to local ones.
pub fn serving(stores: &mut [OpDatastore], direction: Direction) -> Option<&mut OpDatastore> {
    let pick = stores
        .iter()
        .position(|d| d.strategy().serves(direction))
        .unwrap_or(0);
    stores.get_mut(pick)
}

/// Answers every query with `answer`, fanning the batch out in contiguous
/// shards pinned to the per-worker `states` (see
/// [`parallel::parallel_chunks_stateful`]); outcomes come back in query
/// order.
fn fan_out<S: Send>(
    queries: &[&CellSet],
    states: &mut [S],
    answer: impl Fn(&mut S, &CellSet) -> LookupOutcome + Sync,
) -> Vec<LookupOutcome> {
    parallel::parallel_chunks_stateful(queries, states, 2, |_, state, shard| {
        shard
            .iter()
            .map(|query| answer(state, query))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Entry ids whose key-side bounding box intersects any query cell,
/// according to the R-tree (a superset: exact membership is re-checked
/// after decoding).
fn candidate_entries(tree: Option<&RTree>, query: &CellSet) -> Vec<u64> {
    let Some(tree) = tree else {
        return Vec::new();
    };
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    // Query the R-tree with the bounding box of the query cells first; if
    // the query is small, per-cell point queries are more selective.
    if query.len() <= 64 {
        for c in query.iter() {
            for id in tree.query_point(&c) {
                if seen.insert(id) {
                    out.push(id);
                }
            }
        }
    } else {
        let coords = query.to_coords();
        if let Some(bbox) = BoundingBox::enclosing(&coords) {
            for id in tree.query(&bbox) {
                if seen.insert(id) {
                    out.push(id);
                }
            }
        }
    }
    out
}

impl std::fmt::Debug for OpDatastore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpDatastore")
            .field("strategy", &self.base.strategy.label())
            .field("pairs", &self.base.pairs_stored)
            .field("bytes", &self.bytes_used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use subzero_array::{Array, ArrayRef};
    use subzero_engine::{LineageSink, OpId};
    use subzero_store::kv::{FileBackend, KvPair, KvRef};

    /// A toy payload operator: payload byte r means "depends on the
    /// neighbourhood of radius r around the output cell".
    struct RadiusOp;

    impl Operator for RadiusOp {
        fn name(&self) -> &str {
            "radius"
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
            payload: &[u8],
            _i: usize,
            meta: &OpMeta,
        ) -> Option<Vec<Coord>> {
            let r = payload.first().copied().unwrap_or(0) as u32;
            Some(meta.input_shape(0).neighborhood(outcell, r))
        }
        fn map_backward(&self, outcell: &Coord, _i: usize, _meta: &OpMeta) -> Option<Vec<Coord>> {
            Some(vec![*outcell])
        }
    }

    fn meta() -> OpMeta {
        OpMeta::new(vec![Shape::d2(8, 8), Shape::d2(8, 8)], Shape::d2(8, 8))
    }

    fn full_pair(out: &[Coord], in0: &[Coord], in1: &[Coord]) -> RegionPair {
        RegionPair::Full {
            outcells: out.to_vec(),
            incells: vec![in0.to_vec(), in1.to_vec()],
        }
    }

    fn query_of(shape: Shape, cells: &[Coord]) -> CellSet {
        CellSet::from_coords(shape, cells.iter().copied())
    }

    /// One query's outcome, through the batched kernel.
    fn lookup(
        ds: &mut OpDatastore,
        direction: Direction,
        query: &CellSet,
        input_idx: usize,
        op: &dyn Operator,
        m: &OpMeta,
    ) -> LookupOutcome {
        ds.lookup_many(direction, &[query], input_idx, op, m)
            .pop()
            .expect("one outcome per query")
    }

    const _: OpId = 0;

    fn full_strategies() -> Vec<StorageStrategy> {
        vec![
            StorageStrategy::full_one(),
            StorageStrategy::full_many(),
            StorageStrategy::full_one_forward(),
            StorageStrategy::full_many_forward(),
        ]
    }

    #[test]
    fn key_interner_reserves_the_key_space_not_every_touch() {
        // A 7×7 box blur's forward store touches each input cell 49 times.
        let shape = Shape::d2(40, 80);
        let key_space = shape.num_cells();
        let mut interner = KeyInterner::with_capacity(49 * key_space, key_space);
        for _ in 0..49 {
            for cell in shape.iter() {
                let key = PackedCellKey::in_cell(&shape, 0, &cell);
                interner.append_with(key, |v| v.push(1));
            }
        }
        assert_eq!(interner.slots.len(), key_space);
        assert!(interner.slots.capacity() <= key_space);
        assert!(interner.index.capacity() < 2 * key_space);
        assert!(interner.deltas().iter().all(|&(_, delta)| delta == [1; 49]));
    }

    #[test]
    fn full_strategies_answer_backward_and_forward_lookups() {
        let m = meta();
        let op = RadiusOp;
        for strategy in full_strategies() {
            let mut ds = OpDatastore::in_memory("t", strategy, &m);
            ds.store_pair(&full_pair(
                &[Coord::d2(0, 0), Coord::d2(0, 1)],
                &[Coord::d2(1, 1), Coord::d2(1, 2)],
                &[Coord::d2(7, 7)],
            ));
            ds.store_pair(&full_pair(&[Coord::d2(5, 5)], &[Coord::d2(6, 6)], &[]));
            assert_eq!(ds.pairs_stored(), 2);

            // Backward: lineage of (0,1) in input 0 is {(1,1),(1,2)}.
            let q = query_of(Shape::d2(8, 8), &[Coord::d2(0, 1)]);
            let out = lookup(&mut ds, Direction::Backward, &q, 0, &op, &m);
            assert_eq!(
                out.result.to_coords(),
                vec![Coord::d2(1, 1), Coord::d2(1, 2)],
                "strategy {strategy}"
            );
            assert!(out.covered.contains(&Coord::d2(0, 1)));
            // Backward in input 1.
            let out1 = lookup(&mut ds, Direction::Backward, &q, 1, &op, &m);
            assert_eq!(out1.result.to_coords(), vec![Coord::d2(7, 7)]);

            // Forward: input cell (6,6) of input 0 influenced output (5,5).
            let q = query_of(Shape::d2(8, 8), &[Coord::d2(6, 6)]);
            let out = lookup(&mut ds, Direction::Forward, &q, 0, &op, &m);
            assert_eq!(
                out.result.to_coords(),
                vec![Coord::d2(5, 5)],
                "strategy {strategy}"
            );
            // Forward query for a cell with no lineage is empty.
            let q = query_of(Shape::d2(8, 8), &[Coord::d2(0, 0)]);
            let out = lookup(&mut ds, Direction::Forward, &q, 0, &op, &m);
            assert!(out.result.is_empty(), "strategy {strategy}");
        }
    }

    #[test]
    fn mismatched_direction_falls_back_to_scan() {
        let m = meta();
        let op = RadiusOp;
        // Backward-optimized store, forward query => scan.
        let mut ds = OpDatastore::in_memory("t", StorageStrategy::full_one(), &m);
        ds.store_pair(&full_pair(&[Coord::d2(2, 2)], &[Coord::d2(3, 3)], &[]));
        let q = query_of(Shape::d2(8, 8), &[Coord::d2(3, 3)]);
        let out = lookup(&mut ds, Direction::Forward, &q, 0, &op, &m);
        assert!(out.scanned);
        assert_eq!(out.result.to_coords(), vec![Coord::d2(2, 2)]);

        // Forward-optimized store, backward query => scan.
        let mut ds = OpDatastore::in_memory("t", StorageStrategy::full_one_forward(), &m);
        ds.store_pair(&full_pair(&[Coord::d2(2, 2)], &[Coord::d2(3, 3)], &[]));
        let q = query_of(Shape::d2(8, 8), &[Coord::d2(2, 2)]);
        let out = lookup(&mut ds, Direction::Backward, &q, 0, &op, &m);
        assert!(out.scanned);
        assert_eq!(out.result.to_coords(), vec![Coord::d2(3, 3)]);

        // Matched directions never scan.
        let mut ds = OpDatastore::in_memory("t", StorageStrategy::full_many(), &m);
        ds.store_pair(&full_pair(&[Coord::d2(2, 2)], &[Coord::d2(3, 3)], &[]));
        let q = query_of(Shape::d2(8, 8), &[Coord::d2(2, 2)]);
        assert!(!lookup(&mut ds, Direction::Backward, &q, 0, &op, &m).scanned);
    }

    #[test]
    fn payload_strategies_use_map_payload() {
        let m = meta();
        let op = RadiusOp;
        for strategy in [StorageStrategy::pay_one(), StorageStrategy::pay_many()] {
            let mut ds = OpDatastore::in_memory("t", strategy, &m);
            // Cell (4,4) has radius-1 lineage; cell (0,0) has radius-0.
            ds.store_pair(&RegionPair::Payload {
                outcells: vec![Coord::d2(4, 4)],
                payload: vec![1],
            });
            ds.store_pair(&RegionPair::Payload {
                outcells: vec![Coord::d2(0, 0)],
                payload: vec![0],
            });
            let q = query_of(Shape::d2(8, 8), &[Coord::d2(4, 4)]);
            let out = lookup(&mut ds, Direction::Backward, &q, 0, &op, &m);
            assert_eq!(out.result.len(), 9, "strategy {strategy}");
            assert!(out.covered.contains(&Coord::d2(4, 4)));

            let q = query_of(Shape::d2(8, 8), &[Coord::d2(0, 0)]);
            let out = lookup(&mut ds, Direction::Backward, &q, 0, &op, &m);
            assert_eq!(out.result.to_coords(), vec![Coord::d2(0, 0)]);

            // Forward payload queries iterate all pairs.
            let q = query_of(Shape::d2(8, 8), &[Coord::d2(3, 4)]);
            let out = lookup(&mut ds, Direction::Forward, &q, 0, &op, &m);
            assert!(out.scanned);
            assert_eq!(out.result.to_coords(), vec![Coord::d2(4, 4)]);
        }
    }

    #[test]
    fn composite_reports_uncovered_cells() {
        let m = meta();
        let op = RadiusOp;
        let mut ds = OpDatastore::in_memory("t", StorageStrategy::composite_one(), &m);
        // Only the "exceptional" cell stores a payload pair.
        ds.store_pair(&RegionPair::Payload {
            outcells: vec![Coord::d2(6, 6)],
            payload: vec![2],
        });
        let q = query_of(Shape::d2(8, 8), &[Coord::d2(6, 6), Coord::d2(1, 1)]);
        let out = lookup(&mut ds, Direction::Backward, &q, 0, &op, &m);
        assert!(out.covered.contains(&Coord::d2(6, 6)));
        assert!(!out.covered.contains(&Coord::d2(1, 1)));
        // The covered cell contributed its radius-2 neighbourhood (clipped).
        assert!(out.result.len() >= 9);
    }

    #[test]
    fn payload_one_duplicates_payload_per_cell() {
        let m = meta();
        let mut one = OpDatastore::in_memory("one", StorageStrategy::pay_one(), &m);
        let mut many = OpDatastore::in_memory("many", StorageStrategy::pay_many(), &m);
        let outcells: Vec<Coord> = (0..8).map(|i| Coord::d2(3, i)).collect();
        let pair = RegionPair::Payload {
            outcells,
            payload: vec![42; 16],
        };
        one.store_pair(&pair);
        many.store_pair(&pair);
        // PayOne stores 8 copies of the payload; PayMany stores one entry
        // (plus the R-tree).  The hash-entry bytes alone must be larger for
        // PayOne.
        assert!(one.base.db.bytes_used() > many.base.db.bytes_used());
        assert_eq!(one.num_entries(), 8);
        assert_eq!(many.num_entries(), 1);
    }

    #[test]
    fn full_one_vs_full_many_storage_tradeoff() {
        let m = meta();
        // High fanout: many output cells share the same input cells.  The
        // FullMany encoding stores the output cells once; FullOne duplicates
        // a hash entry per output cell.
        let outcells: Vec<Coord> = Shape::d2(8, 8).iter().take(48).collect();
        let incells = vec![Coord::d2(0, 0), Coord::d2(0, 1)];
        let pair = full_pair(&outcells, &incells, &[]);
        let mut one = OpDatastore::in_memory("one", StorageStrategy::full_one(), &m);
        let mut many = OpDatastore::in_memory("many", StorageStrategy::full_many(), &m);
        one.store_pair(&pair);
        many.store_pair(&pair);
        assert!(one.num_entries() > many.num_entries());
        assert!(one.base.db.bytes_used() > many.base.db.bytes_used());
    }

    #[test]
    fn wrong_pair_kind_is_ignored() {
        let m = meta();
        let mut ds = OpDatastore::in_memory("t", StorageStrategy::full_one(), &m);
        ds.store_pair(&RegionPair::Payload {
            outcells: vec![Coord::d2(0, 0)],
            payload: vec![1],
        });
        assert_eq!(ds.pairs_stored(), 0);
        assert_eq!(ds.num_entries(), 0);

        let mut ds = OpDatastore::in_memory("t", StorageStrategy::pay_one(), &m);
        ds.store_pair(&full_pair(&[Coord::d2(0, 0)], &[Coord::d2(1, 1)], &[]));
        assert_eq!(ds.pairs_stored(), 0);
    }

    #[test]
    fn stats_accumulate() {
        let m = meta();
        let mut ds = OpDatastore::in_memory("t", StorageStrategy::full_many(), &m);
        assert_eq!(ds.bytes_used(), 0);
        for i in 0..10u32 {
            ds.store_pair(&full_pair(
                &[Coord::d2(i % 8, 0)],
                &[Coord::d2(i % 8, 1), Coord::d2(i % 8, 2)],
                &[],
            ));
        }
        assert_eq!(ds.pairs_stored(), 10);
        assert_eq!(ds.cells_stored(), 30);
        assert!(ds.bytes_used() > 0);
        assert!(ds.encode_time() > Duration::ZERO);
        assert_eq!(ds.strategy(), StorageStrategy::full_many());
    }

    #[test]
    fn empty_pairs_are_skipped() {
        let m = meta();
        let mut ds = OpDatastore::in_memory("t", StorageStrategy::full_one(), &m);
        ds.store_pair(&full_pair(&[], &[Coord::d2(0, 0)], &[]));
        assert_eq!(ds.num_entries(), 0);
    }

    /// A deterministic mixed workload of full and payload pairs, including
    /// shared output cells (key collisions), empty-outcell pairs and pairs of
    /// the "wrong" kind for the strategy under test.
    fn mixed_pairs() -> Vec<RegionPair> {
        let mut pairs = Vec::new();
        for i in 0..40u32 {
            let base = Coord::d2(i % 8, (i * 3) % 8);
            let shared = Coord::d2(0, 0);
            pairs.push(full_pair(
                &[base, shared],
                &[Coord::d2((i + 1) % 8, i % 8), Coord::d2(i % 8, (i + 5) % 8)],
                &[Coord::d2(7 - i % 8, 7 - i % 8)],
            ));
            pairs.push(RegionPair::Payload {
                outcells: vec![base],
                payload: vec![(i % 3) as u8, i as u8],
            });
        }
        pairs.push(full_pair(&[], &[Coord::d2(1, 1)], &[]));
        pairs.push(RegionPair::Payload {
            outcells: vec![],
            payload: vec![9],
        });
        pairs
    }

    fn all_strategies() -> Vec<StorageStrategy> {
        vec![
            StorageStrategy::full_one(),
            StorageStrategy::full_many(),
            StorageStrategy::full_one_forward(),
            StorageStrategy::full_many_forward(),
            StorageStrategy::pay_one(),
            StorageStrategy::pay_many(),
            StorageStrategy::composite_one(),
            StorageStrategy::composite_many(),
        ]
    }

    #[test]
    fn store_batch_matches_store_pair_byte_for_byte() {
        let m = meta();
        let pairs = mixed_pairs();
        for strategy in all_strategies() {
            for (label, batch_sizes) in [("batch64", vec![64]), ("batch7", vec![7])] {
                let mut reference = OpDatastore::in_memory("ref", strategy, &m);
                for pair in &pairs {
                    reference.store_pair(pair);
                }
                let mut batched = OpDatastore::in_memory("bat", strategy, &m);
                for chunk in pairs.chunks(batch_sizes[0]) {
                    batched.store_batch(chunk, 2);
                }
                assert_eq!(
                    batched.snapshot(),
                    reference.snapshot(),
                    "contents differ for {strategy} ({label})"
                );
                assert_eq!(batched.pairs_stored(), reference.pairs_stored());
                assert_eq!(batched.cells_stored(), reference.cells_stored());
                assert_eq!(batched.num_entries(), reference.num_entries());
            }
        }
    }

    #[test]
    fn store_batch_answers_queries_like_store_pair() {
        let m = meta();
        let op = RadiusOp;
        let pairs = mixed_pairs();
        let shape = Shape::d2(8, 8);
        for strategy in all_strategies() {
            let mut reference = OpDatastore::in_memory("ref", strategy, &m);
            for pair in &pairs {
                reference.store_pair(pair);
            }
            let mut batched = OpDatastore::in_memory("bat", strategy, &m);
            batched.store_batch(&pairs, 1);
            for i in 0..8 {
                let q = query_of(shape, &[Coord::d2(i, i), Coord::d2(i, 7 - i)]);
                let a = lookup(&mut batched, Direction::Backward, &q, 0, &op, &m);
                let b = lookup(&mut reference, Direction::Backward, &q, 0, &op, &m);
                assert_eq!(
                    a.result.to_coords(),
                    b.result.to_coords(),
                    "backward differs for {strategy}"
                );
                assert_eq!(a.covered.to_coords(), b.covered.to_coords());
                let a = lookup(&mut batched, Direction::Forward, &q, 0, &op, &m);
                let b = lookup(&mut reference, Direction::Forward, &q, 0, &op, &m);
                assert_eq!(
                    a.result.to_coords(),
                    b.result.to_coords(),
                    "forward differs for {strategy}"
                );
            }
        }
    }

    #[test]
    fn store_batch_then_store_pair_share_entry_ids() {
        // Ids allocated by a batch and by later per-pair stores never clash,
        // and late arrivals after the index was bulk-loaded are still found.
        let m = meta();
        let op = RadiusOp;
        let mut ds = OpDatastore::in_memory("t", StorageStrategy::full_many(), &m);
        ds.store_batch(&[full_pair(&[Coord::d2(1, 1)], &[Coord::d2(2, 2)], &[])], 1);
        // Build the index, then add a straggler through the per-pair path.
        let q = query_of(Shape::d2(8, 8), &[Coord::d2(1, 1)]);
        assert_eq!(
            lookup(&mut ds, Direction::Backward, &q, 0, &op, &m)
                .result
                .to_coords(),
            vec![Coord::d2(2, 2)]
        );
        ds.store_pair(&full_pair(&[Coord::d2(5, 5)], &[Coord::d2(6, 6)], &[]));
        let q = query_of(Shape::d2(8, 8), &[Coord::d2(5, 5)]);
        assert_eq!(
            lookup(&mut ds, Direction::Backward, &q, 0, &op, &m)
                .result
                .to_coords(),
            vec![Coord::d2(6, 6)]
        );
        assert_eq!(ds.pairs_stored(), 2);
    }

    #[test]
    fn lookup_many_matches_one_at_a_time_lookups() {
        // Batched multi-query lookups must return, per query, exactly what a
        // fresh one-at-a-time lookup returns — for every strategy, in both
        // directions, including the mismatched-direction scan paths and
        // queries that share hash entries.
        let m = meta();
        let op = RadiusOp;
        let pairs = mixed_pairs();
        let shape = Shape::d2(8, 8);
        let query_sets: Vec<CellSet> = (0..6)
            .map(|i| {
                query_of(
                    shape,
                    &[
                        Coord::d2(i, i),
                        Coord::d2(i, 7 - i),
                        Coord::d2(0, 0), // shared across all queries
                        Coord::d2((i * 3) % 8, 1),
                    ],
                )
            })
            .collect();
        let refs: Vec<&CellSet> = query_sets.iter().collect();
        for strategy in all_strategies() {
            let mut ds = OpDatastore::in_memory("t", strategy, &m);
            ds.store_batch(&pairs, 1);
            for (input_idx, direction) in [0, 1]
                .into_iter()
                .flat_map(|i| [(i, Direction::Backward), (i, Direction::Forward)])
            {
                let many = ds.lookup_many(direction, &refs, input_idx, &op, &m);
                assert_eq!(many.len(), refs.len());
                for (q, outcome) in query_sets.iter().zip(&many) {
                    let single = lookup(&mut ds, direction, q, input_idx, &op, &m);
                    let case = format!("{strategy} {direction:?} input {input_idx}");
                    assert_eq!(
                        outcome.result.to_coords(),
                        single.result.to_coords(),
                        "result differs for {case}"
                    );
                    assert_eq!(outcome.covered.to_coords(), single.covered.to_coords());
                    assert_eq!(outcome.scanned, single.scanned, "scanned flag {case}");
                    assert_eq!(
                        outcome.entries_fetched, single.entries_fetched,
                        "fetch accounting differs for {case}"
                    );
                }
            }
        }
    }

    /// A [`KvBackend`] that delegates every call to `inner` and counts the
    /// full scans (`scan_batch`/`scan_slices`) it serves.
    struct CountingBackend {
        inner: Box<dyn KvBackend>,
        scans: Arc<AtomicUsize>,
    }

    impl KvBackend for CountingBackend {
        fn put(&mut self, key: &[u8], value: &[u8]) {
            self.inner.put(key, value)
        }
        fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
            self.inner.get(key)
        }
        fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> bool {
            self.inner.get_into(key, out)
        }
        fn contains(&self, key: &[u8]) -> bool {
            self.inner.contains(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn is_empty(&self) -> bool {
            self.inner.is_empty()
        }
        fn iter(&self) -> Box<dyn Iterator<Item = (Vec<u8>, Vec<u8>)> + '_> {
            self.inner.iter()
        }
        fn bytes_used(&self) -> usize {
            self.inner.bytes_used()
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.inner.sync()
        }
        fn log_len(&self) -> Option<u64> {
            self.inner.log_len()
        }
        fn compact(&mut self) -> std::io::Result<u64> {
            self.inner.compact()
        }
        fn file_path(&self) -> Option<&std::path::Path> {
            self.inner.file_path()
        }
        fn persist_stamp(&self) -> u64 {
            self.inner.persist_stamp()
        }
        fn put_batch(&mut self, items: Vec<(Vec<u8>, Vec<u8>)>) {
            self.inner.put_batch(items)
        }
        fn put_batch_slices(&mut self, items: &[(&[u8], &[u8])]) {
            self.inner.put_batch_slices(items)
        }
        fn merge_append_batch(&mut self, items: &[(&[u8], &[u8])]) {
            self.inner.merge_append_batch(items)
        }
        fn write_group(&mut self, puts: &[(&[u8], &[u8])], appends: &[(&[u8], &[u8])]) {
            self.inner.write_group(puts, appends)
        }
        fn scan_batch(&self, block: usize, visit: &mut dyn FnMut(&[KvPair])) {
            self.scans.fetch_add(1, Ordering::SeqCst);
            self.inner.scan_batch(block, visit)
        }
        fn scan_slices(&self, block: usize, visit: &mut dyn FnMut(&[KvRef])) {
            self.scans.fetch_add(1, Ordering::SeqCst);
            self.inner.scan_slices(block, visit)
        }
    }

    #[test]
    fn lookup_many_shares_scans_on_file_backend() {
        // The batched mismatched-direction lookup over the file backend must
        // agree with singles (exercises FileBackend::scan_slices' sequential
        // path end to end) and stream the log once for the whole batch, where
        // the same queries one at a time stream it once each.
        let dir = std::env::temp_dir().join(format!("subzero-ds-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = meta();
        let op = RadiusOp;
        let scans = Arc::new(AtomicUsize::new(0));
        let backend = CountingBackend {
            inner: Box::new(FileBackend::open(&dir.join("scan.kv")).unwrap()),
            scans: Arc::clone(&scans),
        };
        let mut ds = OpDatastore::new(
            "t",
            StorageStrategy::full_one_forward(),
            &m,
            Box::new(backend),
        );
        ds.store_batch(&mixed_pairs(), 1);
        ds.finish_ingest();
        let shape = Shape::d2(8, 8);
        let query_sets: Vec<CellSet> = (0..4)
            .map(|i| query_of(shape, &[Coord::d2(i, i), Coord::d2(i + 1, i)]))
            .collect();
        let refs: Vec<&CellSet> = query_sets.iter().collect();

        scans.store(0, Ordering::SeqCst);
        let many = ds.lookup_many(Direction::Backward, &refs, 0, &op, &m);
        assert_eq!(scans.load(Ordering::SeqCst), 1, "one scan serves the batch");

        scans.store(0, Ordering::SeqCst);
        let singles: Vec<LookupOutcome> = query_sets
            .iter()
            .map(|q| lookup(&mut ds, Direction::Backward, q, 0, &op, &m))
            .collect();
        assert_eq!(
            scans.load(Ordering::SeqCst),
            query_sets.len(),
            "one scan per single lookup"
        );

        for (outcome, single) in many.iter().zip(&singles) {
            assert!(outcome.scanned, "mismatched direction must scan");
            assert_eq!(outcome.result.to_coords(), single.result.to_coords());
            assert_eq!(outcome.covered.to_coords(), single.covered.to_coords());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file backend whose scans hand out every cell record before any
    /// entry record: the order in which a scan join meets records naming
    /// entries it has not decoded yet, which a file log never produces.
    struct CellsFirst(FileBackend);

    impl KvBackend for CellsFirst {
        fn put(&mut self, key: &[u8], value: &[u8]) {
            self.0.put(key, value)
        }
        fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
            self.0.get(key)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn iter(&self) -> Box<dyn Iterator<Item = (Vec<u8>, Vec<u8>)> + '_> {
            self.0.iter()
        }
        fn bytes_used(&self) -> usize {
            self.0.bytes_used()
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.0.flush()
        }
        fn write_group(&mut self, puts: &[(&[u8], &[u8])], appends: &[(&[u8], &[u8])]) {
            self.0.write_group(puts, appends)
        }
        fn scan_slices(&self, block: usize, visit: &mut dyn FnMut(&[KvRef])) {
            let mut records: Vec<KvPair> = Vec::new();
            self.0.scan_slices(block, &mut |refs| {
                records.extend(refs.iter().map(|&(k, v)| (k.to_vec(), v.to_vec())));
            });
            // A stable sort: cell records keep their log order, then entries.
            let entry_tag = encoder::entry_key(0)[0];
            records.sort_by_key(|(key, _)| key.first() == Some(&entry_tag));
            for chunk in records.chunks(block.max(1)) {
                let refs: Vec<KvRef> = chunk
                    .iter()
                    .map(|(k, v)| (k.as_slice(), v.as_slice()))
                    .collect();
                visit(&refs);
            }
        }
    }

    #[test]
    fn scan_join_answers_do_not_depend_on_record_order() {
        // The streamed scan join defers a cell record naming an entry it has
        // not scanned yet; answers and fetch accounting must come out exactly
        // as from the same store scanned in log order, batched or single, for
        // every `Full` layout in both directions.
        let dir = std::env::temp_dir().join(format!("subzero-ds-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (m, op) = (meta(), RadiusOp);
        let pairs = mixed_pairs();
        let shape = Shape::d2(8, 8);
        let query_sets: Vec<CellSet> = (0..5)
            .map(|i| {
                query_of(
                    shape,
                    &[Coord::d2(i, i), Coord::d2(i, 7 - i), Coord::d2(0, 0)],
                )
            })
            .collect();
        let refs: Vec<&CellSet> = query_sets.iter().collect();
        for strategy in full_strategies() {
            let open = |tag: &str| {
                FileBackend::open(&dir.join(format!("{}-{tag}.kv", strategy.db_suffix()))).unwrap()
            };
            let mut plain = OpDatastore::new("t", strategy, &m, Box::new(open("plain")));
            let mut reordered =
                OpDatastore::new("t", strategy, &m, Box::new(CellsFirst(open("reordered"))));
            for ds in [&mut plain, &mut reordered] {
                // Two batches: the second's cell records supersede the
                // first's.
                let (first, second) = pairs.split_at(pairs.len() / 2);
                ds.store_batch(first, 1);
                ds.store_batch(second, 1);
                ds.finish_ingest();
            }
            for (input_idx, direction) in [0, 1]
                .into_iter()
                .flat_map(|i| [(i, Direction::Backward), (i, Direction::Forward)])
            {
                let expected = plain.lookup_many(direction, &refs, input_idx, &op, &m);
                let batched = reordered.lookup_many(direction, &refs, input_idx, &op, &m);
                for (q, (want, got)) in expected.iter().zip(&batched).enumerate() {
                    let single = lookup(&mut reordered, direction, refs[q], input_idx, &op, &m);
                    for got in [got, &single] {
                        let case = format!("{strategy} {direction:?} input {input_idx} query {q}");
                        assert_eq!(got.result.to_coords(), want.result.to_coords(), "{case}");
                        assert_eq!(got.covered.to_coords(), want.covered.to_coords(), "{case}");
                        assert_eq!(got.entries_fetched, want.entries_fetched, "{case}");
                        assert_eq!(got.scanned, want.scanned, "{case}");
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_many_with_empty_batch_and_empty_queries() {
        let m = meta();
        let op = RadiusOp;
        let mut ds = OpDatastore::in_memory("t", StorageStrategy::full_many(), &m);
        ds.store_pair(&full_pair(&[Coord::d2(2, 2)], &[Coord::d2(3, 3)], &[]));
        assert!(ds
            .lookup_many(Direction::Backward, &[], 0, &op, &m)
            .is_empty());
        let empty = CellSet::empty(Shape::d2(8, 8));
        let full = query_of(Shape::d2(8, 8), &[Coord::d2(2, 2)]);
        let outs = ds.lookup_many(Direction::Backward, &[&empty, &full], 0, &op, &m);
        assert!(outs[0].result.is_empty());
        assert_eq!(outs[1].result.to_coords(), vec![Coord::d2(3, 3)]);
    }

    /// A workload where almost every pair re-touches the same few keys — the
    /// case the write-side key interner exists for.
    fn high_dup_pairs() -> Vec<RegionPair> {
        let hot = [Coord::d2(0, 0), Coord::d2(1, 1), Coord::d2(2, 2)];
        let mut pairs = Vec::new();
        for i in 0..96u32 {
            pairs.push(full_pair(
                &[hot[(i % 3) as usize], hot[((i + 1) % 3) as usize]],
                &[hot[(i % 3) as usize], Coord::d2(i % 8, 7)],
                &[hot[((i + 2) % 3) as usize]],
            ));
            pairs.push(RegionPair::Payload {
                outcells: vec![hot[(i % 3) as usize]],
                // Two bytes: a small radius (RadiusOp reads the first byte)
                // plus a discriminator so every payload is distinct.
                payload: vec![(i % 3) as u8, i as u8],
            });
        }
        pairs
    }

    #[test]
    fn deduped_batched_ingest_matches_per_pair_byte_for_byte() {
        // Write-side key dedup coalesces the repeated keys of a batch before
        // they reach the kv table; the stored bytes and every query answer
        // must still be exactly what the per-pair reference path produces.
        let m = meta();
        let op = RadiusOp;
        let pairs = high_dup_pairs();
        let shape = Shape::d2(8, 8);
        for strategy in all_strategies() {
            let mut reference = OpDatastore::in_memory("ref", strategy, &m);
            for pair in &pairs {
                reference.store_pair(pair);
            }
            for workers in [1usize, 4] {
                let mut batched = OpDatastore::in_memory("bat", strategy, &m);
                for chunk in pairs.chunks(48) {
                    batched.store_batch(chunk, workers);
                }
                assert_eq!(
                    batched.snapshot(),
                    reference.snapshot(),
                    "dedup'd contents differ for {strategy} (workers={workers})"
                );
                for i in 0..4 {
                    let q = query_of(shape, &[Coord::d2(i, i), Coord::d2(0, 0)]);
                    for input_idx in 0..2 {
                        let a = lookup(&mut batched, Direction::Backward, &q, input_idx, &op, &m);
                        let b = lookup(&mut reference, Direction::Backward, &q, input_idx, &op, &m);
                        assert_eq!(a.result.to_coords(), b.result.to_coords());
                        assert_eq!(a.covered.to_coords(), b.covered.to_coords());
                        let a = lookup(&mut batched, Direction::Forward, &q, input_idx, &op, &m);
                        let b = lookup(&mut reference, Direction::Forward, &q, input_idx, &op, &m);
                        assert_eq!(a.result.to_coords(), b.result.to_coords());
                    }
                }
            }
        }
    }

    /// Reopens an on-disk datastore over the same `.kv` file.
    fn reopen(path: &std::path::Path, strategy: StorageStrategy, m: &OpMeta) -> OpDatastore {
        let backend = subzero_store::kv::FileBackend::open(path).unwrap();
        OpDatastore::new("t", strategy, m, Box::new(backend))
    }

    /// Every lookup answer (both directions, both inputs) over a probe grid.
    fn probe_answers(ds: &mut OpDatastore, op: &dyn Operator, m: &OpMeta) -> Vec<Vec<Coord>> {
        let shape = Shape::d2(8, 8);
        let mut answers = Vec::new();
        for i in 0..8 {
            let q = query_of(shape, &[Coord::d2(i, i), Coord::d2(i, (i + 3) % 8)]);
            for input_idx in 0..2 {
                answers.push(
                    lookup(ds, Direction::Backward, &q, input_idx, op, m)
                        .result
                        .to_coords(),
                );
                answers.push(
                    lookup(ds, Direction::Forward, &q, input_idx, op, m)
                        .result
                        .to_coords(),
                );
            }
        }
        answers
    }

    #[test]
    fn sidecar_restores_index_and_counters_on_reopen() {
        let dir = std::env::temp_dir().join(format!("subzero-ds-sidecar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = meta();
        let op = RadiusOp;
        for (i, strategy) in all_strategies().iter().enumerate() {
            let path = dir.join(format!("s{i}.kv"));
            let mut ds = reopen(&path, *strategy, &m);
            ds.store_batch(&mixed_pairs(), 2);
            ds.finish_ingest();
            let (pairs, cells, next) = (
                ds.base.pairs_stored,
                ds.base.cells_stored,
                ds.base.next_entry_id,
            );
            let expected = probe_answers(&mut ds, &op, &m);
            drop(ds);
            let sidecar = dir.join(format!("s{i}.kv.idx"));
            assert!(sidecar.exists(), "finish_ingest persists the sidecar");

            let mut back = reopen(&path, *strategy, &m);
            assert_eq!(back.base.pairs_stored, pairs, "strategy {strategy}");
            assert_eq!(back.base.cells_stored, cells, "strategy {strategy}");
            assert_eq!(back.base.next_entry_id, next, "strategy {strategy}");
            assert!(
                back.base.rtree_staged.is_empty(),
                "sidecar load must not leave staged entries"
            );
            assert_eq!(
                probe_answers(&mut back, &op, &m),
                expected,
                "strategy {strategy}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecar_is_rewritten_only_when_the_store_changed() {
        let dir = std::env::temp_dir().join(format!("subzero-ds-skip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = meta();
        let path = dir.join("skip.kv");
        let sidecar = dir.join("skip.kv.idx");
        let mut ds = reopen(&path, StorageStrategy::full_one(), &m);
        ds.store_batch(&high_dup_pairs(), 1);
        ds.finish_ingest();
        let first = std::fs::read(&sidecar).unwrap();
        // The commit path finishes a run twice; with nothing new the second
        // pass must not touch the file (deleted here to make a write visible).
        std::fs::remove_file(&sidecar).unwrap();
        ds.finish_ingest();
        assert!(!sidecar.exists(), "unchanged store rewrote its sidecar");
        // New lineage and a compaction both move the stamp: rewritten.
        ds.store_batch(&high_dup_pairs(), 1);
        ds.finish_ingest();
        let second = std::fs::read(&sidecar).unwrap();
        assert_ne!(first, second);
        assert!(ds.compact().unwrap() > 0, "delta chains to fold");
        assert_ne!(std::fs::read(&sidecar).unwrap(), second);
        let cells = ds.base.cells_stored;
        drop(ds);
        // The rewritten sidecar describes the dense log: a reopen loads it
        // (a rebuild from the log undercounts FullOne's cells).
        let back = reopen(&path, StorageStrategy::full_one(), &m);
        assert_eq!(back.base.cells_stored, cells);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_sidecar_rebuilds_every_strategy_from_log() {
        // The rebuild derives each layout's index from its entry records:
        // R-tree boxes on the indexed side for the `Many` layouts, nothing
        // for the `One` layouts, whose cell records are the index.
        let dir =
            std::env::temp_dir().join(format!("subzero-ds-rebuild-all-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (m, op) = (meta(), RadiusOp);
        for (i, strategy) in all_strategies().into_iter().enumerate() {
            let path = dir.join(format!("s{i}.kv"));
            let mut ds = reopen(&path, strategy, &m);
            ds.store_batch(&mixed_pairs(), 2);
            ds.finish_ingest();
            let next = ds.base.next_entry_id;
            let expected = probe_answers(&mut ds, &op, &m);
            drop(ds);
            std::fs::remove_file(dir.join(format!("s{i}.kv.idx"))).unwrap();
            let mut back = reopen(&path, strategy, &m);
            assert_eq!(back.base.next_entry_id, next, "strategy {strategy}");
            assert_eq!(
                probe_answers(&mut back, &op, &m),
                expected,
                "strategy {strategy}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "stores no region pairs")]
    fn strategies_without_pairs_have_no_datastore() {
        OpDatastore::in_memory("t", StorageStrategy::mapping(), &meta());
    }

    #[test]
    fn corrupt_or_missing_sidecar_rebuilds_from_log() {
        let dir = std::env::temp_dir().join(format!("subzero-ds-rebuild-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = meta();
        let op = RadiusOp;
        let strategy = StorageStrategy::full_many();
        let path = dir.join("r.kv");
        let sidecar = dir.join("r.kv.idx");
        let mut ds = reopen(&path, strategy, &m);
        ds.store_batch(&mixed_pairs(), 2);
        ds.finish_ingest();
        let next = ds.base.next_entry_id;
        let expected = probe_answers(&mut ds, &op, &m);
        drop(ds);

        // Deleted sidecar: reopen rebuilds index + entry ids from the log.
        std::fs::remove_file(&sidecar).unwrap();
        let mut back = reopen(&path, strategy, &m);
        assert_eq!(back.base.next_entry_id, next);
        assert_eq!(probe_answers(&mut back, &op, &m), expected);
        drop(back);

        // Corrupted sidecar bytes: reopen warns, rebuilds, answers identically.
        for corrupt in [
            b"garbage".to_vec(),
            std::fs::read(&sidecar)
                .map(|mut b| {
                    let mid = b.len() / 2;
                    b[mid] ^= 0xff;
                    b.truncate(b.len() - 3);
                    b
                })
                .unwrap_or_else(|_| vec![0; 40]),
        ] {
            std::fs::write(&sidecar, &corrupt).unwrap();
            let mut back = reopen(&path, strategy, &m);
            assert_eq!(back.base.next_entry_id, next);
            assert_eq!(probe_answers(&mut back, &op, &m), expected);
            drop(back);
        }

        // Stale sidecar (log grew after it was written): the stamp no longer
        // matches, so the reopen must ignore it and rebuild.
        let mut grow = reopen(&path, strategy, &m);
        grow.finish_ingest(); // fresh, valid sidecar
                              // Flushed to the log by the group write, but the sidecar is not
                              // rewritten — exactly the crash-mid-ingest window.
        grow.store_batch(&[full_pair(&[Coord::d2(7, 0)], &[Coord::d2(0, 7)], &[])], 1);
        let expected_grown = probe_answers(&mut grow, &op, &m);
        let next_grown = grow.base.next_entry_id;
        drop(grow);
        let mut back = reopen(&path, strategy, &m);
        assert_eq!(back.base.next_entry_id, next_grown);
        assert_eq!(probe_answers(&mut back, &op, &m), expected_grown);

        // Ingest continues cleanly after a rebuild-recovered reopen.
        back.store_batch(&[full_pair(&[Coord::d2(0, 7)], &[Coord::d2(7, 7)], &[])], 1);
        back.finish_ingest();
        let q = query_of(Shape::d2(8, 8), &[Coord::d2(0, 7)]);
        let out = lookup(&mut back, Direction::Backward, &q, 0, &op, &m);
        assert!(out.result.contains(&Coord::d2(7, 7)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_batch_ignores_wrong_kinds_and_empty_batches() {
        let m = meta();
        let mut ds = OpDatastore::in_memory("t", StorageStrategy::full_one(), &m);
        ds.store_batch(&[], 1);
        ds.store_batch(
            &[RegionPair::Payload {
                outcells: vec![Coord::d2(0, 0)],
                payload: vec![1],
            }],
            1,
        );
        assert_eq!(ds.pairs_stored(), 0);
        assert_eq!(ds.num_entries(), 0);
    }
}
