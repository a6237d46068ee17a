//! `Full` records: region pairs stored whole (the `FullOne`/`FullMany`
//! layouts of Fig. 4), their batch ingest, their lookups and the
//! mismatched-direction scan join.

use subzero_array::{BoundingBox, CellSet, Coord, Shape};
use subzero_engine::RegionPair;
use subzero_store::codec::{self, CellRun, ScanFrame};
use subzero_store::hash::FxHashMap;
use subzero_store::kv::KvBackend;

use super::{
    cache_shards, candidate_entries, encode_shards, fan_out, Base, LookupOutcome, SCAN_BLOCK,
};
use crate::encoder::{
    self, decode_entry_ids_into, decode_full_entry_frame, decode_key_linear, for_each_entry_id,
    DecodedKeyLinear, FullEntryRuns, PackedCellKey,
};
use crate::model::{Direction, Granularity};

/// Per-worker columnar cache of the `Full` entries an indexed lookup
/// fetched, with the scratch buffers its record reads reuse.
///
/// Each entry body is decoded once by [`decode_full_entry_frame`] into the
/// flat `frame` (the representation the mismatched-direction scan join
/// decodes into), and the lookup answers from its [`FullEntryRuns`] in
/// linear-index space: no `Vec<Coord>` per entry, no allocation per record
/// read once the buffers are warm.
///
/// Entries are found by `(entry id, input)` — the input is part of the key
/// because the frame holds only the queried input's cells — through a
/// dense table over the ids below the store's next entry id, so resolving
/// an id hashes nothing; any other id (only a corrupt log holds one) falls
/// back to a map, as in [`EntryHits`].  A table slot counts only when the
/// entry it points at carries its key, so emptying `entries` clears the
/// cache in O(1).
///
/// The `One` arm reads a query cell's record only when the store's
/// [`CellMemo`] lacks it, with the cache of the lookup's first worker,
/// before the workers start.
#[derive(Default)]
struct FullCache {
    /// Slot `id * inputs + input` -> index in `entries`.
    dense: Vec<u32>,
    /// The store's input count: the stride of `dense`.
    inputs: usize,
    /// `(entry id, input)` -> index in `entries`, for ids past `dense`.
    sparse: FxHashMap<(u64, usize), u32>,
    /// Every cached entry, in fetch order.
    entries: Vec<CachedEntry>,
    /// The cell-index column every cached run points into.
    frame: ScanFrame,
    /// Scratch key of the record being read.
    key: Vec<u8>,
    /// Scratch value of the record being read.
    value: Vec<u8>,
    /// Scratch entry ids of the cell record being read.
    ids: Vec<u64>,
    /// Entry ids the query's cell records name (one entry is often named
    /// by many query cells, so ids are deduplicated before their answer
    /// cells are gathered).
    named: Vec<u64>,
    /// Covered query cells of the query being answered, merged into the
    /// outcome's set once per query.
    covered: Vec<u64>,
    /// Answer cells of the query being answered, merged like `covered`.
    result: Vec<u64>,
}

/// One entry of a [`FullCache`].
#[derive(Clone, Copy)]
struct CachedEntry {
    id: u64,
    input: usize,
    /// Whether a body exists for the id (for per-query fetch accounting).
    present: bool,
    /// The body's runs in the cache's frame, if it decoded.
    runs: Option<FullEntryRuns>,
}

impl FullCache {
    /// Sizes the dense table for a store of `inputs` inputs whose entry ids
    /// lie below `dense_ids`.  A fresh table is zero-allocated, so its
    /// untouched pages cost no memory.
    fn size_for(&mut self, dense_ids: usize, inputs: usize) {
        self.inputs = inputs;
        let want = dense_ids.saturating_mul(inputs);
        if self.dense.is_empty() {
            self.dense = vec![0; want];
        } else if self.dense.len() < want {
            self.dense.resize(want, 0);
        }
    }

    /// The dense slot of `(id, input_idx)`, if it has one.
    fn dense_slot(&self, id: u64, input_idx: usize) -> Option<usize> {
        if input_idx >= self.inputs {
            return None;
        }
        let slot = usize::try_from(id)
            .ok()?
            .checked_mul(self.inputs)?
            .checked_add(input_idx)?;
        (slot < self.dense.len()).then_some(slot)
    }

    /// Whether a body exists for entry `id` (for per-query fetch accounting)
    /// and its runs for input `input_idx`, fetching and decoding on first
    /// use.  Reads go through the shared `&dyn KvBackend` so caches can live
    /// on the worker threads of a fanned-out lookup, which share the store
    /// immutably.
    fn entry(
        &mut self,
        db: &dyn KvBackend,
        id: u64,
        out_cells: u64,
        in_cells: &[u64],
        input_idx: usize,
    ) -> (bool, Option<FullEntryRuns>) {
        let slot = self.dense_slot(id, input_idx);
        let index = match slot {
            Some(slot) => Some(self.dense[slot]),
            None => self.sparse.get(&(id, input_idx)).copied(),
        };
        if let Some(e) = index.and_then(|k| self.entries.get(k as usize)) {
            if e.id == id && e.input == input_idx {
                return (e.present, e.runs);
            }
        }
        self.key.clear();
        encoder::entry_key_into(&mut self.key, id);
        let present = db.get_into(&self.key, &mut self.value);
        let runs = present
            .then(|| {
                decode_full_entry_frame(
                    &mut self.frame,
                    out_cells,
                    in_cells,
                    input_idx,
                    &self.value,
                )
                .ok()
            })
            .flatten();
        if let Ok(k) = u32::try_from(self.entries.len()) {
            self.entries.push(CachedEntry {
                id,
                input: input_idx,
                present,
                runs,
            });
            match slot {
                Some(slot) => self.dense[slot] = k,
                None => {
                    self.sparse.insert((id, input_idx), k);
                }
            }
        }
        (present, runs)
    }

    /// Reads the record of query cell `qc` on `side` into `ids` and returns
    /// whether it exists and how many of the entries it names have bodies.
    fn read_cell(
        &mut self,
        db: &dyn KvBackend,
        side: RecordSide,
        qc: u64,
        out_cells: u64,
        in_cells: &[u64],
        input_idx: usize,
    ) -> (bool, usize) {
        self.key.clear();
        side.packed_key(qc).write_into(&mut self.key);
        let exists = db.get_into(&self.key, &mut self.value);
        self.ids.clear();
        if exists {
            // A torn id list decodes to no ids.
            let _ = decode_entry_ids_into(&mut self.ids, &self.value);
        }
        let mut fetched = 0;
        for k in 0..self.ids.len() {
            fetched += self
                .entry(db, self.ids[k], out_cells, in_cells, input_idx)
                .0 as usize;
        }
        (exists, fetched)
    }

    /// Forgets every cached entry (keeping the allocations): a cached "no
    /// body for this id" miss can be invalidated by a later write of that
    /// entry id.
    fn clear(&mut self) {
        self.entries.clear();
        self.sparse.clear();
        self.frame.clear();
    }
}

/// What the indexed `One` arm read from the cell records of one query side
/// (a backward store's output cells, or one input's cells of a forward
/// store), shared by every worker of the store's lookups: per query cell,
/// whether its record exists, how many of the entries it names have bodies
/// and their ids — exactly what reading the record produces, a torn id
/// list's empty one included.  A warm query cell costs one table read and
/// one copy of its ids instead of a record read, an id decode and a probe
/// per id.  A lookup reads the records of its cold query cells before its
/// workers start, so the workers share the memo read-only and keep no log
/// of their own.
///
/// The table holds one `u32` per query-side cell, zero-allocated on the
/// first lookup, so a store never looked up allocates nothing and only the
/// pages of read cells become resident.  A missing record and a record
/// naming one entry with a body — the common case — live in the slot
/// itself; any other record adds 12 bytes plus 4 per id.  Clearing drops
/// the table, in O(1).
#[derive(Default)]
struct CellMemo {
    /// Query cell (linear index) -> [`UNREAD`], [`ABSENT`], `2 * id + 3`
    /// for a record naming only entry `id`, which has a body, or
    /// `2 * k + 2` for `reads[k]`.
    slots: Vec<u32>,
    /// The records no slot holds inline, in read order.
    reads: Vec<CellRead>,
    /// Their entry ids, back to back (entry ids of a store with fewer
    /// than 2^32 entries fit).
    ids: Vec<u32>,
}

/// A [`CellMemo`] slot whose cell has not been read.
const UNREAD: u32 = 0;
/// A [`CellMemo`] slot whose cell has no record.
const ABSENT: u32 = 1;

/// A memoised cell record that exists and is not held inline.
#[derive(Clone, Copy)]
struct CellRead {
    /// How many of the named entries have bodies.
    fetched: u32,
    /// Where the record's entry ids start in the memo's `ids`.
    start: u32,
    /// How many entry ids the record names.
    len: u32,
}

impl CellMemo {
    /// Allocates the table for a query side of `cells` cells, unless it
    /// exists.
    fn size_for(&mut self, cells: u64) {
        if self.slots.is_empty() {
            self.slots = vec![UNREAD; cells as usize];
        }
    }

    /// Whether query cell `cell` lies in the table and has not been read.
    fn is_unread(&self, cell: u64) -> bool {
        usize::try_from(cell).is_ok_and(|c| self.slots.get(c) == Some(&UNREAD))
    }

    /// Appends the entry ids memoised for query cell `cell` to `named` and
    /// returns whether its record exists and how many of those entries
    /// have bodies; `None` if the cell has not been read.
    fn lookup(&self, cell: u64, named: &mut Vec<u64>) -> Option<(bool, usize)> {
        match *self.slots.get(usize::try_from(cell).ok()?)? {
            UNREAD => None,
            ABSENT => Some((false, 0)),
            slot if slot & 1 == 1 => {
                named.push(u64::from(slot / 2 - 1));
                Some((true, 1))
            }
            slot => {
                let read = self.reads[(slot / 2 - 1) as usize];
                let ids = &self.ids[read.start as usize..][..read.len as usize];
                named.extend(ids.iter().map(|&id| u64::from(id)));
                Some((true, read.fetched as usize))
            }
        }
    }

    /// Records what reading the record of `cell`, an unread cell of the
    /// table, produced.  A record too large for the `u32` fields is not
    /// memoised, which only costs a later re-read.
    fn insert(&mut self, cell: u64, exists: bool, fetched: usize, ids: &[u64]) {
        let inline = match *ids {
            _ if !exists => Some(ABSENT),
            [id] if fetched == 1 => u32::try_from(id)
                .ok()
                .and_then(|id| id.checked_add(1)?.checked_mul(2)?.checked_add(1)),
            _ => None,
        };
        if let Some(slot) = inline.or_else(|| self.push_read(fetched, ids)) {
            self.slots[cell as usize] = slot;
        }
    }

    /// Appends a record to `reads`, returning its slot value.
    fn push_read(&mut self, fetched: usize, ids: &[u64]) -> Option<u32> {
        let slot = u32::try_from(self.reads.len())
            .ok()?
            .checked_add(1)?
            .checked_mul(2)?;
        let read = CellRead {
            fetched: u32::try_from(fetched).ok()?,
            start: u32::try_from(self.ids.len()).ok()?,
            len: u32::try_from(ids.len()).ok()?,
        };
        if ids.iter().any(|&id| u32::try_from(id).is_err()) {
            return None;
        }
        self.reads.push(read);
        self.ids.extend(ids.iter().map(|&id| id as u32));
        Some(slot)
    }

    /// Forgets every record, dropping the table.
    fn clear(&mut self) {
        self.slots = Vec::new();
        self.reads.clear();
        self.ids.clear();
    }
}

/// The records of a `Full` store and its lookup caches.
#[derive(Default)]
pub(super) struct FullRecords {
    /// Per-worker columnar caches reused across indexed lookups.  Shard `i`
    /// of a fanned-out lookup always runs with cache `i`, so repeat batches
    /// against an unchanged store hit warm caches and reuse warm buffers.
    caches: Vec<FullCache>,
    /// The `One` arm's cell-record memos, one per query side: index 0 for
    /// a backward store's output cells, index `i` for input `i`'s cells of
    /// a forward store.
    memos: Vec<CellMemo>,
}

impl FullRecords {
    /// Drops every cached decoded entry and memoised cell record; every
    /// write and every compaction calls this.
    pub(super) fn clear_caches(&mut self) {
        self.caches.iter_mut().for_each(FullCache::clear);
        self.memos.iter_mut().for_each(CellMemo::clear);
    }

    /// [`OpDatastore::store_batch`](super::OpDatastore::store_batch) for
    /// `Full` pairs: each pair's entry body holds the sides its layout
    /// stores, then its indexed side becomes index records — cell keys for a
    /// `One` layout, bounding boxes for a `Many` layout.
    pub(super) fn store_batch(&mut self, store: &mut Base, pairs: &[RegionPair], workers: usize) {
        self.clear_caches();
        // Pairs whose kind matches the strategy count toward the statistics
        // (as in store_pair); only those with output cells allocate entries.
        let mut work: Vec<(&Vec<Coord>, &[Vec<Coord>])> = Vec::with_capacity(pairs.len());
        for pair in pairs {
            if let RegionPair::Full { outcells, incells } = pair {
                store.pairs_stored += 1;
                store.cells_stored += pair.num_cells() as u64;
                if !outcells.is_empty() {
                    work.push((outcells, incells));
                }
            }
        }
        if work.is_empty() {
            return;
        }
        let (out_shape, in_shapes) = (&store.out_shape, &store.in_shapes);
        let direction = store.strategy.direction;
        // A `Many` entry holds both sides; a `One` entry holds only the side
        // its cell records are not keyed on.
        let many = store.strategy.granularity == Granularity::Many;
        let keeps_out = many || direction == Direction::Forward;
        let keeps_in = many || direction == Direction::Backward;
        // The input side of an entry that omits it: empty cell lists, built
        // once, not once per pair.
        let empty_incells: Vec<Vec<Coord>> = vec![Vec::new(); in_shapes.len()];
        let shards = encode_shards(&work, workers, true, |&(outcells, incells), shard| {
            encoder::encode_full_entry_into(
                shard.bodies.buf_mut(),
                out_shape,
                in_shapes,
                outcells,
                if keeps_in { incells } else { &empty_incells },
                keeps_out,
            );
            for (j, cells) in indexed(direction, outcells, incells).iter().enumerate() {
                if many {
                    shard.boxes.extend(BoundingBox::enclosing(cells));
                } else {
                    // List `j` is keyed on the query side of a lookup in the
                    // store's own direction about input `j`.
                    let side = RecordSide::of(direction, j).0;
                    let shape = side.shape(out_shape, in_shapes);
                    let pack = |c| side.packed_key(codec::pack_coord(&shape, c));
                    shard.keys.extend(cells.iter().map(pack));
                }
            }
        });
        let key_space = indexed(direction, out_shape, in_shapes)
            .iter()
            .map(Shape::num_cells)
            .sum();
        store.write_shards(&shards, &work, true, key_space, |_, id, value| {
            encoder::append_entry_id(value, id)
        });
    }

    /// [`OpDatastore::lookup_many`](super::OpDatastore::lookup_many) over
    /// `Full` records.  A forward lookup is a backward lookup with the region
    /// pair's sides swapped (§VI-A), so each arm is written once over the
    /// lookup's query and answer sides ([`RecordSide`]): indexed by cell
    /// records (`One`) or by the R-tree (`Many`) when the store's index
    /// serves `direction`, else one shared scan.
    pub(super) fn lookup_many(
        &mut self,
        store: &Base,
        direction: Direction,
        queries: &[&CellSet],
        input_idx: usize,
    ) -> Vec<LookupOutcome> {
        let (query_side, answer_side) = RecordSide::of(direction, input_idx);
        let db = &*store.db;
        let rtree = store.rtree.as_ref();
        let empty_outcome = |scanned| store.empty_outcome(direction, input_idx, scanned);
        let (out_cells, in_cells) = (store.out_cells, &store.in_cells[..]);
        if !store.strategy.serves(direction) {
            return scan_join_full(store, queries, direction, input_idx, || empty_outcome(true));
        }
        let caches = cache_shards(&mut self.caches, store.workers, queries.len());
        for cache in caches.iter_mut() {
            cache.size_for(store.dense_entry_ids(), in_cells.len());
        }
        // Both arms answer in linear-index space from the worker's columnar
        // cache, like the scan join: hits collect in the cache's flat scratch
        // lists and each answer set is built once.
        match store.strategy.granularity {
            Granularity::One => {
                let (side, side_cells) = match query_side {
                    RecordSide::Out => (0, out_cells),
                    RecordSide::In(i) => (i, in_cells[i]),
                };
                if self.memos.len() <= side {
                    self.memos.resize_with(side + 1, CellMemo::default);
                }
                let memo = &mut self.memos[side];
                memo.size_for(side_cells);
                // The memo's cold query cells are read here, once, so the
                // workers share it read-only.
                let reader = &mut caches[0];
                for qc in queries.iter().flat_map(|query| query.iter_linear()) {
                    let qc = qc as u64;
                    if memo.is_unread(qc) {
                        let (exists, fetched) =
                            reader.read_cell(db, query_side, qc, out_cells, in_cells, input_idx);
                        memo.insert(qc, exists, fetched, &reader.ids);
                    }
                }
                let memo = &*memo;
                fan_out(queries, caches, |cache, query| {
                    let mut out = empty_outcome(false);
                    for qc in query.iter_linear() {
                        let qc = qc as u64;
                        let (exists, fetched) = match memo.lookup(qc, &mut cache.named) {
                            Some(read) => read,
                            // A record the memo could not hold.
                            None => {
                                let read = cache
                                    .read_cell(db, query_side, qc, out_cells, in_cells, input_idx);
                                cache.named.extend_from_slice(&cache.ids);
                                read
                            }
                        };
                        out.entries_fetched += fetched;
                        if exists {
                            cache.covered.push(qc);
                        }
                    }
                    insert_all(&mut out.covered, &mut cache.covered);
                    // Each named entry's answer cells are gathered once.
                    cache.named.sort_unstable();
                    cache.named.dedup();
                    for k in 0..cache.named.len() {
                        let id = cache.named[k];
                        if let (_, Some(runs)) = cache.entry(db, id, out_cells, in_cells, input_idx)
                        {
                            cache
                                .result
                                .extend_from_slice(cache.frame.run(answer_side.run(runs)));
                        }
                    }
                    cache.named.clear();
                    insert_all(&mut out.result, &mut cache.result);
                    out
                })
            }
            Granularity::Many => fan_out(queries, caches, |cache, query| {
                let mut out = empty_outcome(false);
                for id in candidate_entries(rtree, query) {
                    let (present, runs) = cache.entry(db, id, out_cells, in_cells, input_idx);
                    out.entries_fetched += present as usize;
                    let Some(runs) = runs else { continue };
                    let FullCache {
                        frame,
                        covered,
                        result,
                        ..
                    } = cache;
                    let cells = frame.run(query_side.run(runs));
                    if query.intersect_sorted(cells, |c| covered.push(c)) {
                        result.extend_from_slice(frame.run(answer_side.run(runs)));
                    }
                }
                insert_all(&mut out.covered, &mut cache.covered);
                insert_all(&mut out.result, &mut cache.result);
                out
            }),
        }
    }
}

/// Answers a batch of mismatched-direction lookups over a `Full` store in
/// one streamed pass of [`KvBackend::scan_slices`] that joins while it
/// decodes, in memory independent of the store's size beyond two bits per
/// entry and one mask per hit entry and per query cell (see [`EntryHits`]).
///
/// Each entry record decodes into one reused [`ScanFrame`] and probes the
/// union of the batch's queries once per query-side cell; only the cells
/// that meet it cost a walk of their queries, leaving the entry's hit mask,
/// and a `Many` store's hit entries contribute their answer-side cells
/// right there.  A `One` store's cell records — keyed on the answer side —
/// join as they stream by: a record's cell answers every query that hits
/// an entry it names.  Its ids are decoded in place and each is tested
/// against the seen and hit bits; a mask is read only for a hit entry.  So
/// the join costs a probe per entry cell and a bit test per named id, plus
/// work per hit, not per record and query.  A record naming an entry not
/// yet scanned is deferred and joined after the pass, so answers never
/// depend on scan order; on a file log a live cell record follows every
/// entry it names, and nothing is deferred.
fn scan_join_full(
    store: &Base,
    queries: &[&CellSet],
    direction: Direction,
    input_idx: usize,
    empty_outcome: impl Fn() -> LookupOutcome,
) -> Vec<LookupOutcome> {
    let (query_side, answer_side) = RecordSide::of(direction, input_idx);
    let many = store.strategy.granularity == Granularity::Many;
    let (out_cells, in_cells) = (store.out_cells, &store.in_cells[..]);
    let words = queries.len().div_ceil(64);
    // The union of the queries, as a map from each query-side cell to the
    // queries holding it: an entry probes it once per cell, and only the
    // cells it holds cost a walk of their queries.
    let mut union = MaskMap::new(words);
    for (q, query) in queries.iter().enumerate() {
        for cell in query.iter_linear() {
            union.entry(cell as u64)[q / 64] |= 1 << (q % 64);
        }
    }
    let mut outs: Vec<LookupOutcome> = queries.iter().map(|_| empty_outcome()).collect();
    // Hits gather in flat per-query lists, merged into the answer sets once
    // they outgrow them (`absorb`) and at the end.
    let mut covered: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
    let mut result: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
    let mut hits = EntryHits::new(words, store.dense_entry_ids());
    let mut frame = ScanFrame::default();
    let (mut mask, mut named) = (vec![0u64; words], vec![0u64; words]);
    let mut deferred: Vec<(u64, u64)> = Vec::new();
    let mut fetched = 0usize;
    store.db.scan_slices(SCAN_BLOCK, &mut |block| {
        for &(key, value) in block {
            let cell = match decode_key_linear(out_cells, in_cells, key) {
                Ok(DecodedKeyLinear::Entry(id)) => {
                    fetched += many as usize;
                    mask.fill(0);
                    frame.clear();
                    if let Ok(runs) =
                        decode_full_entry_frame(&mut frame, out_cells, in_cells, input_idx, value)
                    {
                        for &c in frame.run(query_side.run(runs)) {
                            if let Some(cell_mask) = union.get(c) {
                                for_each_bit(cell_mask, |q| covered[q].push(c));
                                mask.iter_mut().zip(cell_mask).for_each(|(m, b)| *m |= b);
                            }
                        }
                        if many {
                            let answer = frame.run(answer_side.run(runs));
                            for_each_bit(&mask, |q| result[q].extend_from_slice(answer));
                        }
                    }
                    hits.insert(id, &mask);
                    continue;
                }
                _ if many => continue,
                Ok(DecodedKeyLinear::OutCell(cell)) if answer_side == RecordSide::Out => cell,
                Ok(DecodedKeyLinear::InCell {
                    input_idx: i,
                    index,
                }) if answer_side == RecordSide::In(i) => index,
                _ => continue,
            };
            // A torn id list contributes nothing and counts nothing: its
            // deferrals are undone and its hits dropped.
            let mark = deferred.len();
            let (mut scanned, mut hit) = (0usize, false);
            let ids = for_each_entry_id(value, |id| match hits.get(id) {
                Some(entry_mask) => {
                    scanned += 1;
                    if !entry_mask.is_empty() {
                        if !hit {
                            named.fill(0);
                            hit = true;
                        }
                        named.iter_mut().zip(entry_mask).for_each(|(n, m)| *n |= m);
                    }
                }
                None => deferred.push((cell, id)),
            });
            if ids.is_err() {
                deferred.truncate(mark);
                continue;
            }
            fetched += scanned;
            if hit {
                for_each_bit(&named, |q| result[q].push(cell));
            }
        }
        for (q, out) in outs.iter_mut().enumerate() {
            absorb(&mut out.covered, &mut covered[q]);
            absorb(&mut out.result, &mut result[q]);
        }
    });
    for (cell, id) in deferred {
        if let Some(entry_mask) = hits.get(id) {
            fetched += 1;
            for_each_bit(entry_mask, |q| result[q].push(cell));
        }
    }
    for (q, out) in outs.iter_mut().enumerate() {
        out.entries_fetched = fetched;
        insert_all(&mut out.covered, &mut covered[q]);
        insert_all(&mut out.result, &mut result[q]);
    }
    outs
}

/// Merges a join's accumulated linear indices into `set` at once, leaving
/// `idxs` empty (with its allocation) for the next query.
fn insert_all(set: &mut CellSet, idxs: &mut Vec<u64>) {
    idxs.sort_unstable();
    idxs.dedup();
    set.insert_sorted(idxs);
    idxs.clear();
}

/// The cell lists a `Full` store indexed in `direction` keys its index
/// records on: the output cells backward, each input's cells forward.
pub(super) fn indexed<'a, T>(direction: Direction, out: &'a T, ins: &'a [T]) -> &'a [T] {
    match direction {
        Direction::Backward => std::slice::from_ref(out),
        Direction::Forward => ins,
    }
}

/// One side of a stored region pair: its output cells, or the cells of one
/// input.  A lookup reads its query cells on one side and answers with the
/// other — output cells and input `input_idx` backward, the reverse forward
/// — and a mismatched-direction scan joins on the cell-keyed records of the
/// answer side (the side the store is indexed on).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum RecordSide {
    /// The output cells.
    Out,
    /// The cells of the given input.
    In(usize),
}

impl RecordSide {
    /// The `(query, answer)` sides of a lookup in `direction` about input
    /// `input_idx`.
    pub(super) fn of(direction: Direction, input_idx: usize) -> (RecordSide, RecordSide) {
        match direction {
            Direction::Backward => (RecordSide::Out, RecordSide::In(input_idx)),
            Direction::Forward => (RecordSide::In(input_idx), RecordSide::Out),
        }
    }

    /// The shape of this side's array.
    pub(super) fn shape(self, out_shape: &Shape, in_shapes: &[Shape]) -> Shape {
        match self {
            RecordSide::Out => *out_shape,
            RecordSide::In(i) => in_shapes[i],
        }
    }

    /// The key of this side's cell record for the cell at linear index
    /// `index`.
    fn packed_key(self, index: u64) -> PackedCellKey {
        match self {
            RecordSide::Out => PackedCellKey::out_linear(index),
            RecordSide::In(i) => PackedCellKey::in_linear(i, index),
        }
    }

    /// This side's run of a columnar-decoded entry.
    fn run(self, runs: FullEntryRuns) -> CellRun {
        match self {
            RecordSide::Out => runs.outcells,
            RecordSide::In(_) => runs.incells,
        }
    }
}

/// Which entries a scan has decoded and which queries each one hits: bit
/// `q` of an entry's mask is set when the entry's query-side cells meet
/// query `q`.
///
/// Ids below the store's next entry id — every id a well-formed log holds —
/// get a seen bit and a hit bit, two bitsets small enough to stay in cache
/// while cell records test them; only hit entries keep a mask.  Any other
/// id keeps its mask, hit or not, so a corrupt log is answered as it always
/// was.
struct EntryHits {
    /// Ids below this are dense.
    dense_ids: usize,
    /// Bit `i`: the entry record of dense id `i` has been scanned.
    seen: Vec<u64>,
    /// Bit `i`: the entry of dense id `i` hits at least one query.
    hit: Vec<u64>,
    /// The masks of hit dense ids and of every scanned id past the dense
    /// range.
    masks: MaskMap,
}

impl EntryHits {
    fn new(words: usize, dense_ids: usize) -> Self {
        EntryHits {
            dense_ids,
            seen: vec![0; dense_ids.div_ceil(64)],
            hit: vec![0; dense_ids.div_ceil(64)],
            masks: MaskMap::new(words),
        }
    }

    /// The dense bit of entry `id` — its word index and bit — if it has
    /// one.
    fn slot(&self, id: u64) -> Option<(usize, u64)> {
        let i = usize::try_from(id).ok().filter(|&i| i < self.dense_ids)?;
        Some((i / 64, 1 << (i % 64)))
    }

    /// Marks entry `id` scanned, hitting the queries of `mask` (ORed into
    /// what an earlier record of the id left).
    fn insert(&mut self, id: u64, mask: &[u64]) {
        if let Some((w, bit)) = self.slot(id) {
            self.seen[w] |= bit;
            if mask.iter().all(|&m| m == 0) {
                return;
            }
            self.hit[w] |= bit;
        }
        let entry = self.masks.entry(id);
        entry.iter_mut().zip(mask).for_each(|(m, b)| *m |= b);
    }

    /// `None` until the entry record of `id` is scanned, then its mask —
    /// empty for a dense id that hits no query.
    #[inline]
    fn get(&self, id: u64) -> Option<&[u64]> {
        match self.slot(id) {
            Some((w, bit)) if self.seen[w] & bit == 0 => None,
            Some((w, bit)) if self.hit[w] & bit == 0 => Some(&[]),
            _ => self.masks.get(id),
        }
    }
}

/// Query masks of `words` words each, keyed by a cell or an entry id and
/// kept back to back in one buffer.
struct MaskMap {
    words: usize,
    /// Key -> offset of its mask in `masks`.
    at: FxHashMap<u64, usize>,
    masks: Vec<u64>,
}

impl MaskMap {
    fn new(words: usize) -> Self {
        MaskMap {
            words,
            at: FxHashMap::default(),
            masks: Vec::new(),
        }
    }

    /// The mask of `key`, zero when first asked for.
    fn entry(&mut self, key: u64) -> &mut [u64] {
        let MaskMap { words, at, masks } = self;
        let at = *at.entry(key).or_insert_with(|| {
            masks.resize(masks.len() + *words, 0);
            masks.len() - *words
        });
        &mut masks[at..][..*words]
    }

    /// The mask of `key`, if it has one.
    #[inline]
    fn get(&self, key: u64) -> Option<&[u64]> {
        let at = *self.at.get(&key)?;
        Some(&self.masks[at..][..self.words])
    }
}

/// Calls `f` with the index of every bit set in `mask`.
fn for_each_bit(mask: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in mask.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// [`insert_all`] once `idxs` holds more cells than `set` (and a block's
/// worth): a join's hit lists then stay within a constant factor of its
/// answers, however often stored regions repeat cells, and the merges cost
/// amortised O(1) per hit.
fn absorb(set: &mut CellSet, idxs: &mut Vec<u64>) {
    if idxs.len() > set.len().max(SCAN_BLOCK) {
        insert_all(set, idxs);
    }
}
