//! `Full` records: region pairs stored whole (the `FullOne`/`FullMany`
//! layouts of Fig. 4), their batch ingest, their lookups and the
//! mismatched-direction scan join.

use subzero_array::{BoundingBox, CellSet, Coord, Shape};
use subzero_engine::RegionPair;
use subzero_store::codec::{self, CellRun, ScanFrame};
use subzero_store::hash::FxHashMap;
use subzero_store::kv::Database;

use super::{
    cache_shards, candidate_entries, encode_shards, fan_out, Base, LookupOutcome, SCAN_BLOCK,
};
use crate::encoder::{
    self, decode_entry_ids_into, decode_full_entry_frame, decode_key_linear, DecodedKeyLinear,
    FullEntryRuns, PackedCellKey,
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
#[derive(Default)]
struct FullCache {
    /// `(entry id, input index)` -> (a body existed, its runs in `frame` if
    /// the body decoded).  The input is part of the key because the frame
    /// holds only the queried input's cells.
    runs: FxHashMap<(u64, usize), (bool, Option<FullEntryRuns>)>,
    /// The cell-index column every cached run points into.
    frame: ScanFrame,
    /// Scratch key of the record being read.
    key: Vec<u8>,
    /// Scratch value of the record being read.
    value: Vec<u8>,
    /// Scratch entry ids of the cell record being read.
    ids: Vec<u64>,
    /// Covered query cells of the query being answered, merged into the
    /// outcome's set once per query.
    covered: Vec<u64>,
    /// Answer runs of the entries the query's cell records name (one entry
    /// is often named by many query cells, so runs are deduplicated before
    /// their cells are gathered).
    hits: Vec<CellRun>,
    /// Answer cells of the query being answered, merged like `covered`.
    result: Vec<u64>,
}

impl FullCache {
    /// Whether a body exists for entry `id` (for per-query fetch accounting)
    /// and its runs for input `input_idx`, fetching and decoding on first
    /// use.  Reads go through [`Database::peek_into`] so caches can live on
    /// the worker threads of a fanned-out lookup, which share the database
    /// immutably.
    fn entry(
        &mut self,
        db: &Database,
        id: u64,
        out_cells: u64,
        in_cells: &[u64],
        input_idx: usize,
    ) -> (bool, Option<FullEntryRuns>) {
        if let Some(&slot) = self.runs.get(&(id, input_idx)) {
            return slot;
        }
        self.key.clear();
        encoder::entry_key_into(&mut self.key, id);
        let slot = if db.peek_into(&self.key, &mut self.value) {
            let runs = decode_full_entry_frame(
                &mut self.frame,
                out_cells,
                in_cells,
                input_idx,
                &self.value,
            );
            (true, runs.ok())
        } else {
            (false, None)
        };
        self.runs.insert((id, input_idx), slot);
        slot
    }

    /// Forgets every cached entry (keeping the allocations): a cached "no
    /// body for this id" miss can be invalidated by a later write of that
    /// entry id.
    fn clear(&mut self) {
        self.runs.clear();
        self.frame.clear();
    }
}

/// The records of a `Full` store and its lookup caches.
#[derive(Default)]
pub(super) struct FullRecords {
    /// Per-worker columnar caches reused across indexed lookups.  Shard `i`
    /// of a fanned-out lookup always runs with cache `i`, so repeat batches
    /// against an unchanged store hit warm caches and reuse warm buffers.
    caches: Vec<FullCache>,
}

impl FullRecords {
    /// Drops every cached decoded entry; every write calls this.
    pub(super) fn clear_caches(&mut self) {
        self.caches.iter_mut().for_each(FullCache::clear);
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
        let shards = encode_shards(&work, workers, |&(outcells, incells), shard| {
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
        let db = &store.db;
        let rtree = store.rtree.as_ref();
        let empty_outcome = |scanned| store.empty_outcome(direction, input_idx, scanned);
        let (out_cells, in_cells) = store.cell_counts();
        let in_cells = &in_cells[..];
        if !store.strategy.serves(direction) {
            return scan_join_full(store, queries, direction, input_idx, in_cells, || {
                empty_outcome(true)
            });
        }
        let caches = cache_shards(&mut self.caches, store.workers, queries.len());
        // Both arms answer in linear-index space from the worker's columnar
        // cache, like the scan join: hits collect in the cache's flat scratch
        // lists and each answer set is built once.
        match store.strategy.granularity {
            Granularity::One => fan_out(queries, caches, |cache, query| {
                let mut out = empty_outcome(false);
                for qc in query.iter_linear() {
                    let qc = qc as u64;
                    cache.key.clear();
                    query_side.packed_key(qc).write_into(&mut cache.key);
                    if !db.peek_into(&cache.key, &mut cache.value) {
                        continue;
                    }
                    cache.covered.push(qc);
                    // A torn id list decodes to no ids.
                    cache.ids.clear();
                    let _ = decode_entry_ids_into(&mut cache.ids, &cache.value);
                    for k in 0..cache.ids.len() {
                        let (present, runs) =
                            cache.entry(db, cache.ids[k], out_cells, in_cells, input_idx);
                        out.entries_fetched += present as usize;
                        if let Some(runs) = runs {
                            cache.hits.push(answer_side.run(runs));
                        }
                    }
                }
                insert_all(&mut out.covered, &mut cache.covered);
                // Each named entry's answer cells are gathered once.
                cache.hits.sort_unstable();
                cache.hits.dedup();
                for &run in &cache.hits {
                    cache.result.extend_from_slice(cache.frame.run(run));
                }
                cache.hits.clear();
                insert_all(&mut out.result, &mut cache.result);
                out
            }),
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
/// one streamed pass of [`Database::scan_slices`] that joins while it
/// decodes, in memory independent of the store's size beyond one hit mask
/// per entry (see [`EntryHits`]).
///
/// Each entry record decodes into one reused [`ScanFrame`] and is probed
/// once against every densified query, leaving its hit mask; a `Many`
/// store's hit entries contribute their answer-side cells right there.  A
/// `One` store's cell records — keyed on the answer side — join as they
/// stream by: a record's cell answers every query that hits an entry it
/// names.  A record naming an entry not yet scanned is deferred and joined
/// after the pass, so answers never depend on scan order; on a file log a
/// live cell record follows every entry it names, and nothing is deferred.
fn scan_join_full(
    store: &Base,
    queries: &[&CellSet],
    direction: Direction,
    input_idx: usize,
    in_cells: &[u64],
    empty_outcome: impl Fn() -> LookupOutcome,
) -> Vec<LookupOutcome> {
    let (query_side, answer_side) = RecordSide::of(direction, input_idx);
    let granularity = store.strategy.granularity;
    let out_cells = store.out_shape.num_cells() as u64;
    // One densified clone per query turns the per-entry membership probes
    // into O(1) word tests; the few-KiB promotion amortises over the scan.
    let probes: Vec<CellSet> = queries
        .iter()
        .map(|&query| {
            let mut probe = CellSet::clone(query);
            probe.densify();
            probe
        })
        .collect();
    let mut outs: Vec<LookupOutcome> = queries.iter().map(|_| empty_outcome()).collect();
    // Hits gather in flat per-query lists, merged into the answer sets once
    // they outgrow them (`absorb`) and at the end.
    let mut covered: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
    let mut result: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
    // A well-formed store's entry ids are dense below `next_entry_id`, and
    // it holds at least as many keys as entries.
    let dense_ids = store.next_entry_id.min(store.db.len() as u64) as usize;
    let mut hits = EntryHits::new(queries.len(), dense_ids);
    let mut frame = ScanFrame::default();
    let (mut ids, mut named) = (Vec::new(), vec![0u64; hits.words]);
    let mut deferred: Vec<(u64, u64)> = Vec::new();
    let mut fetched = 0usize;
    store.db.scan_slices(SCAN_BLOCK, &mut |block| {
        for &(key, value) in block {
            let cell = match decode_key_linear(out_cells, in_cells, key) {
                Ok(DecodedKeyLinear::Entry(id)) => {
                    fetched += (granularity == Granularity::Many) as usize;
                    let mask = hits.insert(id);
                    frame.clear();
                    let Ok(runs) =
                        decode_full_entry_frame(&mut frame, out_cells, in_cells, input_idx, value)
                    else {
                        continue;
                    };
                    let cells = frame.run(query_side.run(runs));
                    for (q, probe) in probes.iter().enumerate() {
                        if probe.intersect_sorted(cells, |c| covered[q].push(c)) {
                            mask[q / 64] |= 1 << (q % 64);
                            if granularity == Granularity::Many {
                                result[q].extend_from_slice(frame.run(answer_side.run(runs)));
                            }
                        }
                    }
                    continue;
                }
                _ if granularity == Granularity::Many => continue,
                Ok(DecodedKeyLinear::OutCell(cell)) if answer_side == RecordSide::Out => cell,
                Ok(DecodedKeyLinear::InCell {
                    input_idx: i,
                    index,
                }) if answer_side == RecordSide::In(i) => index,
                _ => continue,
            };
            // A torn id list decodes to no ids.
            ids.clear();
            let _ = decode_entry_ids_into(&mut ids, value);
            named.fill(0);
            for &id in &ids {
                match hits.get(id) {
                    Some(mask) => {
                        fetched += 1;
                        named.iter_mut().zip(mask).for_each(|(n, m)| *n |= m);
                    }
                    None => deferred.push((cell, id)),
                }
            }
            for_each_bit(&named, |q| result[q].push(cell));
        }
        for (q, out) in outs.iter_mut().enumerate() {
            absorb(&mut out.covered, &mut covered[q]);
            absorb(&mut out.result, &mut result[q]);
        }
    });
    for (cell, id) in deferred {
        if let Some(mask) = hits.get(id) {
            fetched += 1;
            for_each_bit(mask, |q| result[q].push(cell));
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

/// Per-query hit bits of every entry a scan has decoded: bit `q` of an
/// entry's mask is set when the entry's query-side cells meet query `q`.
///
/// Ids below the store's next entry id — every id a well-formed log holds —
/// index a dense table; any other id falls back to a map, so a corrupt log
/// is answered as it always was.
struct EntryHits {
    /// Mask words per entry: one bit per query.
    words: usize,
    /// `words` per dense id, back to back.
    dense: Vec<u64>,
    /// Whether the dense id's entry record has been scanned.
    seen: Vec<bool>,
    /// Masks of scanned ids at or past the dense range.
    sparse: FxHashMap<u64, Box<[u64]>>,
}

impl EntryHits {
    fn new(queries: usize, dense_ids: usize) -> Self {
        let words = queries.div_ceil(64);
        EntryHits {
            words,
            dense: vec![0; dense_ids * words],
            seen: vec![false; dense_ids],
            sparse: FxHashMap::default(),
        }
    }

    /// The dense slot of entry `id`, if it has one.
    fn slot(&self, id: u64) -> Option<usize> {
        usize::try_from(id).ok().filter(|&i| i < self.seen.len())
    }

    /// Marks entry `id` scanned and returns its mask.
    fn insert(&mut self, id: u64) -> &mut [u64] {
        let words = self.words;
        match self.slot(id) {
            Some(i) => {
                self.seen[i] = true;
                &mut self.dense[i * words..][..words]
            }
            None => self
                .sparse
                .entry(id)
                .or_insert_with(|| vec![0; words].into()),
        }
    }

    /// The mask of entry `id`, `None` until its entry record is scanned.
    fn get(&self, id: u64) -> Option<&[u64]> {
        match self.slot(id) {
            Some(i) => self.seen[i].then(|| &self.dense[i * self.words..][..self.words]),
            None => self.sparse.get(&id).map(|mask| &mask[..]),
        }
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
