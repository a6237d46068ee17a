//! Payload records: output cells stored with a developer-defined payload
//! (the `PayOne`/`PayMany` layouts of Fig. 4, which composite lineage uses
//! too), their batch ingest, and their lookups, which map each stored
//! `(cell, payload)` region through the operator's `map_payload`.

use std::collections::HashMap;

use subzero_array::{BoundingBox, CellSet, Coord, Shape};
use subzero_engine::{OpMeta, Operator, RegionPair};
use subzero_store::codec;
use subzero_store::kv::Database;

use super::{
    cache_shards, candidate_entries, encode_shards, fan_out, Base, LookupOutcome, SCAN_BLOCK,
};
use crate::encoder::{
    self, decode_key_linear, decode_pay_entry, decode_payloads, DecodedKeyLinear, PackedCellKey,
    PayEntry,
};
use crate::model::{Direction, Granularity};

/// Decoded payload-entry cache shared by every query one worker answers in
/// a batched lookup: each hash entry is fetched and decoded at most once
/// per batch, however many queries reference it.
#[derive(Default)]
struct EntryCache {
    /// entry id -> (a body existed, decoded entry if decoding succeeded)
    map: HashMap<u64, (bool, Option<PayEntry>)>,
}

impl EntryCache {
    /// Returns whether a body exists for `id` (for per-query fetch
    /// accounting) and the decoded entry, fetching and decoding on first use.
    ///
    /// Reads go through [`Database::peek`] so caches can live on the worker
    /// threads of a fanned-out lookup, which share the database immutably.
    fn get(&mut self, db: &Database, id: u64, out_shape: &Shape) -> (bool, Option<&PayEntry>) {
        let slot = self
            .map
            .entry(id)
            .or_insert_with(|| match db.peek(&encoder::entry_key(id)) {
                Some(body) => (true, decode_pay_entry(out_shape, &body).ok()),
                None => (false, None),
            });
        (slot.0, slot.1.as_ref())
    }
}

/// The records of a payload (or composite) store and its lookup caches.
#[derive(Default)]
pub(super) struct PayRecords {
    /// Per-worker decoded-entry caches of the `PayMany` lookups, pinned to
    /// query shards like [`FullRecords`](super::full::FullRecords)' caches.
    caches: Vec<EntryCache>,
}

impl PayRecords {
    /// Drops every cached decoded entry; every write calls this, because a
    /// cached "no body for this id" miss can be invalidated by a later write
    /// of that entry id.
    pub(super) fn clear_caches(&mut self) {
        self.caches.iter_mut().for_each(|cache| cache.map.clear());
    }

    /// [`OpDatastore::store_batch`](super::OpDatastore::store_batch) for
    /// payload pairs: a `One` layout duplicates the payload into every output
    /// cell's record (Fig. 4.4); a `Many` layout writes one entry holding the
    /// cells and the payload, indexed by the cells' bounding box.
    pub(super) fn store_batch(&mut self, store: &mut Base, pairs: &[RegionPair], workers: usize) {
        self.clear_caches();
        let mut work: Vec<(&[Coord], &[u8])> = Vec::with_capacity(pairs.len());
        for pair in pairs {
            if let RegionPair::Payload { outcells, payload } = pair {
                store.pairs_stored += 1;
                store.cells_stored += pair.num_cells() as u64;
                if !outcells.is_empty() {
                    work.push((outcells, payload));
                }
            }
        }
        if work.is_empty() {
            return;
        }
        let out_shape = &store.out_shape;
        let many = store.strategy.granularity == Granularity::Many;
        let shards = encode_shards(&work, workers, |&(outcells, payload), shard| {
            if many {
                encoder::encode_pay_entry_into(
                    shard.bodies.buf_mut(),
                    out_shape,
                    outcells,
                    payload,
                );
                shard.boxes.extend(BoundingBox::enclosing(outcells));
            } else {
                let pack = |oc| PackedCellKey::out_cell(out_shape, oc);
                shard.keys.extend(outcells.iter().map(pack));
            }
        });
        let key_space = out_shape.num_cells();
        store.write_shards(
            &shards,
            &work,
            many,
            key_space,
            |&(_, payload), _, value| encoder::append_payload(value, payload),
        );
    }

    /// [`OpDatastore::lookup_many`](super::OpDatastore::lookup_many) over
    /// payload records, which are indexed by output cells only: a backward
    /// lookup finds its records by cell key (`One`) or through the R-tree
    /// (`Many`) and joins them with [`join_backward`]; a forward lookup scans
    /// every record once for the whole batch and joins with
    /// [`join_forward`].
    pub(super) fn lookup_many(
        &mut self,
        store: &Base,
        direction: Direction,
        queries: &[&CellSet],
        input_idx: usize,
        op: &dyn Operator,
        meta: &OpMeta,
    ) -> Vec<LookupOutcome> {
        let out_shape = store.out_shape;
        let db = &store.db;
        let map = |cell: &Coord, payload: &[u8]| op.map_payload(cell, payload, input_idx, meta);
        let empty_outcome = |scanned| store.empty_outcome(direction, input_idx, scanned);
        if !store.strategy.serves(direction) {
            let (out_cells, in_cells) = store.cell_counts();
            let mut outs: Vec<LookupOutcome> =
                queries.iter().map(|_| empty_outcome(true)).collect();
            let mut fetched = 0usize;
            db.scan_slices(SCAN_BLOCK, &mut |block| {
                for &(key, value) in block {
                    let (cells, payloads) = match decode_key_linear(out_cells, &in_cells, key) {
                        Ok(DecodedKeyLinear::OutCell(index)) => {
                            let Ok(cell) = codec::unpack_coord(&out_shape, index) else {
                                continue;
                            };
                            (vec![cell], decode_payloads(value).unwrap_or_default())
                        }
                        Ok(DecodedKeyLinear::Entry(_)) => decode_pay_entry(&out_shape, value)
                            .map(|e| (e.outcells, vec![e.payload]))
                            .unwrap_or_default(),
                        _ => continue,
                    };
                    fetched += 1;
                    join_forward(&mut outs, queries, &cells, &payloads, &map);
                }
            });
            for out in &mut outs {
                out.entries_fetched = fetched;
            }
            return outs;
        }
        match store.strategy.granularity {
            // map_payload depends on the query cell, so only the record
            // fetches are shareable — and query cells rarely repeat across a
            // batch; fan the per-query loops out without a cache.
            Granularity::One => fan_out(queries, &mut vec![(); store.workers], |_, query| {
                let mut out = empty_outcome(false);
                for qc in query.iter() {
                    let Some(value) = db.peek(&encoder::out_cell_key(&out_shape, &qc)) else {
                        continue;
                    };
                    out.entries_fetched += 1;
                    let payloads = decode_payloads(&value).unwrap_or_default();
                    join_backward(&mut out, query, &[qc], &payloads, &map);
                }
                out
            }),
            Granularity::Many => {
                let caches = cache_shards(&mut self.caches, store.workers, queries.len());
                fan_out(queries, caches, |cache, query| {
                    let mut out = empty_outcome(false);
                    for id in candidate_entries(store.rtree.as_ref(), query) {
                        let (present, entry) = cache.get(db, id, &out_shape);
                        out.entries_fetched += present as usize;
                        let Some(entry) = entry else { continue };
                        let payloads = std::slice::from_ref(&entry.payload);
                        join_backward(&mut out, query, &entry.outcells, payloads, &map);
                    }
                    out
                })
            }
        }
    }
}

/// Joins one stored group of output cells and their payloads against a
/// backward `query`: each cell the query names is covered, and answers with
/// the input cells `map` sends each of its `(cell, payload)` regions to.
fn join_backward(
    out: &mut LookupOutcome,
    query: &CellSet,
    cells: &[Coord],
    payloads: &[Vec<u8>],
    map: &impl Fn(&Coord, &[u8]) -> Option<Vec<Coord>>,
) {
    for cell in cells.iter().filter(|c| query.contains(c)) {
        out.covered.insert(cell);
        for payload in payloads {
            for c in map(cell, payload).unwrap_or_default() {
                out.result.insert(&c);
            }
        }
    }
}

/// Joins one stored group of output cells and their payloads (a `PayOne`
/// cell record: one cell, its payloads; a `PayMany` entry: its cells, one
/// payload) against every forward query at once: `map` runs once per
/// `(cell, payload)` region, and the cell answers each query that region's
/// input cells meet.
fn join_forward(
    outs: &mut [LookupOutcome],
    queries: &[&CellSet],
    cells: &[Coord],
    payloads: &[Vec<u8>],
    map: &impl Fn(&Coord, &[u8]) -> Option<Vec<Coord>>,
) {
    for cell in cells {
        for payload in payloads {
            let incells = map(cell, payload).unwrap_or_default();
            for (out, query) in outs.iter_mut().zip(queries) {
                let mut hit = false;
                for c in incells.iter().filter(|c| query.contains(c)) {
                    out.covered.insert(c);
                    hit = true;
                }
                if hit {
                    out.result.insert(cell);
                }
            }
        }
    }
}
