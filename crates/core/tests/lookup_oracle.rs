//! Datastore lookups against an independent model of the stored lineage.
//!
//! The model never touches an encoding, an index or a scan: it keeps the raw
//! region pairs and answers a query by walking them.  A pair whose
//! query-side cells meet the query contributes those cells to `covered` and
//! its other side to `result` — output cells and the queried input backward,
//! the reverse forward.  Payload pairs are first expanded through the
//! operator's mapping function into one `({outcell}, map_payload(outcell))`
//! pair per output cell.  Pairs with no output cells are ignored, as ingest
//! ignores them.  `entries_fetched` depends on the layout and is pinned by
//! `lookup_golden.rs` instead.
//!
//! Every strategy is checked on an in-memory store and on a file-backed
//! one, in batches of up to 70 queries.

use std::collections::BTreeSet;
use std::path::Path;

use proptest::prelude::*;
use subzero::datastore::OpDatastore;
use subzero::model::{Direction, StorageStrategy};
use subzero_array::{Array, ArrayRef, CellSet, Coord, Shape};
use subzero_engine::{LineageMode, LineageSink, OpMeta, Operator, RegionPair};
use subzero_store::kv::FileBackend;

/// Payload byte `r` means "depends on the radius-`r` neighbourhood of the
/// output cell" in whichever input is asked about.
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
        input_idx: usize,
        meta: &OpMeta,
    ) -> Option<Vec<Coord>> {
        let r = payload.first().copied().unwrap_or(0) as u32;
        Some(meta.input_shape(input_idx).neighborhood(outcell, r))
    }
}

const STRATEGIES: [fn() -> StorageStrategy; 8] = [
    StorageStrategy::full_one,
    StorageStrategy::full_many,
    StorageStrategy::full_one_forward,
    StorageStrategy::full_many_forward,
    StorageStrategy::pay_one,
    StorageStrategy::pay_many,
    StorageStrategy::composite_one,
    StorageStrategy::composite_many,
];

/// `(output cells, cells per input)` of one region pair.
type ModelPair = (Vec<Coord>, Vec<Vec<Coord>>);

/// The pairs a strategy of `mode` keeps, in the model's form.
fn model_pairs(
    pairs: &[RegionPair],
    mode: LineageMode,
    op: &dyn Operator,
    meta: &OpMeta,
) -> Vec<ModelPair> {
    let mut out = Vec::new();
    for pair in pairs {
        match (mode, pair) {
            (LineageMode::Full, RegionPair::Full { outcells, incells }) => {
                out.push((outcells.clone(), incells.clone()));
            }
            (LineageMode::Pay | LineageMode::Comp, RegionPair::Payload { outcells, payload }) => {
                for oc in outcells {
                    let incells = (0..meta.input_shapes.len())
                        .map(|i| op.map_payload(oc, payload, i, meta).unwrap_or_default())
                        .collect();
                    out.push((vec![*oc], incells));
                }
            }
            _ => {}
        }
    }
    out.retain(|(outcells, _)| !outcells.is_empty());
    out
}

/// The model's `(result, covered)` for one query.
fn model_lookup(
    pairs: &[ModelPair],
    direction: Direction,
    input_idx: usize,
    query: &BTreeSet<Coord>,
) -> (BTreeSet<Coord>, BTreeSet<Coord>) {
    let (mut result, mut covered) = (BTreeSet::new(), BTreeSet::new());
    for (outcells, incells) in pairs {
        let input = incells.get(input_idx).map_or(&[][..], Vec::as_slice);
        let (query_side, answer_side) = match direction {
            Direction::Backward => (outcells.as_slice(), input),
            Direction::Forward => (input, outcells.as_slice()),
        };
        let hits: Vec<Coord> = query_side
            .iter()
            .filter(|c| query.contains(c))
            .copied()
            .collect();
        if !hits.is_empty() {
            covered.extend(hits);
            result.extend(answer_side.iter().copied());
        }
    }
    (result, covered)
}

/// Up to `max - 1` cells of a `rows` x `cols` array.
fn cells(rows: u32, cols: u32, max: usize) -> impl Strategy<Value = Vec<Coord>> {
    prop::collection::vec(
        (0..rows, 0..cols).prop_map(|(r, c)| Coord::d2(r, c)),
        0..max,
    )
}

/// A random pair: a `Full` pair (any side may be empty) or a payload pair
/// of radius 0–2.
fn pair_strategy(rows: u32, cols: u32) -> impl Strategy<Value = RegionPair> {
    let full = (
        cells(rows, cols, 4),
        cells(rows, cols, 4),
        cells(rows, cols, 4),
    )
        .prop_map(|(outcells, in0, in1)| RegionPair::Full {
            outcells,
            incells: vec![in0, in1],
        });
    let payload = (cells(rows, cols, 4), 0u8..3, any::<u8>()).prop_map(|(outcells, r, tag)| {
        RegionPair::Payload {
            outcells,
            payload: vec![r, tag],
        }
    });
    prop_oneof![full, payload]
}

/// A small random shape (used for the output and both inputs), the pairs
/// stored over it in two ingest batches split at the given index, and a
/// batch of 1–70 queries: a scan join keeps one hit bit per query, so
/// batches past 64 queries need a second mask word.
fn workload() -> impl Strategy<Value = (Shape, Vec<RegionPair>, usize, Vec<Vec<Coord>>)> {
    (1u32..6, 1u32..6).prop_flat_map(|(rows, cols)| {
        (
            Just(Shape::d2(rows, cols)),
            prop::collection::vec(pair_strategy(rows, cols), 0..24),
            0usize..24,
            prop::collection::vec(cells(rows, cols, 6), 1..71),
        )
    })
}

/// A store of `strategy` in memory, or in a fresh log file under `dir`.
/// A scan of the file log meets every live cell record after the entries
/// it names; the in-memory table hands records out in hash order, so its
/// scans also join cell records met before their entries.
fn datastore(strategy: StorageStrategy, meta: &OpMeta, dir: Option<&Path>) -> OpDatastore {
    let Some(dir) = dir else {
        return OpDatastore::in_memory("oracle", strategy, meta);
    };
    let path = dir.join(format!("{}.kv", strategy.db_suffix()));
    let _ = std::fs::remove_file(&path);
    let backend = FileBackend::open(&path).expect("open oracle store");
    OpDatastore::new("oracle", strategy, meta, Box::new(backend))
}

proptest! {
    #[test]
    fn lookup_many_matches_the_model((shape, pairs, split, queries) in workload()) {
        let meta = OpMeta::new(vec![shape, shape], shape);
        let op = RadiusOp;
        let sets: Vec<CellSet> = queries
            .iter()
            .map(|cells| CellSet::from_coords(shape, cells.iter().copied()))
            .collect();
        let refs: Vec<&CellSet> = sets.iter().collect();
        let split = split.min(pairs.len());
        let dir = std::env::temp_dir().join(format!("subzero-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create oracle dir");
        for (strategy, backing) in STRATEGIES
            .iter()
            .flat_map(|s| [(s(), None), (s(), Some(dir.as_path()))])
        {
            let mut ds = datastore(strategy, &meta, backing);
            ds.store_batch(&pairs[..split], 1);
            ds.store_batch(&pairs[split..], 1);
            let model = model_pairs(&pairs, strategy.mode, &op, &meta);
            for direction in [Direction::Backward, Direction::Forward] {
                for input_idx in 0..2 {
                    let outcomes = ds.lookup_many(direction, &refs, input_idx, &op, &meta);
                    for (q, outcome) in outcomes.iter().enumerate() {
                        let query: BTreeSet<Coord> = queries[q].iter().copied().collect();
                        let (result, covered) = model_lookup(&model, direction, input_idx, &query);
                        let case = format!(
                            "{strategy} {} {direction:?} input {input_idx} query {q}",
                            if backing.is_some() { "file" } else { "memory" }
                        );
                        prop_assert!(
                            outcome.result.to_coords() == result.into_iter().collect::<Vec<_>>(),
                            "{case}: result {:?}", outcome.result.to_coords()
                        );
                        prop_assert!(
                            outcome.covered.to_coords() == covered.into_iter().collect::<Vec<_>>(),
                            "{case}: covered {:?}", outcome.covered.to_coords()
                        );
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
