//! Outcome parity of the datastore lookups with their reference image.
//!
//! `golden/lookup_outcomes.bin` was written by the commit *before* the
//! backward and forward lookups were folded into one kernel.  For every
//! pair-storing strategy, both directions, both inputs and a fixed query
//! batch it pins each outcome's `result` and `covered` cells, its
//! `entries_fetched` count and its `scanned` flag.  Every backend (memory
//! and file) and every worker count must reproduce the image exactly: a
//! lookup may change how it finds an answer, never which answer or what it
//! reports having fetched.

use subzero::datastore::{LookupOutcome, OpDatastore};
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

fn meta() -> OpMeta {
    OpMeta::new(vec![Shape::d2(8, 8), Shape::d2(8, 8)], Shape::d2(8, 8))
}

/// The two ingest batches of `log_golden.rs`: repeated cells within and
/// across batches, and pairs of the kind each strategy ignores.
fn batches() -> [Vec<RegionPair>; 2] {
    let batch = |from: u32, to: u32| {
        let mut pairs = Vec::new();
        for i in from..to {
            let base = Coord::d2(i % 8, (i * 3) % 8);
            pairs.push(RegionPair::Full {
                outcells: vec![base, Coord::d2(0, 0)],
                incells: vec![
                    vec![Coord::d2((i + 1) % 8, i % 8), Coord::d2(i % 8, (i + 5) % 8)],
                    vec![Coord::d2(7 - i % 8, 7 - i % 8)],
                ],
            });
            pairs.push(RegionPair::Payload {
                outcells: vec![base, Coord::d2(i % 4, 1)],
                payload: vec![(i % 3) as u8, i as u8],
            });
        }
        pairs
    };
    [batch(0, 40), batch(30, 75)]
}

fn strategies() -> [StorageStrategy; 8] {
    [
        StorageStrategy::full_one(),
        StorageStrategy::full_one_forward(),
        StorageStrategy::full_many(),
        StorageStrategy::full_many_forward(),
        StorageStrategy::pay_one(),
        StorageStrategy::pay_many(),
        StorageStrategy::composite_one(),
        StorageStrategy::composite_many(),
    ]
}

/// One query batch, asked of both directions: an empty query, and queries
/// that all share cell (0,0), from a single cell to a whole row.
fn queries() -> Vec<CellSet> {
    let shape = Shape::d2(8, 8);
    let mut row: Vec<Coord> = (0..8).map(|c| Coord::d2(5, c)).collect();
    row.push(Coord::d2(0, 0));
    [
        vec![],
        vec![Coord::d2(0, 0)],
        vec![Coord::d2(0, 0), Coord::d2(1, 3), Coord::d2(2, 6)],
        vec![
            Coord::d2(0, 0),
            Coord::d2(3, 1),
            Coord::d2(7, 7),
            Coord::d2(4, 4),
        ],
        row,
        vec![
            Coord::d2(0, 0),
            Coord::d2(6, 2),
            Coord::d2(2, 1),
            Coord::d2(1, 1),
        ],
    ]
    .into_iter()
    .map(|cells| CellSet::from_coords(shape, cells))
    .collect()
}

/// Where a configuration keeps its datastores.
#[derive(Clone, Copy, Debug)]
enum Backend {
    Mem,
    File,
}

/// One pinned case: its name and its encoded outcome.
type Case = (String, Vec<u8>);

fn encode_outcome(o: &LookupOutcome) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(o.entries_fetched as u64).to_le_bytes());
    out.push(o.scanned as u8);
    for set in [&o.result, &o.covered] {
        out.extend_from_slice(&(set.len() as u32).to_le_bytes());
        for idx in set.iter_linear() {
            out.extend_from_slice(&(idx as u32).to_le_bytes());
        }
    }
    out
}

/// A readable rendering of an encoded outcome, for failure messages.
fn describe(bytes: &[u8]) -> String {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let fetched = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    let mut pos = 9;
    let mut sets = Vec::new();
    for _ in 0..2 {
        let n = word(pos) as usize;
        pos += 4;
        sets.push((0..n).map(|k| word(pos + 4 * k)).collect::<Vec<_>>());
        pos += 4 * n;
    }
    format!(
        "entries_fetched={fetched} scanned={} result={:?} covered={:?}",
        bytes[8] == 1,
        sets[0],
        sets[1]
    )
}

/// Every case's outcome under one backend and worker count.
fn cases(backend: Backend, workers: usize, dir: &std::path::Path) -> Vec<Case> {
    let meta = meta();
    let queries = queries();
    let refs: Vec<&CellSet> = queries.iter().collect();
    let mut cases = Vec::new();
    for strategy in strategies() {
        let mut ds = match backend {
            Backend::Mem => OpDatastore::in_memory("golden", strategy, &meta),
            Backend::File => {
                let path = dir.join(format!("{}.kv", strategy.db_suffix()));
                let file = FileBackend::open(&path).expect("open golden store");
                OpDatastore::new("golden", strategy, &meta, Box::new(file))
            }
        };
        for batch in &batches() {
            ds.store_batch(batch, 1);
        }
        ds.finish_ingest();
        ds.set_workers(workers);
        for direction in [Direction::Backward, Direction::Forward] {
            for input_idx in 0..2 {
                let outcomes = match direction {
                    Direction::Backward => {
                        ds.lookup_backward_many(&refs, input_idx, &RadiusOp, &meta)
                    }
                    Direction::Forward => {
                        ds.lookup_forward_many(&refs, input_idx, &RadiusOp, &meta)
                    }
                };
                assert_eq!(outcomes.len(), refs.len());
                for (q, outcome) in outcomes.iter().enumerate() {
                    let label = format!(
                        "{} {direction:?} input {input_idx} query {q}",
                        strategy.db_suffix()
                    );
                    cases.push((label, encode_outcome(outcome)));
                }
            }
        }
    }
    cases
}

/// The image: every case as `u16` label length, label, `u32` body length,
/// body.
fn encode_cases(cases: &[Case]) -> Vec<u8> {
    let mut out = Vec::new();
    for (label, body) in cases {
        out.extend_from_slice(&(label.len() as u16).to_le_bytes());
        out.extend_from_slice(label.as_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
    }
    out
}

fn decode_cases(mut bytes: &[u8]) -> Vec<Case> {
    let mut cases = Vec::new();
    while !bytes.is_empty() {
        let n = u16::from_le_bytes(bytes[..2].try_into().unwrap()) as usize;
        let label = String::from_utf8(bytes[2..2 + n].to_vec()).expect("utf-8 label");
        bytes = &bytes[2 + n..];
        let m = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        cases.push((label, bytes[4..4 + m].to_vec()));
        bytes = &bytes[4 + m..];
    }
    cases
}

#[test]
fn lookup_outcomes_match_the_reference_image() {
    let image: &[u8] = include_bytes!("golden/lookup_outcomes.bin");
    let golden = decode_cases(image);
    assert_eq!(encode_cases(&golden), image, "image does not parse cleanly");
    let dir = std::env::temp_dir().join(format!("subzero-lookup-golden-{}", std::process::id()));
    for backend in [Backend::Mem, Backend::File] {
        for workers in [1, 2] {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create golden dir");
            let got = cases(backend, workers, &dir);
            let config = format!("{backend:?} workers={workers}");
            for (g, want) in got.iter().zip(&golden) {
                assert!(
                    g == want,
                    "{config}: first differing case `{}` (golden `{}`)\n   got: {}\ngolden: {}",
                    g.0,
                    want.0,
                    describe(&g.1),
                    describe(&want.1)
                );
            }
            assert_eq!(got.len(), golden.len(), "{config}: case count differs");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
