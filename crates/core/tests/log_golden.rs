//! Byte parity of the `.kv` log with the format's reference image.
//!
//! `golden/store_batch_logs.bin` was written by the commit *before* the
//! write path was fused into one group write per batch (PR 11, two writes
//! per batch through a `Vec<u8>`-keyed index).  The write path may change how
//! it gets bytes to the log, never which bytes: a store written today must
//! stay readable by, and byte-identical to, one written then.

use subzero::datastore::OpDatastore;
use subzero::model::StorageStrategy;
use subzero_array::{Coord, Shape};
use subzero_engine::{OpMeta, RegionPair};
use subzero_store::kv::FileBackend;

/// Two batches over an 8x8 operator with two inputs.  Output and input
/// cells repeat within a batch (write-side key dedup) and across the two
/// (the second batch's appends hit keys the first one wrote), and each batch
/// carries pairs of the kind its strategy ignores.
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

/// The log of every pair-storing strategy after both batches, each prefixed
/// with its length.
fn logs() -> Vec<u8> {
    let meta = OpMeta::new(vec![Shape::d2(8, 8), Shape::d2(8, 8)], Shape::d2(8, 8));
    let dir = std::env::temp_dir().join(format!("subzero-log-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = Vec::new();
    for strategy in [
        StorageStrategy::full_one(),
        StorageStrategy::full_one_forward(),
        StorageStrategy::full_many(),
        StorageStrategy::full_many_forward(),
        StorageStrategy::pay_one(),
        StorageStrategy::pay_many(),
    ] {
        let path = dir.join(format!("{}.kv", strategy.db_suffix()));
        let backend = FileBackend::open(&path).expect("open golden store");
        let mut ds = OpDatastore::new("golden", strategy, &meta, Box::new(backend));
        for batch in &batches() {
            ds.store_batch(batch, 1);
        }
        ds.finish_ingest();
        drop(ds);
        let log = std::fs::read(&path).expect("read golden store");
        out.extend_from_slice(&(log.len() as u64).to_le_bytes());
        out.extend_from_slice(&log);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn store_batch_logs_match_the_parent_commits_bytes() {
    let golden: &[u8] = include_bytes!("golden/store_batch_logs.bin");
    let logs = logs();
    let first_diff = logs.iter().zip(golden).position(|(a, b)| a != b);
    assert!(
        logs == golden,
        "log bytes changed: {} bytes written, {} in the golden, first difference at {:?}",
        logs.len(),
        golden.len(),
        first_diff
    );
}
