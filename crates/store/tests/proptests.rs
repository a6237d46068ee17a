//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use subzero_array::{BoundingBox, Coord, Shape};
use subzero_store::codec::{
    decode_cells, decode_cells_at, decode_cells_block, encode_cells, encode_cells_into,
    encode_payload, pack_coord, read_varint, skip_cells_block, write_varint, Arena, ScanFrame,
};
use subzero_store::kv::{FileBackend, KvBackend, MemBackend};
use subzero_store::RTree;

/// A scratch path for one property test's file backend, cleaned up by the
/// caller.
fn scratch_file(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("subzero-store-proptests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{tag}.kv"))
}

/// Key lengths on both sides of the backends' inline-key capacity (14).
const KEY_LENS: [usize; 9] = [0, 1, 9, 10, 14, 15, 22, 23, 40];

/// A key from a small space, so random op sequences keep hitting the same
/// keys: the id picks the length and the fill byte.
fn model_key(id: u8) -> Vec<u8> {
    vec![id; KEY_LENS[id as usize % KEY_LENS.len()]]
}

/// One step of the kv model test: the op kind and its `(key id, bytes)`
/// items (single-record ops use the first item, if any).
type KvOp = (u8, Vec<(u8, Vec<u8>)>);

/// Bytes of the log record `[varint key len][varint value len][key][value]`.
fn record_bytes(key: &[u8], value: &[u8]) -> u64 {
    let mut prefix = Vec::new();
    write_varint(&mut prefix, key.len() as u64);
    write_varint(&mut prefix, value.len() as u64);
    (prefix.len() + key.len() + value.len()) as u64
}

/// Drives `backend` and the `BTreeMap` model through `ops`, checking reads
/// after every step; `reopen` drops and reopens a persistent backend.
///
/// The model also counts the bytes of every record a write replaces since
/// the last compaction, and each compaction must reclaim exactly that much
/// from a persistent backend (nothing from a memory one) — reopens included,
/// since replaying the log must recount the garbage.
fn run_kv_model(
    mut backend: Box<dyn KvBackend>,
    reopen: Option<&dyn Fn() -> Box<dyn KvBackend>>,
    ops: &[KvOp],
) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut garbage = 0u64;
    for (kind, raw) in ops {
        let items: Vec<(Vec<u8>, &[u8])> = raw
            .iter()
            .map(|(id, bytes)| (model_key(*id), bytes.as_slice()))
            .collect();
        let refs: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (k.as_slice(), *v)).collect();
        let put = |model: &mut BTreeMap<Vec<u8>, Vec<u8>>,
                   garbage: &mut u64,
                   items: &[(&[u8], &[u8])]| {
            for &(k, v) in items {
                if let Some(old) = model.insert(k.to_vec(), v.to_vec()) {
                    *garbage += record_bytes(k, &old);
                }
            }
        };
        let append = |model: &mut BTreeMap<Vec<u8>, Vec<u8>>,
                      garbage: &mut u64,
                      items: &[(&[u8], &[u8])]| {
            for &(k, v) in items {
                match model.get_mut(k) {
                    Some(old) => {
                        *garbage += record_bytes(k, old);
                        old.extend_from_slice(v);
                    }
                    None => {
                        model.insert(k.to_vec(), v.to_vec());
                    }
                }
            }
        };
        match kind % 8 {
            0 => {
                for &(k, v) in refs.iter().take(1) {
                    backend.put(k, v);
                }
                put(&mut model, &mut garbage, &refs[..refs.len().min(1)]);
            }
            1 => {
                backend.put_batch_slices(&refs);
                put(&mut model, &mut garbage, &refs);
            }
            2 => {
                backend.merge_append_batch(&refs);
                append(&mut model, &mut garbage, &refs);
            }
            3 | 4 => {
                // The group write: the first half put, the rest appended.
                let (puts, appends) = refs.split_at(refs.len() / 2);
                backend.write_group(puts, appends);
                put(&mut model, &mut garbage, puts);
                append(&mut model, &mut garbage, appends);
            }
            5 => backend.sync().map_err(|e| e.to_string())?,
            6 => {
                backend.flush().map_err(|e| e.to_string())?;
                let reclaimed = backend.compact().map_err(|e| e.to_string())?;
                let expected = if backend.file_path().is_some() {
                    garbage
                } else {
                    0
                };
                prop_assert_eq!(reclaimed, expected);
                garbage = 0;
            }
            _ => {
                if let Some(reopen) = reopen {
                    backend.flush().map_err(|e| e.to_string())?;
                    drop(backend);
                    backend = reopen();
                }
            }
        }
        prop_assert_eq!(backend.len(), model.len());
        let bytes: usize = model.iter().map(|(k, v)| k.len() + v.len()).sum();
        prop_assert_eq!(backend.bytes_used(), bytes);
        for (k, _) in &items {
            prop_assert_eq!(backend.get(k), model.get(k).cloned());
            prop_assert_eq!(backend.contains(k), model.contains_key(k));
        }
        // `get_into` agrees with `get` on the whole key space — hits still
        // pending after a single `put`, flushed hits and misses — through one
        // reused buffer that is never empty going in, so a miss must clear it.
        let mut buf = vec![0xee; 3];
        for id in 0..18 {
            let k = model_key(id);
            if buf.is_empty() {
                buf.push(0xee);
            }
            let found = backend.get_into(&k, &mut buf);
            let expected = backend.get(&k);
            prop_assert_eq!(found, expected.is_some());
            prop_assert_eq!(&buf, &expected.unwrap_or_default());
        }
        // A scan after every step: superseded records written since the
        // last sort (on open or `sync`) must be skipped as well.
        let mut scanned: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        backend.scan_slices(5, &mut |block| {
            scanned.extend(block.iter().map(|&(k, v)| (k.to_vec(), v.to_vec())));
        });
        scanned.sort();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(&scanned, &expected);
    }
    let expected: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    let mut iterated: Vec<_> = backend.iter().collect();
    iterated.sort();
    prop_assert_eq!(&iterated, &expected);
    Ok(())
}

proptest! {
    #[test]
    fn kv_backends_match_a_btreemap_model(
        // Random interleavings of every write path, flushes, compactions
        // and reopens over keys on both sides of the inline-key boundary.
        ops in prop::collection::vec(
            (0u8..8, prop::collection::vec((0u8..18, prop::collection::vec(any::<u8>(), 0..20)), 0..6)),
            1..40,
        ),
    ) {
        run_kv_model(Box::new(MemBackend::new()), None, &ops)?;
        let path = scratch_file("model");
        let _ = std::fs::remove_file(&path);
        let open = || -> Box<dyn KvBackend> { Box::new(FileBackend::open(&path).unwrap()) };
        run_kv_model(open(), Some(&open), &ops)?;
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
        prop_assert!(buf.len() <= 10);
    }

    #[test]
    fn varint_sequence_roundtrip(vals in prop::collection::vec(any::<u64>(), 0..64)) {
        let mut buf = Vec::new();
        for &v in &vals {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        let mut decoded = Vec::new();
        while pos < buf.len() {
            decoded.push(read_varint(&buf, &mut pos).unwrap());
        }
        prop_assert_eq!(decoded, vals);
    }

    #[test]
    fn encode_cells_roundtrip_is_sorted_set(
        rows in 1u32..60,
        cols in 1u32..60,
        picks in prop::collection::vec(0usize..3600, 0..128),
    ) {
        let shape = Shape::d2(rows, cols);
        let coords: Vec<Coord> = picks
            .iter()
            .map(|&i| shape.unravel(i % shape.num_cells()))
            .collect();
        let buf = encode_cells(&shape, &coords);
        let decoded = decode_cells(&shape, &buf).unwrap();
        let mut expected = coords;
        expected.sort();
        expected.dedup();
        prop_assert_eq!(decoded, expected);
    }

    #[test]
    fn columnar_decode_matches_legacy_decode(
        // Several cell blocks encoded back-to-back into one buffer, the way
        // entry values carry them.  Decoding each block with the columnar
        // `decode_cells_block` must visit the same bytes and yield the same
        // cells (as linear indices) as the legacy per-coord `decode_cells_at`,
        // and the validate-only `skip_cells_block` must advance identically.
        rows in 1u32..60,
        cols in 1u32..60,
        blocks in prop::collection::vec(prop::collection::vec(0usize..3600, 0..96), 1..12),
    ) {
        let shape = Shape::d2(rows, cols);
        let num_cells = shape.num_cells() as u64;
        let mut buf = Vec::new();
        let mut expected: Vec<Vec<u64>> = Vec::with_capacity(blocks.len());
        for picks in &blocks {
            let coords: Vec<Coord> = picks
                .iter()
                .map(|&i| shape.unravel(i % shape.num_cells()))
                .collect();
            encode_cells_into(&mut buf, &shape, &coords);
            let mut idxs: Vec<u64> = coords.iter().map(|c| pack_coord(&shape, c)).collect();
            idxs.sort_unstable();
            idxs.dedup();
            expected.push(idxs);
        }
        let mut frame = ScanFrame::new();
        let mut legacy_pos = 0usize;
        let mut columnar_pos = 0usize;
        let mut skip_pos = 0usize;
        for idxs in &expected {
            let coords = decode_cells_at(&shape, &buf, &mut legacy_pos).unwrap();
            let run = decode_cells_block(&mut frame, num_cells, &buf, &mut columnar_pos).unwrap();
            skip_cells_block(num_cells, &buf, &mut skip_pos).unwrap();
            // Same bytes consumed, same cells produced.
            prop_assert_eq!(columnar_pos, legacy_pos);
            prop_assert_eq!(skip_pos, legacy_pos);
            let linear: Vec<u64> = coords.iter().map(|c| pack_coord(&shape, c)).collect();
            prop_assert_eq!(frame.run(run), linear.as_slice());
            prop_assert_eq!(frame.run(run), idxs.as_slice());
        }
        prop_assert_eq!(legacy_pos, buf.len());
        prop_assert_eq!(frame.len(), expected.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn columnar_decode_rejects_exactly_what_legacy_rejects(
        // Arbitrary (mostly invalid) bytes: the columnar decoder must accept
        // and reject exactly the inputs the legacy decoder does, and on
        // rejection roll the frame back to its pre-call length.
        rows in 1u32..20,
        cols in 1u32..20,
        raw in prop::collection::vec(any::<u8>(), 0..64),
        picks in prop::collection::vec(0usize..400, 0..32),
    ) {
        let shape = Shape::d2(rows, cols);
        let num_cells = shape.num_cells() as u64;
        let cut = raw.iter().map(|&b| b as usize).sum::<usize>() % 200;
        // Mix of genuinely random bytes and a truncated valid encoding, so
        // both accept and reject paths are exercised.
        let coords: Vec<Coord> = picks
            .iter()
            .map(|&i| shape.unravel(i % shape.num_cells()))
            .collect();
        let mut valid = encode_cells(&shape, &coords);
        valid.truncate(cut.min(valid.len()));
        for buf in [raw.as_slice(), valid.as_slice()] {
            let mut legacy_pos = 0usize;
            let legacy = decode_cells_at(&shape, buf, &mut legacy_pos);
            // Seed the frame with pre-existing content to protect.
            let mut frame = ScanFrame::new();
            let seed = encode_cells(&shape, &[shape.unravel(0)]);
            let mut seed_pos = 0usize;
            decode_cells_block(&mut frame, num_cells, &seed, &mut seed_pos).unwrap();
            let pre_len = frame.len();
            let mut columnar_pos = 0usize;
            let columnar = decode_cells_block(&mut frame, num_cells, buf, &mut columnar_pos);
            let mut skip_pos = 0usize;
            let skipped = skip_cells_block(num_cells, buf, &mut skip_pos);
            prop_assert_eq!(legacy.is_ok(), columnar.is_ok());
            prop_assert_eq!(legacy.is_ok(), skipped.is_ok());
            match (legacy, columnar) {
                (Ok(coords), Ok(run)) => {
                    prop_assert_eq!(columnar_pos, legacy_pos);
                    prop_assert_eq!(skip_pos, legacy_pos);
                    let linear: Vec<u64> =
                        coords.iter().map(|c| pack_coord(&shape, c)).collect();
                    prop_assert_eq!(frame.run(run), linear.as_slice());
                }
                // On rejection the frame must roll back to its pre-call length.
                _ => prop_assert_eq!(frame.len(), pre_len),
            }
        }
    }

    #[test]
    fn arena_encode_matches_legacy_encode(
        // A random "region batch": each element is one entry's cell list plus
        // an optional payload blob, all serialised back-to-back into one
        // arena.  Every spanned value must be byte-identical to what the
        // legacy per-entry `Vec` encoders produce, and decode identically.
        rows in 1u32..40,
        cols in 1u32..40,
        batch in prop::collection::vec(
            (prop::collection::vec(0usize..1600, 0..32),
             any::<bool>(),
             prop::collection::vec(any::<u8>(), 0..24)),
            1..24,
        ),
    ) {
        let shape = Shape::d2(rows, cols);
        let mut arena = Arena::new();
        let mut spans = Vec::with_capacity(batch.len());
        let mut legacy = Vec::with_capacity(batch.len());
        for (picks, has_payload, payload) in &batch {
            let coords: Vec<Coord> = picks
                .iter()
                .map(|&i| shape.unravel(i % shape.num_cells()))
                .collect();
            let start = arena.begin();
            encode_cells_into(arena.buf_mut(), &shape, &coords);
            if *has_payload {
                encode_payload(arena.buf_mut(), payload);
            }
            spans.push(arena.finish(start));
            let mut reference = encode_cells(&shape, &coords);
            if *has_payload {
                encode_payload(&mut reference, payload);
            }
            legacy.push(reference);
        }
        // Spans tile the arena exactly (no gaps, no overlaps) and each value
        // is byte-identical to its legacy encoding, so anything the legacy
        // decoder accepted decodes identically from the arena.
        let mut expected_total = 0usize;
        for (span, reference) in spans.iter().zip(&legacy) {
            prop_assert_eq!(arena.get(*span), reference.as_slice());
            expected_total += span.len();
            let mut pos = 0usize;
            let decoded =
                subzero_store::codec::decode_cells_at(&shape, arena.get(*span), &mut pos);
            prop_assert!(decoded.is_ok(), "arena value must stay decodable");
        }
        prop_assert_eq!(arena.len(), expected_total);
    }

    #[test]
    fn kv_backend_behaves_like_hashmap(
        ops in prop::collection::vec((prop::collection::vec(any::<u8>(), 1..8),
                                      prop::collection::vec(any::<u8>(), 0..16)), 0..100),
    ) {
        let mut backend = MemBackend::new();
        let mut reference = std::collections::HashMap::new();
        for (k, v) in &ops {
            backend.put(k, v);
            reference.insert(k.clone(), v.clone());
        }
        prop_assert_eq!(backend.len(), reference.len());
        for (k, v) in &reference {
            let got = backend.get(k);
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        let expected_bytes: usize = reference.iter().map(|(k, v)| k.len() + v.len()).sum();
        prop_assert_eq!(backend.bytes_used(), expected_bytes);
    }

    #[test]
    fn file_backend_bytes_used_excludes_superseded_records(
        // Keys drawn from a tiny space so random op sequences re-put keys
        // constantly; values vary in length so stale accounting would show.
        ops in prop::collection::vec((0u8..6, prop::collection::vec(any::<u8>(), 0..24)), 1..60),
        flush_every in 1usize..8,
        batch_from in 0usize..60,
    ) {
        let path = scratch_file("bytes-used");
        let _ = std::fs::remove_file(&path);
        let mut file = FileBackend::open(&path).unwrap();
        let mut reference = MemBackend::new();
        for (i, (k, v)) in ops.iter().enumerate() {
            let key = [b'k', *k];
            if i >= batch_from {
                file.put_batch_slices(&[(&key[..], v.as_slice())]);
            } else {
                file.put(&key, v);
            }
            reference.put(&key, v);
            if i % flush_every == 0 {
                file.flush().unwrap();
            }
            // Dead (superseded) records must not be counted, regardless of
            // how writes interleave with flushes.
            prop_assert_eq!(file.bytes_used(), reference.bytes_used());
            prop_assert_eq!(file.get(&key), reference.get(&key));
        }
        prop_assert_eq!(file.len(), reference.len());
        // Accounting must also survive an index rebuild from the log, which
        // scans every record including the superseded ones.
        file.flush().unwrap();
        drop(file);
        let reopened = FileBackend::open(&path).unwrap();
        prop_assert_eq!(reopened.bytes_used(), reference.bytes_used());
        prop_assert_eq!(reopened.len(), reference.len());
        for (k, v) in reference.iter() {
            prop_assert_eq!(reopened.get(&k), Some(v));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rtree_query_matches_linear_scan(
        entries in prop::collection::vec(((0u32..200, 0u32..200), (0u32..8, 0u32..8)), 1..150),
        query in ((0u32..200, 0u32..200), (0u32..40, 0u32..40)),
    ) {
        let mut tree = RTree::new();
        let mut reference = Vec::new();
        for (id, ((r, c), (dr, dc))) in entries.iter().enumerate() {
            let b = BoundingBox::new(&Coord::d2(*r, *c), &Coord::d2(r + dr, c + dc));
            tree.insert(b, id as u64);
            reference.push((b, id as u64));
        }
        let ((qr, qc), (qdr, qdc)) = query;
        let q = BoundingBox::new(&Coord::d2(qr, qc), &Coord::d2(qr + qdr, qc + qdc));
        let mut got = tree.query(&q);
        got.sort_unstable();
        let mut expected: Vec<u64> = reference
            .iter()
            .filter(|(b, _)| b.intersects(&q))
            .map(|(_, id)| *id)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn rtree_point_queries_find_containing_boxes(
        entries in prop::collection::vec(((0u32..50, 0u32..50), (0u32..5, 0u32..5)), 1..80),
        point in (0u32..55, 0u32..55),
    ) {
        let mut tree = RTree::new();
        let mut reference = Vec::new();
        for (id, ((r, c), (dr, dc))) in entries.iter().enumerate() {
            let b = BoundingBox::new(&Coord::d2(*r, *c), &Coord::d2(r + dr, c + dc));
            tree.insert(b, id as u64);
            reference.push((b, id as u64));
        }
        let p = Coord::d2(point.0, point.1);
        let mut got = tree.query_point(&p);
        got.sort_unstable();
        let mut expected: Vec<u64> = reference
            .iter()
            .filter(|(b, _)| b.contains(&p))
            .map(|(_, id)| *id)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
