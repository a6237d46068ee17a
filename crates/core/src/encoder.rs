//! Byte-level encodings of region-pair entries (Fig. 4 of the paper).
//!
//! The Encoder turns the region pairs produced by `lwrite()` into hash-table
//! keys and values.  Four encoding families exist:
//!
//! * **FullOne** — one hash entry per key-side cell; its value references a
//!   shared entry holding the other side's cells.
//! * **FullMany** — one hash entry per region pair holding both sides; an
//!   R-tree over the key-side cells locates intersecting entries.
//! * **PayOne** — one hash entry per output cell, duplicating the payload in
//!   each value.
//! * **PayMany** — one hash entry per region pair holding the output cells
//!   and the payload, indexed by the R-tree.
//!
//! The functions here are pure byte codecs: key construction, entry bodies,
//! entry-id lists and payload lists.  The [`datastore`](crate::datastore)
//! module decides which of them to use for a given
//! [`StorageStrategy`](crate::model::StorageStrategy).

use subzero_array::{Coord, Shape};
use subzero_store::codec::{
    self, decode_cells_at, decode_cells_block, decode_payload, encode_cells_into, encode_payload,
    read_varint, skip_cells_block, write_varint, CellRun, CodecError, ScanFrame,
};

/// Key-space tags: every key in an operator datastore starts with one of
/// these bytes so entry records and cell records can share one database.
mod tag {
    /// A shared entry record (`entry id -> entry body`).
    pub const ENTRY: u8 = b'e';
    /// A backward cell record (`output cell -> entry ids / payloads`).
    pub const OUT_CELL: u8 = b'o';
    /// A forward cell record (`(input idx, input cell) -> entry ids`).
    pub const IN_CELL: u8 = b'i';
}

/// Builds the key of a shared entry record.
pub fn entry_key(entry_id: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(9);
    entry_key_into(&mut k, entry_id);
    k
}

/// Appends the bytes of [`entry_key`] to `out` (the arena variant).
pub fn entry_key_into(out: &mut Vec<u8>, entry_id: u64) {
    out.push(tag::ENTRY);
    out.extend_from_slice(&codec::encode_fixed_u64(entry_id));
}

/// Builds the key of a backward (output-cell) record.
pub fn out_cell_key(out_shape: &Shape, cell: &Coord) -> Vec<u8> {
    PackedCellKey::out_cell(out_shape, cell).to_bytes()
}

/// Builds the key of a forward (input-cell) record.
pub fn in_cell_key(in_shape: &Shape, input_idx: usize, cell: &Coord) -> Vec<u8> {
    PackedCellKey::in_cell(in_shape, input_idx, cell).to_bytes()
}

/// The packed, integer form of a cell-record key.
///
/// The batched write path works in this form as long as it can: packing a
/// coordinate costs a couple of multiplies and no allocation, the write-side
/// dedup table hashes and compares these fixed-width values instead of key
/// byte strings, and only the *distinct* keys that survive dedup are ever
/// materialised as bytes (straight into the batch's key arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedCellKey {
    /// Key-space tag: [`tag::OUT_CELL`] or [`tag::IN_CELL`].
    tag: u8,
    /// Input index for forward keys; 0 for output-cell keys.
    input_idx: u8,
    /// The cell's row-major linear index under its array's shape.
    packed: u64,
}

impl PackedCellKey {
    /// Packs a backward (output-cell) record key.
    #[inline]
    pub fn out_cell(out_shape: &Shape, cell: &Coord) -> Self {
        Self::out_linear(codec::pack_coord(out_shape, cell))
    }

    /// Packs a forward (input-cell) record key.
    #[inline]
    pub fn in_cell(in_shape: &Shape, input_idx: usize, cell: &Coord) -> Self {
        Self::in_linear(input_idx, codec::pack_coord(in_shape, cell))
    }

    /// Packs a backward record key from the output cell's already-raveled
    /// linear index (lookups walk their query in linear-index space and
    /// never build a [`Coord`]).
    #[inline]
    pub fn out_linear(index: u64) -> Self {
        PackedCellKey {
            tag: tag::OUT_CELL,
            input_idx: 0,
            packed: index,
        }
    }

    /// Packs a forward record key from the input cell's already-raveled
    /// linear index.
    #[inline]
    pub fn in_linear(input_idx: usize, index: u64) -> Self {
        PackedCellKey {
            tag: tag::IN_CELL,
            input_idx: input_idx as u8,
            packed: index,
        }
    }

    /// Appends the exact bytes [`out_cell_key`]/[`in_cell_key`] would build
    /// for this key to `out` (the arena variant).
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.push(self.tag);
        if self.tag == tag::IN_CELL {
            out.push(self.input_idx);
        }
        out.extend_from_slice(&codec::encode_fixed_u64(self.packed));
    }

    /// The key bytes as an owned buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut k = Vec::with_capacity(10);
        self.write_into(&mut k);
        k
    }
}

impl std::hash::Hash for PackedCellKey {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // One mixed word instead of three field writes: the tag/input bits
        // live above any realistic packed coordinate, so distinct keys stay
        // distinct words (and even a giant-array overlap only costs a bucket
        // collision, never a false equality).
        state.write_u64(self.packed ^ ((self.tag as u64) << 56) ^ ((self.input_idx as u64) << 48));
    }
}

/// Classification of a raw datastore key.  Cells stay packed as linear
/// indices, bounds-checked against the shapes' cell counts, so a scan never
/// unravels a coordinate it does not need
/// ([`codec::unpack_coord`] turns one back into a [`Coord`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedKeyLinear {
    /// A shared entry record.
    Entry(u64),
    /// A backward (output-cell) record, as a linear index under the output
    /// shape.
    OutCell(u64),
    /// A forward (input-cell) record for the given input index, as a linear
    /// index under that input's shape.
    InCell {
        /// Which input array the cell belongs to.
        input_idx: usize,
        /// The input cell's linear index.
        index: u64,
    },
}

/// Decodes a raw key into its linear form, given the operator's cell counts
/// (`out_cells` = output shape cells, `in_cells[i]` = input `i` cells).
pub fn decode_key_linear(
    out_cells: u64,
    in_cells: &[u64],
    key: &[u8],
) -> Result<DecodedKeyLinear, CodecError> {
    match key.first() {
        Some(&tag::ENTRY) => Ok(DecodedKeyLinear::Entry(codec::decode_fixed_u64(&key[1..])?)),
        Some(&tag::OUT_CELL) => {
            let packed = codec::decode_fixed_u64(&key[1..])?;
            if packed >= out_cells {
                return Err(CodecError::IndexOutOfBounds {
                    index: packed,
                    num_cells: out_cells,
                });
            }
            Ok(DecodedKeyLinear::OutCell(packed))
        }
        Some(&tag::IN_CELL) => {
            let input_idx = *key.get(1).ok_or(CodecError::UnexpectedEof)? as usize;
            let packed = codec::decode_fixed_u64(&key[2..])?;
            let num_cells = *in_cells.get(input_idx).ok_or(CodecError::UnexpectedEof)?;
            if packed >= num_cells {
                return Err(CodecError::IndexOutOfBounds {
                    index: packed,
                    num_cells,
                });
            }
            Ok(DecodedKeyLinear::InCell {
                input_idx,
                index: packed,
            })
        }
        _ => Err(CodecError::UnexpectedEof),
    }
}

/// A decoded *full* entry body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FullEntry {
    /// Output cells of the region pair (empty when the encoding omits them —
    /// the backward `FullOne` layout stores only input cells because the
    /// output cell is the hash key).
    pub outcells: Vec<Coord>,
    /// Input cells per input array.
    pub incells: Vec<Vec<Coord>>,
}

/// Encodes a full entry body.
///
/// `include_outcells` selects between the `FullOne` layout (input cells only)
/// and the `FullMany` layout (both sides).  The allocating form is what
/// [`OpDatastore::store_pair`](crate::datastore::OpDatastore::store_pair)
/// writes, so it stays as the byte reference for the batch path's
/// [`encode_full_entry_into`].
pub fn encode_full_entry(
    out_shape: &Shape,
    in_shapes: &[Shape],
    outcells: &[Coord],
    incells: &[Vec<Coord>],
    include_outcells: bool,
) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_full_entry_into(
        &mut buf,
        out_shape,
        in_shapes,
        outcells,
        incells,
        include_outcells,
    );
    buf
}

/// Appends the [`encode_full_entry`] encoding to `buf` (the arena variant:
/// the batched write path serialises every entry body of a region batch into
/// one contiguous buffer instead of allocating a `Vec` per entry).
pub fn encode_full_entry_into(
    buf: &mut Vec<u8>,
    out_shape: &Shape,
    in_shapes: &[Shape],
    outcells: &[Coord],
    incells: &[Vec<Coord>],
    include_outcells: bool,
) {
    buf.push(if include_outcells { 1 } else { 0 });
    if include_outcells {
        encode_cells_into(buf, out_shape, outcells);
    }
    write_varint(buf, incells.len() as u64);
    for (i, cells) in incells.iter().enumerate() {
        encode_cells_into(buf, &in_shapes[i], cells);
    }
}

/// Decodes a full entry body produced by [`encode_full_entry`].
pub fn decode_full_entry(
    out_shape: &Shape,
    in_shapes: &[Shape],
    buf: &[u8],
) -> Result<FullEntry, CodecError> {
    let mut pos = 0usize;
    let has_outcells = *buf.first().ok_or(CodecError::UnexpectedEof)? == 1;
    pos += 1;
    let outcells = if has_outcells {
        decode_cells_at(out_shape, buf, &mut pos)?
    } else {
        Vec::new()
    };
    let n_inputs = read_varint(buf, &mut pos)? as usize;
    let mut incells = Vec::with_capacity(n_inputs);
    for i in 0..n_inputs {
        let shape = in_shapes.get(i).ok_or(CodecError::UnexpectedEof)?;
        incells.push(decode_cells_at(shape, buf, &mut pos)?);
    }
    Ok(FullEntry { outcells, incells })
}

/// The two [`CellRun`]s of one full entry a scan join needs: where the entry's
/// output cells and the queried input's cells landed in the [`ScanFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullEntryRuns {
    /// The entry's output cells (empty run when the encoding omits them).
    pub outcells: CellRun,
    /// The entry's cells for the queried input index (empty run when the
    /// entry has fewer inputs than that).
    pub incells: CellRun,
}

/// Columnar counterpart of [`decode_full_entry`]: decodes the entry's output
/// cells and the cells of input `input_idx` into `frame` as linear-index
/// runs, *validating* (but not materialising) every other input's cells so a
/// body is accepted or rejected exactly as the legacy decoder would.  On
/// error the frame is rolled back to its pre-call length.
pub fn decode_full_entry_frame(
    frame: &mut ScanFrame,
    out_cells: u64,
    in_cells: &[u64],
    input_idx: usize,
    buf: &[u8],
) -> Result<FullEntryRuns, CodecError> {
    let mark = frame.len();
    let mut inner = || {
        let mut pos = 0usize;
        let has_outcells = *buf.first().ok_or(CodecError::UnexpectedEof)? == 1;
        pos += 1;
        let outcells = if has_outcells {
            decode_cells_block(frame, out_cells, buf, &mut pos)?
        } else {
            frame.empty_run()
        };
        let n_inputs = read_varint(buf, &mut pos)? as usize;
        let mut incells = frame.empty_run();
        for i in 0..n_inputs {
            let num_cells = *in_cells.get(i).ok_or(CodecError::UnexpectedEof)?;
            if i == input_idx {
                incells = decode_cells_block(frame, num_cells, buf, &mut pos)?;
            } else {
                skip_cells_block(num_cells, buf, &mut pos)?;
            }
        }
        Ok(FullEntryRuns { outcells, incells })
    };
    let result = inner();
    if result.is_err() {
        frame.truncate(mark);
    }
    result
}

/// Appends the entry ids of one cell-record value (an entry-id list) to
/// `ids`, returning how many were appended.  Scan decoders collect every
/// record's ids in one flat buffer and indexed lookups reuse one scratch
/// buffer, so no `Vec` is allocated per record.  A torn list appends nothing
/// and errs.
pub fn decode_entry_ids_into(ids: &mut Vec<u64>, value: &[u8]) -> Result<usize, CodecError> {
    let before = ids.len();
    let mut pos = 0usize;
    while pos < value.len() {
        match read_varint(value, &mut pos) {
            Ok(id) => ids.push(id),
            Err(e) => {
                ids.truncate(before);
                return Err(e);
            }
        }
    }
    Ok(ids.len() - before)
}

/// A decoded *payload* entry body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PayEntry {
    /// Output cells of the region pair (empty for the `PayOne` layout, where
    /// the output cell is the hash key).
    pub outcells: Vec<Coord>,
    /// The developer-defined payload blob.
    pub payload: Vec<u8>,
}

/// Encodes a payload entry body (the `PayMany` layout: output cells followed
/// by the payload).  Like [`encode_full_entry`], kept as the byte reference
/// that `store_pair` writes and the batch path is compared against.
pub fn encode_pay_entry(out_shape: &Shape, outcells: &[Coord], payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_pay_entry_into(&mut buf, out_shape, outcells, payload);
    buf
}

/// Appends the [`encode_pay_entry`] encoding to `buf` (the arena variant).
pub fn encode_pay_entry_into(
    buf: &mut Vec<u8>,
    out_shape: &Shape,
    outcells: &[Coord],
    payload: &[u8],
) {
    encode_cells_into(buf, out_shape, outcells);
    encode_payload(buf, payload);
}

/// Decodes a payload entry body produced by [`encode_pay_entry`].
pub fn decode_pay_entry(out_shape: &Shape, buf: &[u8]) -> Result<PayEntry, CodecError> {
    let mut pos = 0usize;
    let outcells = decode_cells_at(out_shape, buf, &mut pos)?;
    let payload = decode_payload(buf, &mut pos)?;
    Ok(PayEntry { outcells, payload })
}

/// Appends one entry id to an entry-id-list value (the value format of cell
/// records for the `Full*` encodings).
pub fn append_entry_id(value: &mut Vec<u8>, entry_id: u64) {
    write_varint(value, entry_id);
}

/// Appends one payload blob to a payload-list value (the value format of cell
/// records for the `PayOne` encoding, which duplicates the payload per cell).
pub fn append_payload(value: &mut Vec<u8>, payload: &[u8]) {
    encode_payload(value, payload);
}

/// Decodes a payload-list value.
pub fn decode_payloads(value: &[u8]) -> Result<Vec<Vec<u8>>, CodecError> {
    let mut pos = 0usize;
    let mut payloads = Vec::new();
    while pos < value.len() {
        payloads.push(decode_payload(value, &mut pos)?);
    }
    Ok(payloads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> (Shape, Vec<Shape>) {
        (Shape::d2(8, 8), vec![Shape::d2(8, 8), Shape::d2(4, 4)])
    }

    #[test]
    fn key_roundtrips() {
        let (out_shape, in_shapes) = shapes();
        let out_cells = out_shape.num_cells() as u64;
        let in_cells: Vec<u64> = in_shapes.iter().map(|s| s.num_cells() as u64).collect();
        let decode = |key: &[u8]| decode_key_linear(out_cells, &in_cells, key).unwrap();
        assert_eq!(decode(&entry_key(42)), DecodedKeyLinear::Entry(42));
        let cell = Coord::d2(3, 4);
        let DecodedKeyLinear::OutCell(index) = decode(&out_cell_key(&out_shape, &cell)) else {
            panic!("an output-cell key");
        };
        assert_eq!(codec::unpack_coord(&out_shape, index).unwrap(), cell);
        let cell = Coord::d2(2, 2);
        let DecodedKeyLinear::InCell { input_idx, index } =
            decode(&in_cell_key(&in_shapes[1], 1, &cell))
        else {
            panic!("an input-cell key");
        };
        assert_eq!(input_idx, 1);
        assert_eq!(codec::unpack_coord(&in_shapes[1], index).unwrap(), cell);
    }

    #[test]
    fn keys_are_distinct_across_tags_and_cells() {
        let (out_shape, in_shapes) = shapes();
        let a = out_cell_key(&out_shape, &Coord::d2(0, 1));
        let b = out_cell_key(&out_shape, &Coord::d2(1, 0));
        let c = in_cell_key(&in_shapes[0], 0, &Coord::d2(0, 1));
        let d = entry_key(1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(c, d);
    }

    #[test]
    fn full_entry_roundtrip_with_outcells() {
        let (out_shape, in_shapes) = shapes();
        let outcells = vec![Coord::d2(0, 1), Coord::d2(2, 3)];
        let incells = vec![
            vec![Coord::d2(4, 5), Coord::d2(6, 7)],
            vec![Coord::d2(0, 0)],
        ];
        let buf = encode_full_entry(&out_shape, &in_shapes, &outcells, &incells, true);
        let decoded = decode_full_entry(&out_shape, &in_shapes, &buf).unwrap();
        assert_eq!(decoded.outcells, outcells);
        assert_eq!(decoded.incells, incells);
    }

    #[test]
    fn full_entry_roundtrip_without_outcells() {
        let (out_shape, in_shapes) = shapes();
        let incells = vec![vec![Coord::d2(1, 1)], vec![]];
        let buf = encode_full_entry(&out_shape, &in_shapes, &[], &incells, false);
        let decoded = decode_full_entry(&out_shape, &in_shapes, &buf).unwrap();
        assert!(decoded.outcells.is_empty());
        assert_eq!(decoded.incells, incells);
        // The FullOne layout must be strictly smaller than the FullMany one
        // for the same pair (that is its reason to exist).
        let with = encode_full_entry(
            &out_shape,
            &in_shapes,
            &[Coord::d2(0, 0), Coord::d2(1, 1)],
            &incells,
            true,
        );
        assert!(buf.len() < with.len());
    }

    #[test]
    fn full_entry_frame_decode_matches_legacy() {
        let (out_shape, in_shapes) = shapes();
        let out_cells = out_shape.num_cells() as u64;
        let in_cells: Vec<u64> = in_shapes.iter().map(|s| s.num_cells() as u64).collect();
        let outcells = vec![Coord::d2(0, 1), Coord::d2(2, 3)];
        let incells = vec![
            vec![Coord::d2(4, 5), Coord::d2(6, 7)],
            vec![Coord::d2(0, 0), Coord::d2(3, 3)],
        ];
        let mut frame = ScanFrame::new();
        for include in [true, false] {
            for input_idx in 0..in_shapes.len() {
                let buf = encode_full_entry(&out_shape, &in_shapes, &outcells, &incells, include);
                let legacy = decode_full_entry(&out_shape, &in_shapes, &buf).unwrap();
                let runs =
                    decode_full_entry_frame(&mut frame, out_cells, &in_cells, input_idx, &buf)
                        .unwrap();
                let packed = |shape: &Shape, cs: &[Coord]| {
                    cs.iter()
                        .map(|c| codec::pack_coord(shape, c))
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    frame.run(runs.outcells),
                    packed(&out_shape, &legacy.outcells).as_slice(),
                    "outcells include={include} input={input_idx}"
                );
                assert_eq!(
                    frame.run(runs.incells),
                    packed(&in_shapes[input_idx], &legacy.incells[input_idx]).as_slice(),
                    "incells include={include} input={input_idx}"
                );
            }
        }

        // Rejection parity: a body whose *other* input is corrupt fails the
        // frame decode too (skip validates), leaving the frame untouched.
        let mut corrupt = encode_full_entry(&out_shape, &in_shapes, &outcells, &incells, true);
        corrupt.truncate(corrupt.len() - 1);
        assert!(decode_full_entry(&out_shape, &in_shapes, &corrupt).is_err());
        let before = frame.len();
        assert!(decode_full_entry_frame(&mut frame, out_cells, &in_cells, 0, &corrupt).is_err());
        assert_eq!(frame.len(), before, "failed decode left cells behind");
    }

    #[test]
    fn pay_entry_roundtrip() {
        let (out_shape, _) = shapes();
        let outcells = vec![Coord::d2(7, 7)];
        let payload = vec![3, 0, 0, 0];
        let buf = encode_pay_entry(&out_shape, &outcells, &payload);
        let decoded = decode_pay_entry(&out_shape, &buf).unwrap();
        assert_eq!(decoded.outcells, outcells);
        assert_eq!(decoded.payload, payload);
    }

    #[test]
    fn pay_entry_empty_payload() {
        let (out_shape, _) = shapes();
        let buf = encode_pay_entry(&out_shape, &[Coord::d2(0, 0)], &[]);
        let decoded = decode_pay_entry(&out_shape, &buf).unwrap();
        assert!(decoded.payload.is_empty());
    }

    #[test]
    fn entry_id_lists_merge_by_appending() {
        let mut value = Vec::new();
        append_entry_id(&mut value, 7);
        append_entry_id(&mut value, 300);
        append_entry_id(&mut value, 7);
        let mut ids = Vec::new();
        assert_eq!(decode_entry_ids_into(&mut ids, &value).unwrap(), 3);
        assert_eq!(ids, vec![7, 300, 7]);
        assert_eq!(decode_entry_ids_into(&mut ids, &[]).unwrap(), 0);
        assert_eq!(ids, vec![7, 300, 7]);
    }

    #[test]
    fn entry_ids_into_matches_decode_entry_ids() {
        let mut value = Vec::new();
        append_entry_id(&mut value, 7);
        append_entry_id(&mut value, 300);
        // Ids append behind whatever the flat buffer already holds.
        let mut flat = vec![99u64];
        assert_eq!(decode_entry_ids_into(&mut flat, &value).unwrap(), 2);
        assert_eq!(flat, vec![99, 7, 300]);
        // A torn id list rolls the flat buffer back.
        assert!(decode_entry_ids_into(&mut flat, &[0x80u8]).is_err());
        assert_eq!(flat, vec![99, 7, 300]);
    }

    #[test]
    fn payload_lists_merge_by_appending() {
        let mut value = Vec::new();
        append_payload(&mut value, &[1, 2, 3]);
        append_payload(&mut value, &[]);
        append_payload(&mut value, &[9]);
        assert_eq!(
            decode_payloads(&value).unwrap(),
            vec![vec![1, 2, 3], vec![], vec![9]]
        );
    }

    #[test]
    fn packed_cell_keys_match_byte_keys() {
        let (out_shape, in_shapes) = shapes();
        for cell in [Coord::d2(0, 0), Coord::d2(7, 7), Coord::d2(3, 4)] {
            assert_eq!(
                PackedCellKey::out_cell(&out_shape, &cell).to_bytes(),
                out_cell_key(&out_shape, &cell)
            );
        }
        let cell = Coord::d2(2, 3);
        for (idx, in_shape) in in_shapes.iter().enumerate() {
            assert_eq!(
                PackedCellKey::in_cell(in_shape, idx, &cell).to_bytes(),
                in_cell_key(in_shape, idx, &cell)
            );
        }
        // Same cell, different key space => different packed keys.
        assert_ne!(
            PackedCellKey::out_cell(&out_shape, &cell),
            PackedCellKey::in_cell(&in_shapes[0], 0, &cell)
        );
        assert_ne!(
            PackedCellKey::in_cell(&in_shapes[0], 0, &cell),
            PackedCellKey::in_cell(&in_shapes[0], 1, &cell)
        );
    }

    #[test]
    fn arena_entry_encoders_match_legacy() {
        let (out_shape, in_shapes) = shapes();
        let outcells = vec![Coord::d2(0, 1), Coord::d2(2, 3)];
        let incells = vec![vec![Coord::d2(4, 5)], vec![Coord::d2(1, 1)]];
        let mut arena = subzero_store::Arena::new();

        let start = arena.begin();
        entry_key_into(arena.buf_mut(), 42);
        let span = arena.finish(start);
        assert_eq!(arena.get(span), entry_key(42).as_slice());

        for include in [true, false] {
            let start = arena.begin();
            encode_full_entry_into(
                arena.buf_mut(),
                &out_shape,
                &in_shapes,
                &outcells,
                &incells,
                include,
            );
            let span = arena.finish(start);
            assert_eq!(
                arena.get(span),
                encode_full_entry(&out_shape, &in_shapes, &outcells, &incells, include).as_slice()
            );
        }

        let start = arena.begin();
        encode_pay_entry_into(arena.buf_mut(), &out_shape, &outcells, b"payload");
        let span = arena.finish(start);
        assert_eq!(
            arena.get(span),
            encode_pay_entry(&out_shape, &outcells, b"payload").as_slice()
        );
    }

    #[test]
    fn decode_key_rejects_garbage() {
        let (out_shape, in_shapes) = shapes();
        let out_cells = out_shape.num_cells() as u64;
        let in_cells: Vec<u64> = in_shapes.iter().map(|s| s.num_cells() as u64).collect();
        assert!(decode_key_linear(out_cells, &in_cells, &[]).is_err());
        assert!(decode_key_linear(out_cells, &in_cells, b"zzzz").is_err());
        // An in-cell key referencing a non-existent input index fails.
        let mut bad = in_cell_key(&in_shapes[0], 0, &Coord::d2(0, 0));
        bad[1] = 9;
        assert!(decode_key_linear(out_cells, &in_cells, &bad).is_err());
        // So does a cell past the end of its array.
        let past = PackedCellKey::in_linear(1, in_cells[1]).to_bytes();
        assert!(decode_key_linear(out_cells, &in_cells, &past).is_err());
    }
}
