//! Byte-level codecs used by the lineage encoder.
//!
//! The Encoder (§VI-B of the paper) must serialise cell coordinates, which
//! "can easily be larger than the original data arrays" if stored naively.
//! Two tricks keep them small:
//!
//! * **Bit-packing** — when the array is small enough, each coordinate is
//!   packed into a single integer (its row-major linear index under the
//!   array's [`Shape`]), exactly as the paper describes ("each coordinate is
//!   bitpacked into a single integer if the array is small enough").
//! * **Varint / delta encoding** — packed indices of a cell list are sorted,
//!   delta-encoded and LEB128-varint encoded, so dense regions cost about a
//!   byte per cell.
//!
//! All functions are deterministic and total: decoding what was encoded under
//! the same shape always returns the original coordinates (see the property
//! tests).

use subzero_array::{Coord, Shape};

/// Errors produced while decoding lineage bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream ended in the middle of a value.
    UnexpectedEof,
    /// A varint ran over the maximum encodable length.
    VarintOverflow,
    /// A decoded linear index was out of bounds for the shape it was decoded
    /// against.
    IndexOutOfBounds {
        /// The decoded index.
        index: u64,
        /// Number of cells in the target shape.
        num_cells: u64,
    },
    /// The byte stream decoded but violated a structural invariant of the
    /// encoded value (wrong magic, impossible count, bad tag, ...).
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of encoded lineage bytes"),
            CodecError::VarintOverflow => write!(f, "varint overflow while decoding"),
            CodecError::IndexOutOfBounds { index, num_cells } => write!(
                f,
                "decoded cell index {index} out of bounds for array with {num_cells} cells"
            ),
            CodecError::Corrupt(what) => write!(f, "corrupt encoded value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `value` to `out` as an LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(CodecError::UnexpectedEof)?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Packs a coordinate into its row-major linear index under `shape`.
///
/// # Panics
///
/// Panics if the coordinate is out of bounds for `shape`.
#[inline]
pub fn pack_coord(shape: &Shape, coord: &Coord) -> u64 {
    shape.ravel(coord) as u64
}

/// Unpacks a linear index back into a coordinate under `shape`.
pub fn unpack_coord(shape: &Shape, packed: u64) -> Result<Coord, CodecError> {
    let n = shape.num_cells() as u64;
    if packed >= n {
        return Err(CodecError::IndexOutOfBounds {
            index: packed,
            num_cells: n,
        });
    }
    Ok(shape.unravel(packed as usize))
}

/// Encodes a list of coordinates (under `shape`) into a compact byte string:
/// count, then sorted + delta + varint encoded linear indices.
///
/// The cell list is treated as a *set*: order is not preserved and duplicates
/// are collapsed.  That matches the semantics of a region pair, whose sides
/// are sets of cells.
pub fn encode_cells(shape: &Shape, coords: &[Coord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(coords.len() + 4);
    encode_cells_into(&mut out, shape, coords);
    out
}

/// Appends the [`encode_cells`] encoding of `coords` to `out` (the arena
/// variant: batched encoders write every value of a batch into one shared
/// buffer instead of allocating a `Vec` per value).  Produces exactly the
/// bytes `encode_cells` would.
pub fn encode_cells_into(out: &mut Vec<u8>, shape: &Shape, coords: &[Coord]) {
    let mut idxs: Vec<u64> = coords.iter().map(|c| pack_coord(shape, c)).collect();
    idxs.sort_unstable();
    idxs.dedup();
    write_varint(out, idxs.len() as u64);
    let mut prev = 0u64;
    for (i, idx) in idxs.iter().enumerate() {
        let delta = if i == 0 { *idx } else { idx - prev };
        write_varint(out, delta);
        prev = *idx;
    }
}

/// Offset/length address of one encoded value inside an [`Arena`].
///
/// Spans are plain indices, not borrows: encoders can keep appending to the
/// arena after taking a span, and resolve it to bytes later with
/// [`Arena::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    offset: usize,
    len: usize,
}

impl Span {
    /// Length in bytes of the addressed value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the addressed value is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A contiguous encode arena: many encoded values packed back-to-back into
/// one buffer, addressed by [`Span`]s.
///
/// The batched write path serialises every hash entry and cell record of a
/// region batch into one arena instead of allocating a `Vec<u8>` per value,
/// then hands the spans zero-copy to the key-value backend's group write.
/// Values are appended with [`begin`](Arena::begin) /
/// [`finish`](Arena::finish) bracketing writes to the underlying buffer
/// (exposed via [`buf_mut`](Arena::buf_mut) so the existing `*_into` codecs
/// can be reused unchanged).
#[derive(Debug, Default)]
pub struct Arena {
    buf: Vec<u8>,
}

impl Arena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with `bytes` of backing capacity pre-allocated.
    pub fn with_capacity(bytes: usize) -> Self {
        Arena {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Marks the start of a new value; pass the returned offset to
    /// [`finish`](Arena::finish) once the value's bytes are written.
    pub fn begin(&self) -> usize {
        self.buf.len()
    }

    /// Closes the value opened at `start`, returning its span.
    pub fn finish(&self, start: usize) -> Span {
        debug_assert!(start <= self.buf.len());
        Span {
            offset: start,
            len: self.buf.len() - start,
        }
    }

    /// The underlying buffer, for appending a value's bytes between
    /// [`begin`](Arena::begin) and [`finish`](Arena::finish).
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Appends `bytes` as one complete value.
    pub fn push(&mut self, bytes: &[u8]) -> Span {
        let start = self.begin();
        self.buf.extend_from_slice(bytes);
        self.finish(start)
    }

    /// Resolves a span to its bytes.
    pub fn get(&self, span: Span) -> &[u8] {
        &self.buf[span.offset..span.offset + span.len]
    }

    /// Total bytes in the arena.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the arena holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drops all values, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// Decodes a byte string produced by [`encode_cells`] back into coordinates
/// (sorted in row-major order).
pub fn decode_cells(shape: &Shape, buf: &[u8]) -> Result<Vec<Coord>, CodecError> {
    let mut pos = 0usize;
    let coords = decode_cells_at(shape, buf, &mut pos)?;
    Ok(coords)
}

/// Decodes one [`encode_cells`] block starting at `*pos`, advancing `*pos`.
/// Used when several cell lists are concatenated in a single value.
pub fn decode_cells_at(
    shape: &Shape,
    buf: &[u8],
    pos: &mut usize,
) -> Result<Vec<Coord>, CodecError> {
    let count = read_varint(buf, pos)? as usize;
    // A corrupt count can claim more cells than the buffer could possibly
    // hold (each delta is at least one byte); cap the pre-allocation so bad
    // input fails with `UnexpectedEof` instead of an absurd allocation.
    let mut out = Vec::with_capacity(count.min(buf.len() - *pos + 1));
    let mut acc = 0u64;
    for i in 0..count {
        let delta = read_varint(buf, pos)?;
        acc = if i == 0 { delta } else { acc + delta };
        out.push(unpack_coord(shape, acc)?);
    }
    Ok(out)
}

/// Half-open bounds of one decoded cells-block inside a [`ScanFrame`]:
/// `frame.run(cell_run)` is the block's linear indices.
///
/// Runs are plain indices, not borrows (like [`Span`] for the [`Arena`]), so
/// decoders can keep appending blocks to the frame while holding runs for
/// earlier ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellRun {
    start: u32,
    len: u32,
}

impl CellRun {
    /// Number of cells in the run.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the run decodes no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A reusable columnar buffer of decoded cell sets.
///
/// Scan-side decoders used to materialise every entry's cells as its own
/// `Vec<Coord>` — two allocations plus an unravel per cell, repeated for
/// every record of a full-datastore scan.  A `ScanFrame` instead accumulates
/// the *linear* indices of many decoded blocks back-to-back in one flat
/// buffer, addressed by [`CellRun`]s; joins run directly in linear-index
/// space against the query's bitmap (`CellSet::contains_linear`), and the
/// frame is [`clear`](ScanFrame::clear)ed and reused across scan blocks so a
/// steady-state scan allocates nothing.
#[derive(Debug, Default)]
pub struct ScanFrame {
    idx: Vec<u64>,
}

impl ScanFrame {
    /// An empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total decoded cells across all runs.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether no cells are buffered.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Drops every run, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.idx.clear();
    }

    /// Rolls the frame back to `len` cells (used by entry decoders to undo
    /// partially-decoded runs when a later block of the same value fails).
    pub fn truncate(&mut self, len: usize) {
        self.idx.truncate(len);
    }

    /// The linear indices of one decoded run.
    pub fn run(&self, run: CellRun) -> &[u64] {
        &self.idx[run.start as usize..run.start as usize + run.len as usize]
    }

    /// An empty run positioned at the frame's current end.
    pub fn empty_run(&self) -> CellRun {
        CellRun {
            start: self.idx.len() as u32,
            len: 0,
        }
    }
}

/// Decodes one [`encode_cells`] block starting at `*pos`, advancing `*pos`,
/// appending the delta-decoded **linear** indices to `frame` and returning
/// their [`CellRun`].
///
/// This is the columnar counterpart of [`decode_cells_at`]: same wire format,
/// same bounds checks (`num_cells` plays the role of the shape), but no
/// per-cell unravel and no per-block allocation — the hot loop is a straight
/// varint + prefix-sum fill of a flat `u64` buffer.  On error the frame is
/// rolled back to its pre-call length.
pub fn decode_cells_block(
    frame: &mut ScanFrame,
    num_cells: u64,
    buf: &[u8],
    pos: &mut usize,
) -> Result<CellRun, CodecError> {
    let count = read_varint(buf, pos)? as usize;
    let start = frame.idx.len();
    frame.idx.reserve(count.min(buf.len() - *pos + 1));
    let mut acc = 0u64;
    for i in 0..count {
        let delta = match read_varint(buf, pos) {
            Ok(d) => d,
            Err(e) => {
                frame.idx.truncate(start);
                return Err(e);
            }
        };
        acc = if i == 0 { delta } else { acc + delta };
        if acc >= num_cells {
            frame.idx.truncate(start);
            return Err(CodecError::IndexOutOfBounds {
                index: acc,
                num_cells,
            });
        }
        frame.idx.push(acc);
    }
    Ok(CellRun {
        start: start as u32,
        len: (frame.idx.len() - start) as u32,
    })
}

/// Parses one [`encode_cells`] block starting at `*pos`, advancing `*pos`,
/// validating every index against `num_cells` but materialising nothing.
/// Entry decoders use it to step over the cell sets of inputs a query did
/// not ask about while keeping exactly [`decode_cells_at`]'s accept/reject
/// behaviour.
pub fn skip_cells_block(num_cells: u64, buf: &[u8], pos: &mut usize) -> Result<(), CodecError> {
    let count = read_varint(buf, pos)? as usize;
    let mut acc = 0u64;
    for i in 0..count {
        let delta = read_varint(buf, pos)?;
        acc = if i == 0 { delta } else { acc + delta };
        if acc >= num_cells {
            return Err(CodecError::IndexOutOfBounds {
                index: acc,
                num_cells,
            });
        }
    }
    Ok(())
}

/// Encodes a length-prefixed binary payload (the `Pay`/`Comp` lineage blob).
pub fn encode_payload(out: &mut Vec<u8>, payload: &[u8]) {
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Decodes a length-prefixed binary payload starting at `*pos`.
pub fn decode_payload(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>, CodecError> {
    let len = read_varint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or(CodecError::UnexpectedEof)?;
    let payload = buf[*pos..end].to_vec();
    *pos = end;
    Ok(payload)
}

/// Encodes a `u64` as 8 fixed little-endian bytes (used for hash keys where a
/// fixed width is preferable to a varint).
pub fn encode_fixed_u64(value: u64) -> [u8; 8] {
    value.to_le_bytes()
}

/// Decodes a fixed little-endian `u64`.
pub fn decode_fixed_u64(buf: &[u8]) -> Result<u64, CodecError> {
    let bytes: [u8; 8] = buf
        .get(..8)
        .and_then(|s| s.try_into().ok())
        .ok_or(CodecError::UnexpectedEof)?;
    Ok(u64::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_eof_and_overflow() {
        let mut pos = 0;
        assert_eq!(read_varint(&[], &mut pos), Err(CodecError::UnexpectedEof));
        // 11 continuation bytes overflow a u64 varint.
        let buf = vec![0x80u8; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn pack_unpack_coord() {
        let shape = Shape::d2(512, 2000);
        let c = Coord::d2(511, 1999);
        let packed = pack_coord(&shape, &c);
        assert_eq!(unpack_coord(&shape, packed).unwrap(), c);
        assert!(unpack_coord(&shape, shape.num_cells() as u64).is_err());
    }

    #[test]
    fn encode_cells_roundtrip_sorted_dedup() {
        let shape = Shape::d2(10, 10);
        let cells = vec![
            Coord::d2(3, 3),
            Coord::d2(0, 1),
            Coord::d2(3, 3),
            Coord::d2(9, 9),
        ];
        let buf = encode_cells(&shape, &cells);
        let decoded = decode_cells(&shape, &buf).unwrap();
        assert_eq!(
            decoded,
            vec![Coord::d2(0, 1), Coord::d2(3, 3), Coord::d2(9, 9)]
        );
    }

    #[test]
    fn encode_cells_empty() {
        let shape = Shape::d1(5);
        let buf = encode_cells(&shape, &[]);
        assert_eq!(decode_cells(&shape, &buf).unwrap(), vec![]);
    }

    #[test]
    fn dense_region_is_compact() {
        // 1000 adjacent cells should take roughly a byte each plus a header,
        // far smaller than 8 bytes per coordinate component.
        let shape = Shape::d2(1000, 1000);
        let cells: Vec<Coord> = (0..1000u32).map(|i| Coord::d2(500, i)).collect();
        let buf = encode_cells(&shape, &cells);
        assert!(
            buf.len() < 1100,
            "dense region encoding too large: {} bytes",
            buf.len()
        );
    }

    #[test]
    fn multiple_blocks_in_one_buffer() {
        let shape = Shape::d2(4, 4);
        let a = vec![Coord::d2(0, 0), Coord::d2(1, 1)];
        let b = vec![Coord::d2(3, 3)];
        let mut buf = encode_cells(&shape, &a);
        buf.extend(encode_cells(&shape, &b));
        let mut pos = 0;
        assert_eq!(decode_cells_at(&shape, &buf, &mut pos).unwrap(), a);
        assert_eq!(decode_cells_at(&shape, &buf, &mut pos).unwrap(), b);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn payload_roundtrip() {
        let mut buf = Vec::new();
        encode_payload(&mut buf, b"radius=3");
        encode_payload(&mut buf, b"");
        let mut pos = 0;
        assert_eq!(decode_payload(&buf, &mut pos).unwrap(), b"radius=3");
        assert_eq!(decode_payload(&buf, &mut pos).unwrap(), b"");
        assert_eq!(pos, buf.len());
        // Truncated payload errors.
        let mut short = Vec::new();
        encode_payload(&mut short, b"abcdef");
        short.truncate(short.len() - 2);
        let mut pos = 0;
        assert!(decode_payload(&short, &mut pos).is_err());
    }

    #[test]
    fn fixed_u64_roundtrip() {
        for v in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            let b = encode_fixed_u64(v);
            assert_eq!(decode_fixed_u64(&b).unwrap(), v);
        }
        assert!(decode_fixed_u64(&[1, 2, 3]).is_err());
    }

    #[test]
    fn arena_spans_address_their_values() {
        let mut arena = Arena::with_capacity(64);
        let a = arena.push(b"alpha");
        let start = arena.begin();
        write_varint(arena.buf_mut(), 300);
        let b = arena.finish(start);
        let c = arena.push(b"");
        assert_eq!(arena.get(a), b"alpha");
        let mut pos = 0;
        assert_eq!(read_varint(arena.get(b), &mut pos).unwrap(), 300);
        assert!(arena.get(c).is_empty());
        assert!(c.is_empty());
        assert_eq!(a.len(), 5);
        assert_eq!(arena.len(), 5 + b.len());
        arena.clear();
        assert!(arena.is_empty());
    }

    #[test]
    fn encode_cells_into_matches_encode_cells() {
        let shape = Shape::d2(16, 16);
        let cells = vec![Coord::d2(3, 3), Coord::d2(0, 1), Coord::d2(3, 3)];
        let legacy = encode_cells(&shape, &cells);
        let mut arena = Arena::new();
        arena.push(b"unrelated prefix");
        let start = arena.begin();
        encode_cells_into(arena.buf_mut(), &shape, &cells);
        let span = arena.finish(start);
        assert_eq!(arena.get(span), legacy.as_slice());
    }

    #[test]
    fn decode_cells_block_matches_decode_cells_at() {
        let shape = Shape::d2(8, 8);
        let a = vec![Coord::d2(0, 0), Coord::d2(1, 1), Coord::d2(7, 7)];
        let b = vec![Coord::d2(3, 5)];
        let mut buf = encode_cells(&shape, &a);
        buf.extend(encode_cells(&shape, &b));

        let mut frame = ScanFrame::new();
        let mut pos = 0usize;
        let run_a =
            decode_cells_block(&mut frame, shape.num_cells() as u64, &buf, &mut pos).unwrap();
        let run_b =
            decode_cells_block(&mut frame, shape.num_cells() as u64, &buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(frame.len(), 4);
        assert!(!run_a.is_empty());

        // Same indices, same order, as the legacy coordinate decoder.
        let mut legacy_pos = 0usize;
        let legacy_a = decode_cells_at(&shape, &buf, &mut legacy_pos).unwrap();
        let legacy_b = decode_cells_at(&shape, &buf, &mut legacy_pos).unwrap();
        let as_packed = |cs: &[Coord]| cs.iter().map(|c| pack_coord(&shape, c)).collect::<Vec<_>>();
        assert_eq!(frame.run(run_a), as_packed(&legacy_a).as_slice());
        assert_eq!(frame.run(run_b), as_packed(&legacy_b).as_slice());
    }

    #[test]
    fn decode_cells_block_rolls_back_on_error() {
        let shape = Shape::d1(4);
        let good = encode_cells(&shape, &[Coord::d1(1), Coord::d1(2)]);
        let mut bad = Vec::new();
        write_varint(&mut bad, 2);
        write_varint(&mut bad, 1); // in bounds
        write_varint(&mut bad, 9); // 10 > 3: out of bounds

        let mut frame = ScanFrame::new();
        let mut pos = 0usize;
        let run = decode_cells_block(&mut frame, 4, &good, &mut pos).unwrap();
        let before = frame.len();
        let mut pos = 0usize;
        assert!(matches!(
            decode_cells_block(&mut frame, 4, &bad, &mut pos),
            Err(CodecError::IndexOutOfBounds { .. })
        ));
        assert_eq!(frame.len(), before, "failed decode left cells behind");
        assert_eq!(frame.run(run), &[1, 2]);

        // Truncated input is rolled back too.
        let mut truncated = Vec::new();
        write_varint(&mut truncated, 3);
        write_varint(&mut truncated, 1);
        let mut pos = 0usize;
        assert!(matches!(
            decode_cells_block(&mut frame, 4, &truncated, &mut pos),
            Err(CodecError::UnexpectedEof)
        ));
        assert_eq!(frame.len(), before);
    }

    #[test]
    fn skip_cells_block_validates_like_decode() {
        let shape = Shape::d2(6, 6);
        let cells = vec![Coord::d2(0, 3), Coord::d2(5, 5)];
        let mut buf = encode_cells(&shape, &cells);
        buf.extend(encode_cells(&shape, &[Coord::d2(2, 2)]));
        let n = shape.num_cells() as u64;

        let mut pos = 0usize;
        skip_cells_block(n, &buf, &mut pos).unwrap();
        // The skip leaves `pos` exactly where a real decode would.
        let mut frame = ScanFrame::new();
        let run = decode_cells_block(&mut frame, n, &buf, &mut pos).unwrap();
        assert_eq!(frame.run(run), &[pack_coord(&shape, &Coord::d2(2, 2))]);
        assert_eq!(pos, buf.len());

        // And it rejects what a real decode rejects.
        let mut bad = Vec::new();
        write_varint(&mut bad, 1);
        write_varint(&mut bad, n); // first index out of bounds
        let mut pos = 0usize;
        assert!(skip_cells_block(n, &bad, &mut pos).is_err());
    }

    #[test]
    fn scan_frame_runs_address_their_blocks() {
        let mut a = ScanFrame::new();
        let shape = Shape::d1(100);
        let n = shape.num_cells() as u64;
        let buf = encode_cells(&shape, &[Coord::d1(5)]);
        let buf_b = encode_cells(&shape, &[Coord::d1(7), Coord::d1(9)]);
        let mut pos = 0usize;
        let run_a = decode_cells_block(&mut a, n, &buf, &mut pos).unwrap();
        let mut pos = 0usize;
        let run_b = decode_cells_block(&mut a, n, &buf_b, &mut pos).unwrap();
        assert_eq!(a.run(run_a), &[5]);
        assert_eq!(a.run(run_b), &[7, 9]);
        assert_eq!(a.len(), 3);
        a.clear();
        assert!(a.is_empty());
        assert!(a.empty_run().is_empty());
    }

    #[test]
    fn decode_rejects_out_of_bounds_index() {
        let shape = Shape::d1(4);
        // Hand-craft an encoding with an index past the end.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1); // one cell
        write_varint(&mut buf, 10); // index 10 in a 4-cell array
        assert!(matches!(
            decode_cells(&shape, &buf),
            Err(CodecError::IndexOutOfBounds { .. })
        ));
    }
}
