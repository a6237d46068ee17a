//! The daemon's length-prefixed binary wire protocol.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload
//! length followed by the payload, whose first byte is the message tag.
//! Payloads use the same LEB128 varint primitives as the on-disk codec
//! ([`subzero_store::codec`]), so the daemon adds no serialization
//! dependency — the protocol is hand-rolled over `std` exactly like the
//! storage layer.
//!
//! Decoding is defensive end to end: truncated frames, corrupt counts,
//! out-of-range shapes and non-canonical cell sets are all rejected with a
//! [`ProtocolError`] — never a panic, and never unbounded allocation.
//! Every element count is validated against the bytes actually remaining
//! in the frame before any buffer is reserved, and the *decoded container
//! footprint* of all of a frame's cell sets combined is charged against
//! one [`MAX_FRAME_CELLS`] budget — a frame packed with thousands of tiny
//! encodings cannot amplify into gigabytes of decoded containers, no
//! matter which cell-set encoding or shape each one declares.
//!
//! Cell sets travel in one of three encodings (the full grammar is in
//! `docs/WIRE_PROTOCOL.md`): the legacy sparse delta frame, a run-length
//! frame for contiguous answers, and a dense word frame for heavily
//! populated answers.  The encoder picks the cheapest per set; decoders
//! accept all three.

use std::fmt;
use std::io::{self, Read, Write};

use subzero::model::{Direction, Granularity, StorageStrategy};
use subzero_array::{CellSet, Coord, Shape, MAX_NDIM};
use subzero_engine::lineage::RegionPair;
use subzero_engine::workflow::OpId;
use subzero_engine::LineageMode;
use subzero_store::codec::{read_varint, write_varint, CodecError};

/// Hard cap on one frame's payload size.  Large ingests should be split
/// into multiple `StoreBatch` frames well before this.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Hard cap on the number of cells of any *single* shape travelling over
/// the wire (bounds the index space one decoded [`CellSet`] ranges over).
pub const MAX_WIRE_CELLS: usize = 1 << 28;

/// Per-frame budget, in **bits of decoded container footprint**, shared by
/// every cell set one frame decodes.
///
/// A [`CellSet`] is an adaptive chunked container: an empty set allocates
/// nothing and a full-array answer is a handful of runs, so (unlike the
/// old one-dense-bitmap-per-set representation) a set's decoded memory is
/// governed by its *content*, not its declared shape.  The decoder charges
/// that content as it goes — 16 bits per sparse cell, 32 bits per run, 64
/// bits per dense word — and then charges each finished set's actual
/// [`CellSet::size_bytes`] footprint, which also covers the chunk-table
/// and container-promotion overheads an adversarial encoding could
/// otherwise multiply (e.g. thousands of one-word dense frames each
/// targeting the highest chunk of a maximum-size shape).  A frame whose
/// sets' combined footprint would exceed this budget is rejected; the
/// double-counting makes the enforced ceiling conservative (≤ 2× the
/// budget, i.e. ≤ 256 MiB of decoded containers per frame).
pub const MAX_FRAME_CELLS: u64 = 1 << 30;

/// The per-frame decoded-footprint budget shared by every cell set a
/// frame decodes (see [`MAX_FRAME_CELLS`]).
struct CellBudget {
    remaining: u64,
}

impl CellBudget {
    fn new() -> CellBudget {
        CellBudget {
            remaining: MAX_FRAME_CELLS,
        }
    }

    fn charge(&mut self, bits: u64) -> Result<(), ProtocolError> {
        if bits > self.remaining {
            return Err(ProtocolError::Malformed(
                "frame's decoded cell-set footprint exceeds wire cap",
            ));
        }
        self.remaining -= bits;
        Ok(())
    }
}

/// Anything that can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum ProtocolError {
    /// Transport failure (including truncation mid-frame).
    Io(io::Error),
    /// A varint or fixed-width field failed to decode.
    Codec(CodecError),
    /// The frame decoded structurally but violated a protocol invariant.
    Malformed(&'static str),
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge(usize),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol i/o error: {e}"),
            ProtocolError::Codec(e) => write!(f, "protocol codec error: {e}"),
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtocolError::FrameTooLarge(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> Self {
        ProtocolError::Codec(e)
    }
}

/// One operator a session registers with the daemon: identity, shapes, and
/// the storage strategies (hence datastores) it materialises.
#[derive(Clone, Debug, PartialEq)]
pub struct OpSpec {
    /// The operator's id within the client's workflow.
    pub op_id: OpId,
    /// Shapes of the operator's input arrays, in input order.
    pub input_shapes: Vec<Shape>,
    /// Shape of the operator's output array.
    pub output_shape: Shape,
    /// One datastore is created per strategy.  Only pair-storing `Full`
    /// strategies are accepted: payload and composite lookups need the
    /// operator's mapping functions, which run client-side, so they wait
    /// for lookups that return matched payload records (ROADMAP.md A.3
    /// step 2).
    pub strategies: Vec<StorageStrategy>,
}

/// One traversal step of a remote lookup: cross operator `op_id` from the
/// given query sets, in the given direction, towards input `input_idx`.
#[derive(Clone, Debug, PartialEq)]
pub struct LookupStep {
    /// The operator to cross.
    pub op_id: OpId,
    /// Traversal direction.
    pub direction: Direction,
    /// Which operator input the step traverses.
    pub input_idx: u32,
    /// Per-query cell sets (the shared-batch shape of
    /// [`OpDatastore::lookup_many`](subzero::datastore::OpDatastore::lookup_many)).
    pub queries: Vec<CellSet>,
}

/// Wire form of [`subzero::datastore::LookupOutcome`].
#[derive(Clone, Debug, PartialEq)]
pub struct WireOutcome {
    /// The step's answer cells.
    pub result: CellSet,
    /// Query cells covered by stored lineage.
    pub covered: CellSet,
    /// Hash entries fetched while answering.
    pub entries_fetched: u64,
    /// Whether the step fell back to a full datastore scan.
    pub scanned: bool,
}

/// Daemon-wide counters reported by [`Request::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Sessions currently open.
    pub sessions: u64,
    /// Number of shard workers.
    pub shards: u64,
    /// `StoreBatch` requests accepted since startup.
    pub store_batches: u64,
    /// Lookup steps served since startup.
    pub lookup_steps: u64,
    /// Ingest batches shed by the `DropNewest` overflow policy.
    pub shed_batches: u64,
    /// Transactions committed (durable `FinishSession` publishes).
    pub commits: u64,
    /// Sessions evicted by the idle-lease sweeper.
    pub evicted_sessions: u64,
}

/// A client-to-daemon message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open (or reattach to) the named session and register its operators.
    OpenSession {
        /// Session name; also the stable prefix of on-disk datastore files,
        /// so reopening the name after a daemon restart recovers the data.
        name: String,
        /// Operators the session stores lineage for.
        ops: Vec<OpSpec>,
    },
    /// Drop the session's in-memory state (on-disk files remain).
    CloseSession {
        /// Session handle from [`Response::SessionOpened`].
        session: u64,
    },
    /// Ingest a batch of region pairs into one operator's datastores.
    StoreBatch {
        /// Session handle.
        session: u64,
        /// Target operator.
        op_id: OpId,
        /// The region pairs to store.
        pairs: Vec<RegionPair>,
    },
    /// Execute a sequence of traversal steps (each batched over queries).
    Lookup {
        /// Session handle.
        session: u64,
        /// Steps, answered independently and returned in order.
        steps: Vec<LookupStep>,
    },
    /// Quiesce the session's ingest and persist every datastore (flush +
    /// sidecar index) — the durability barrier before queries or shutdown.
    FinishSession {
        /// Session handle.
        session: u64,
    },
    /// Fetch daemon-wide counters.
    Stats,
    /// Ask the daemon to shut down gracefully (drain, harvest, exit).
    Shutdown,
}

/// A daemon-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The session is open; use the handle in subsequent requests.
    SessionOpened {
        /// Session handle.
        session: u64,
    },
    /// The session was closed.
    SessionClosed,
    /// Outcome of a `StoreBatch`: `accepted == false` means the batch was
    /// shed by the `DropNewest` policy (never silently).
    BatchStored {
        /// Whether the batch was admitted to the shard queue.
        accepted: bool,
        /// This connection's total shed batches so far.
        shed_total: u64,
    },
    /// Per-step, per-query outcomes of a `Lookup`.
    LookupDone {
        /// `steps[i][q]` answers step `i`'s query `q`.
        steps: Vec<Vec<WireOutcome>>,
    },
    /// The session's stores are flushed and their indexes persisted.
    SessionFinished {
        /// This connection's total shed batches so far.
        shed_total: u64,
    },
    /// Daemon-wide counters.
    Stats(ServerStats),
    /// Acknowledges a `Shutdown`; the daemon exits after draining.
    ShuttingDown,
    /// The request failed; the connection remains usable.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

/// Writes one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload.  Returns `Ok(None)` on clean EOF at a frame
/// boundary; EOF *inside* a frame is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(ProtocolError::Malformed("eof inside frame length"));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Scalar encodings
// ---------------------------------------------------------------------------

/// Reads an element count and guards it against the bytes actually left in
/// the frame (each element needs at least `min_elem_bytes`), so a corrupt
/// count can never drive an oversized allocation.
fn read_count(buf: &[u8], pos: &mut usize, min_elem_bytes: usize) -> Result<usize, ProtocolError> {
    let n = read_varint(buf, pos)?;
    let remaining = buf.len() - *pos;
    let max = remaining / min_elem_bytes.max(1);
    if n > max as u64 {
        return Err(ProtocolError::Malformed("element count exceeds frame size"));
    }
    Ok(n as usize)
}

fn write_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn read_bool(buf: &[u8], pos: &mut usize) -> Result<bool, ProtocolError> {
    match read_u8(buf, pos)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(ProtocolError::Malformed("boolean byte out of range")),
    }
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8, ProtocolError> {
    let b = *buf
        .get(*pos)
        .ok_or(ProtocolError::Codec(CodecError::UnexpectedEof))?;
    *pos += 1;
    Ok(b)
}

fn write_string(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn read_string(buf: &[u8], pos: &mut usize) -> Result<String, ProtocolError> {
    let len = read_count(buf, pos, 1)?;
    let bytes = &buf[*pos..*pos + len];
    *pos += len;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| ProtocolError::Malformed("string is not valid utf-8"))
}

fn write_shape(out: &mut Vec<u8>, shape: &Shape) {
    write_varint(out, shape.ndim() as u64);
    for &d in shape.dims() {
        write_varint(out, u64::from(d));
    }
}

fn read_shape(buf: &[u8], pos: &mut usize) -> Result<Shape, ProtocolError> {
    let ndim = read_varint(buf, pos)?;
    if ndim == 0 || ndim > MAX_NDIM as u64 {
        return Err(ProtocolError::Malformed("shape rank out of range"));
    }
    let mut dims = [0u32; MAX_NDIM];
    let mut cells: u64 = 1;
    for d in dims.iter_mut().take(ndim as usize) {
        let v = read_varint(buf, pos)?;
        if v == 0 || v > u64::from(u32::MAX) {
            return Err(ProtocolError::Malformed("shape dimension out of range"));
        }
        *d = v as u32;
        cells = cells.saturating_mul(v);
    }
    if cells > MAX_WIRE_CELLS as u64 {
        return Err(ProtocolError::Malformed(
            "shape cell count exceeds wire cap",
        ));
    }
    Ok(Shape::new(&dims[..ndim as usize]))
}

fn write_coord(out: &mut Vec<u8>, c: &Coord) {
    write_varint(out, c.ndim() as u64);
    for &v in c.as_slice() {
        write_varint(out, u64::from(v));
    }
}

fn read_coord(buf: &[u8], pos: &mut usize) -> Result<Coord, ProtocolError> {
    let ndim = read_varint(buf, pos)?;
    if ndim == 0 || ndim > MAX_NDIM as u64 {
        return Err(ProtocolError::Malformed("coord rank out of range"));
    }
    let mut vals = [0u32; MAX_NDIM];
    for v in vals.iter_mut().take(ndim as usize) {
        let x = read_varint(buf, pos)?;
        if x > u64::from(u32::MAX) {
            return Err(ProtocolError::Malformed("coord component out of range"));
        }
        *v = x as u32;
    }
    Ok(Coord::new(&vals[..ndim as usize]))
}

fn write_coords(out: &mut Vec<u8>, coords: &[Coord]) {
    write_varint(out, coords.len() as u64);
    for c in coords {
        write_coord(out, c);
    }
}

fn read_coords(buf: &[u8], pos: &mut usize) -> Result<Vec<Coord>, ProtocolError> {
    // A coord is at least two bytes (rank varint + one component varint).
    let n = read_count(buf, pos, 2)?;
    let mut coords = Vec::with_capacity(n);
    for _ in 0..n {
        coords.push(read_coord(buf, pos)?);
    }
    Ok(coords)
}

/// Cell-set encoding tags: the byte after the shape selects how the
/// members are laid out.
const CELLSET_SPARSE: u8 = 0;
const CELLSET_RUNS: u8 = 1;
const CELLSET_DENSE: u8 = 2;

/// Sets the bits `start .. start + len` (frame-relative) in `words`.
fn fill_words(words: &mut [u64], start: usize, len: usize) {
    let last = start + len - 1;
    let (ws, wl) = (start / 64, last / 64);
    let head = u64::MAX << (start % 64);
    let tail = u64::MAX >> (63 - last % 64);
    if ws == wl {
        words[ws] |= head & tail;
    } else {
        words[ws] |= head;
        for w in &mut words[ws + 1..wl] {
            *w = u64::MAX;
        }
        words[wl] |= tail;
    }
}

/// Cell sets travel as their shape, an encoding tag, and the members in
/// whichever of three layouts is smallest for this set (the encoder
/// estimates each and picks; decoders accept all three):
///
/// * **sparse** (`0`): cell count, then the strictly-increasing linear
///   indices delta-encoded — first index verbatim, then gap minus one.
/// * **runs** (`1`): run count, then per maximal run a start delta (first
///   run's start verbatim, then the gap from the previous run's exclusive
///   end minus one) and the run length minus one.  A full-array answer is
///   one run, ~5 bytes.
/// * **dense** (`2`): first word index, word count, then that many raw
///   little-endian `u64` words of the linear-index bitmap.
fn write_cellset(out: &mut Vec<u8>, cs: &CellSet) {
    let shape = cs.shape();
    write_shape(out, &shape);
    let n = cs.len();
    let Some((first, last)) = cs.bounds_linear() else {
        out.push(CELLSET_SPARSE);
        write_varint(out, 0);
        return;
    };
    let nruns = cs.run_count();
    let (fw, lw) = (first / 64, last / 64);
    let nwords = lw - fw + 1;
    // Size estimates: sparse deltas are usually 1–2 bytes, run headers
    // ~2–5 bytes, dense words exactly 8 plus a small header.
    let sparse_est = 2 + 2 * n;
    let runs_est = 2 + 5 * nruns;
    let dense_est = 12 + 8 * nwords;
    if runs_est <= sparse_est && runs_est <= dense_est {
        out.push(CELLSET_RUNS);
        write_varint(out, nruns as u64);
        let mut prev_end: u64 = 0; // exclusive end of the previous run
        let mut first_run = true;
        for (s, l) in cs.runs() {
            let delta = if first_run { s } else { s - prev_end - 1 };
            write_varint(out, delta);
            write_varint(out, l - 1);
            prev_end = s + l;
            first_run = false;
        }
    } else if dense_est < sparse_est {
        out.push(CELLSET_DENSE);
        write_varint(out, fw as u64);
        write_varint(out, nwords as u64);
        let mut words = vec![0u64; nwords];
        for (s, l) in cs.runs() {
            fill_words(&mut words, s as usize - fw * 64, l as usize);
        }
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    } else {
        out.push(CELLSET_SPARSE);
        write_varint(out, n as u64);
        let mut prev: Option<usize> = None;
        for idx in cs.iter_linear() {
            let delta = match prev {
                None => idx as u64,
                Some(p) => (idx - p - 1) as u64,
            };
            write_varint(out, delta);
            prev = Some(idx);
        }
    }
}

fn read_cellset(
    buf: &[u8],
    pos: &mut usize,
    budget: &mut CellBudget,
) -> Result<CellSet, ProtocolError> {
    let shape = read_shape(buf, pos)?;
    let num_cells = shape.num_cells();
    let kind = read_u8(buf, pos)?;
    let cs = match kind {
        CELLSET_SPARSE => {
            let n = read_count(buf, pos, 1)?;
            if n > num_cells {
                return Err(ProtocolError::Malformed("cell count exceeds shape"));
            }
            // Decoded sparse cells cost ~16 bits each until a chunk
            // promotes; promotion (at 4096 cells/chunk) never exceeds
            // this floor.
            budget.charge(16 * n as u64)?;
            let mut cs = CellSet::empty(shape);
            let mut prev: Option<usize> = None;
            for _ in 0..n {
                let delta = read_varint(buf, pos)?;
                let idx = match prev {
                    None => delta,
                    Some(p) => (p as u64)
                        .checked_add(1)
                        .and_then(|x| x.checked_add(delta))
                        .ok_or(ProtocolError::Malformed("cell index overflows"))?,
                };
                if idx >= num_cells as u64 {
                    return Err(ProtocolError::Malformed("cell index exceeds shape"));
                }
                cs.insert_linear(idx as usize);
                prev = Some(idx as usize);
            }
            cs
        }
        CELLSET_RUNS => {
            // Each run is at least two varint bytes on the wire and ~32
            // bits decoded.
            let nruns = read_count(buf, pos, 2)?;
            budget.charge(32 * nruns as u64)?;
            let mut cs = CellSet::empty(shape);
            let mut prev_end: u64 = 0; // exclusive
            let mut first_run = true;
            for _ in 0..nruns {
                let delta = read_varint(buf, pos)?;
                let len_m1 = read_varint(buf, pos)?;
                let start = if first_run {
                    delta
                } else {
                    prev_end
                        .checked_add(1)
                        .and_then(|x| x.checked_add(delta))
                        .ok_or(ProtocolError::Malformed("cell index overflows"))?
                };
                let last = start
                    .checked_add(len_m1)
                    .ok_or(ProtocolError::Malformed("cell index overflows"))?;
                if last >= num_cells as u64 {
                    return Err(ProtocolError::Malformed("cell index exceeds shape"));
                }
                cs.insert_span(start as usize, len_m1 as usize + 1);
                prev_end = last + 1;
                first_run = false;
            }
            cs
        }
        CELLSET_DENSE => {
            let fw = read_varint(buf, pos)?;
            // Each word is exactly eight raw bytes.
            let nwords = read_count(buf, pos, 8)?;
            budget.charge(64 * nwords as u64)?;
            let total_words = num_cells.div_ceil(64) as u64;
            let end_word = fw
                .checked_add(nwords as u64)
                .ok_or(ProtocolError::Malformed("cell index overflows"))?;
            if end_word > total_words {
                return Err(ProtocolError::Malformed("cell index exceeds shape"));
            }
            let mut cs = CellSet::empty(shape);
            for i in 0..nwords {
                let Some(bytes) = buf.get(*pos..*pos + 8) else {
                    return Err(ProtocolError::Codec(CodecError::UnexpectedEof));
                };
                let mut arr = [0u8; 8];
                arr.copy_from_slice(bytes);
                *pos += 8;
                let w = u64::from_le_bytes(arr);
                let word_idx = fw as usize + i;
                // Bits past the end of the shape must be zero.
                let base = word_idx * 64;
                if base + 64 > num_cells {
                    let allowed = (1u64 << (num_cells - base)) - 1;
                    if w & !allowed != 0 {
                        return Err(ProtocolError::Malformed("cell index exceeds shape"));
                    }
                }
                if w != 0 {
                    cs.insert_word(word_idx, w);
                }
            }
            cs.optimize();
            cs
        }
        _ => return Err(ProtocolError::Malformed("unknown cell-set encoding")),
    };
    // Charge the set's actual decoded footprint on top of the per-element
    // floors above: this is what bounds chunk-table and promotion overhead
    // for adversarial encodings (see MAX_FRAME_CELLS).
    budget.charge(cs.size_bytes() as u64 * 8)?;
    Ok(cs)
}

fn mode_code(mode: LineageMode) -> u8 {
    match mode {
        LineageMode::Full => 0,
        LineageMode::Map => 1,
        LineageMode::Pay => 2,
        LineageMode::Comp => 3,
        LineageMode::Blackbox => 4,
    }
}

fn mode_from(code: u8) -> Result<LineageMode, ProtocolError> {
    Ok(match code {
        0 => LineageMode::Full,
        1 => LineageMode::Map,
        2 => LineageMode::Pay,
        3 => LineageMode::Comp,
        4 => LineageMode::Blackbox,
        _ => return Err(ProtocolError::Malformed("unknown lineage mode")),
    })
}

fn direction_code(d: Direction) -> u8 {
    match d {
        Direction::Backward => 0,
        Direction::Forward => 1,
    }
}

fn direction_from(code: u8) -> Result<Direction, ProtocolError> {
    Ok(match code {
        0 => Direction::Backward,
        1 => Direction::Forward,
        _ => return Err(ProtocolError::Malformed("unknown direction")),
    })
}

fn write_strategy(out: &mut Vec<u8>, s: &StorageStrategy) {
    out.push(mode_code(s.mode));
    out.push(match s.granularity {
        Granularity::One => 0,
        Granularity::Many => 1,
    });
    out.push(direction_code(s.direction));
}

fn read_strategy(buf: &[u8], pos: &mut usize) -> Result<StorageStrategy, ProtocolError> {
    let mode = mode_from(read_u8(buf, pos)?)?;
    let granularity = match read_u8(buf, pos)? {
        0 => Granularity::One,
        1 => Granularity::Many,
        _ => return Err(ProtocolError::Malformed("unknown granularity")),
    };
    let direction = direction_from(read_u8(buf, pos)?)?;
    let s = StorageStrategy {
        mode,
        granularity,
        direction,
    };
    if s.validate().is_err() {
        return Err(ProtocolError::Malformed("invalid storage strategy"));
    }
    Ok(s)
}

fn write_region_pair(out: &mut Vec<u8>, pair: &RegionPair) {
    match pair {
        RegionPair::Full { outcells, incells } => {
            out.push(0);
            write_coords(out, outcells);
            write_varint(out, incells.len() as u64);
            for cells in incells {
                write_coords(out, cells);
            }
        }
        RegionPair::Payload { outcells, payload } => {
            out.push(1);
            write_coords(out, outcells);
            write_varint(out, payload.len() as u64);
            out.extend_from_slice(payload);
        }
    }
}

fn read_region_pair(buf: &[u8], pos: &mut usize) -> Result<RegionPair, ProtocolError> {
    match read_u8(buf, pos)? {
        0 => {
            let outcells = read_coords(buf, pos)?;
            let n_inputs = read_count(buf, pos, 1)?;
            let mut incells = Vec::with_capacity(n_inputs);
            for _ in 0..n_inputs {
                incells.push(read_coords(buf, pos)?);
            }
            Ok(RegionPair::Full { outcells, incells })
        }
        1 => {
            let outcells = read_coords(buf, pos)?;
            let len = read_count(buf, pos, 1)?;
            let payload = buf[*pos..*pos + len].to_vec();
            *pos += len;
            Ok(RegionPair::Payload { outcells, payload })
        }
        _ => Err(ProtocolError::Malformed("unknown region pair tag")),
    }
}

fn write_op_spec(out: &mut Vec<u8>, spec: &OpSpec) {
    write_varint(out, u64::from(spec.op_id));
    write_varint(out, spec.input_shapes.len() as u64);
    for s in &spec.input_shapes {
        write_shape(out, s);
    }
    write_shape(out, &spec.output_shape);
    write_varint(out, spec.strategies.len() as u64);
    for s in &spec.strategies {
        write_strategy(out, s);
    }
}

fn read_op_spec(buf: &[u8], pos: &mut usize) -> Result<OpSpec, ProtocolError> {
    let op_id = read_varint(buf, pos)?;
    if op_id > u64::from(u32::MAX) {
        return Err(ProtocolError::Malformed("operator id out of range"));
    }
    let n_inputs = read_count(buf, pos, 2)?;
    let mut input_shapes = Vec::with_capacity(n_inputs);
    for _ in 0..n_inputs {
        input_shapes.push(read_shape(buf, pos)?);
    }
    let output_shape = read_shape(buf, pos)?;
    let n_strategies = read_count(buf, pos, 3)?;
    let mut strategies = Vec::with_capacity(n_strategies);
    for _ in 0..n_strategies {
        strategies.push(read_strategy(buf, pos)?);
    }
    Ok(OpSpec {
        op_id: op_id as OpId,
        input_shapes,
        output_shape,
        strategies,
    })
}

fn write_lookup_step(out: &mut Vec<u8>, step: &LookupStep) {
    write_varint(out, u64::from(step.op_id));
    out.push(direction_code(step.direction));
    write_varint(out, u64::from(step.input_idx));
    write_varint(out, step.queries.len() as u64);
    for q in &step.queries {
        write_cellset(out, q);
    }
}

fn read_lookup_step(
    buf: &[u8],
    pos: &mut usize,
    budget: &mut CellBudget,
) -> Result<LookupStep, ProtocolError> {
    let op_id = read_varint(buf, pos)?;
    if op_id > u64::from(u32::MAX) {
        return Err(ProtocolError::Malformed("operator id out of range"));
    }
    let direction = direction_from(read_u8(buf, pos)?)?;
    let input_idx = read_varint(buf, pos)?;
    if input_idx > u64::from(u32::MAX) {
        return Err(ProtocolError::Malformed("input index out of range"));
    }
    let n_queries = read_count(buf, pos, 2)?;
    let mut queries = Vec::with_capacity(n_queries);
    for _ in 0..n_queries {
        queries.push(read_cellset(buf, pos, budget)?);
    }
    Ok(LookupStep {
        op_id: op_id as OpId,
        direction,
        input_idx: input_idx as u32,
        queries,
    })
}

fn write_outcome(out: &mut Vec<u8>, o: &WireOutcome) {
    write_cellset(out, &o.result);
    write_cellset(out, &o.covered);
    write_varint(out, o.entries_fetched);
    write_bool(out, o.scanned);
}

fn read_outcome(
    buf: &[u8],
    pos: &mut usize,
    budget: &mut CellBudget,
) -> Result<WireOutcome, ProtocolError> {
    Ok(WireOutcome {
        result: read_cellset(buf, pos, budget)?,
        covered: read_cellset(buf, pos, budget)?,
        entries_fetched: read_varint(buf, pos)?,
        scanned: read_bool(buf, pos)?,
    })
}

// ---------------------------------------------------------------------------
// Message encodings
// ---------------------------------------------------------------------------

const REQ_OPEN: u8 = 1;
const REQ_CLOSE: u8 = 2;
const REQ_STORE: u8 = 3;
const REQ_LOOKUP: u8 = 4;
const REQ_FINISH: u8 = 5;
const REQ_STATS: u8 = 6;
const REQ_SHUTDOWN: u8 = 7;

const RESP_OPENED: u8 = 128;
const RESP_CLOSED: u8 = 129;
const RESP_STORED: u8 = 130;
const RESP_LOOKUP: u8 = 131;
const RESP_FINISHED: u8 = 132;
const RESP_STATS: u8 = 133;
const RESP_SHUTDOWN: u8 = 134;
const RESP_ERROR: u8 = 135;

/// Encodes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::OpenSession { name, ops } => {
            out.push(REQ_OPEN);
            write_string(&mut out, name);
            write_varint(&mut out, ops.len() as u64);
            for spec in ops {
                write_op_spec(&mut out, spec);
            }
        }
        Request::CloseSession { session } => {
            out.push(REQ_CLOSE);
            write_varint(&mut out, *session);
        }
        Request::StoreBatch {
            session,
            op_id,
            pairs,
        } => {
            out.push(REQ_STORE);
            write_varint(&mut out, *session);
            write_varint(&mut out, u64::from(*op_id));
            write_varint(&mut out, pairs.len() as u64);
            for p in pairs {
                write_region_pair(&mut out, p);
            }
        }
        Request::Lookup { session, steps } => {
            out.push(REQ_LOOKUP);
            write_varint(&mut out, *session);
            write_varint(&mut out, steps.len() as u64);
            for s in steps {
                write_lookup_step(&mut out, s);
            }
        }
        Request::FinishSession { session } => {
            out.push(REQ_FINISH);
            write_varint(&mut out, *session);
        }
        Request::Stats => out.push(REQ_STATS),
        Request::Shutdown => out.push(REQ_SHUTDOWN),
    }
    out
}

/// Decodes a frame payload into a request.
pub fn decode_request(buf: &[u8]) -> Result<Request, ProtocolError> {
    let mut pos = 0;
    let tag = read_u8(buf, &mut pos)?;
    let req = match tag {
        REQ_OPEN => {
            let name = read_string(buf, &mut pos)?;
            let n = read_count(buf, &mut pos, 4)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(read_op_spec(buf, &mut pos)?);
            }
            Request::OpenSession { name, ops }
        }
        REQ_CLOSE => Request::CloseSession {
            session: read_varint(buf, &mut pos)?,
        },
        REQ_STORE => {
            let session = read_varint(buf, &mut pos)?;
            let op_id = read_varint(buf, &mut pos)?;
            if op_id > u64::from(u32::MAX) {
                return Err(ProtocolError::Malformed("operator id out of range"));
            }
            let n = read_count(buf, &mut pos, 3)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push(read_region_pair(buf, &mut pos)?);
            }
            Request::StoreBatch {
                session,
                op_id: op_id as OpId,
                pairs,
            }
        }
        REQ_LOOKUP => {
            let session = read_varint(buf, &mut pos)?;
            let n = read_count(buf, &mut pos, 4)?;
            let mut budget = CellBudget::new();
            let mut steps = Vec::with_capacity(n);
            for _ in 0..n {
                steps.push(read_lookup_step(buf, &mut pos, &mut budget)?);
            }
            Request::Lookup { session, steps }
        }
        REQ_FINISH => Request::FinishSession {
            session: read_varint(buf, &mut pos)?,
        },
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        _ => return Err(ProtocolError::Malformed("unknown request tag")),
    };
    if pos != buf.len() {
        return Err(ProtocolError::Malformed("trailing bytes after request"));
    }
    Ok(req)
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::SessionOpened { session } => {
            out.push(RESP_OPENED);
            write_varint(&mut out, *session);
        }
        Response::SessionClosed => out.push(RESP_CLOSED),
        Response::BatchStored {
            accepted,
            shed_total,
        } => {
            out.push(RESP_STORED);
            write_bool(&mut out, *accepted);
            write_varint(&mut out, *shed_total);
        }
        Response::LookupDone { steps } => {
            out.push(RESP_LOOKUP);
            write_varint(&mut out, steps.len() as u64);
            for outcomes in steps {
                write_varint(&mut out, outcomes.len() as u64);
                for o in outcomes {
                    write_outcome(&mut out, o);
                }
            }
        }
        Response::SessionFinished { shed_total } => {
            out.push(RESP_FINISHED);
            write_varint(&mut out, *shed_total);
        }
        Response::Stats(stats) => {
            out.push(RESP_STATS);
            write_varint(&mut out, stats.sessions);
            write_varint(&mut out, stats.shards);
            write_varint(&mut out, stats.store_batches);
            write_varint(&mut out, stats.lookup_steps);
            write_varint(&mut out, stats.shed_batches);
            write_varint(&mut out, stats.commits);
            write_varint(&mut out, stats.evicted_sessions);
        }
        Response::ShuttingDown => out.push(RESP_SHUTDOWN),
        Response::Error { message } => {
            out.push(RESP_ERROR);
            write_string(&mut out, message);
        }
    }
    out
}

/// Decodes a frame payload into a response.
pub fn decode_response(buf: &[u8]) -> Result<Response, ProtocolError> {
    let mut pos = 0;
    let tag = read_u8(buf, &mut pos)?;
    let resp = match tag {
        RESP_OPENED => Response::SessionOpened {
            session: read_varint(buf, &mut pos)?,
        },
        RESP_CLOSED => Response::SessionClosed,
        RESP_STORED => Response::BatchStored {
            accepted: read_bool(buf, &mut pos)?,
            shed_total: read_varint(buf, &mut pos)?,
        },
        RESP_LOOKUP => {
            let n = read_count(buf, &mut pos, 1)?;
            let mut budget = CellBudget::new();
            let mut steps = Vec::with_capacity(n);
            for _ in 0..n {
                let m = read_count(buf, &mut pos, 4)?;
                let mut outcomes = Vec::with_capacity(m);
                for _ in 0..m {
                    outcomes.push(read_outcome(buf, &mut pos, &mut budget)?);
                }
                steps.push(outcomes);
            }
            Response::LookupDone { steps }
        }
        RESP_FINISHED => Response::SessionFinished {
            shed_total: read_varint(buf, &mut pos)?,
        },
        RESP_STATS => Response::Stats(ServerStats {
            sessions: read_varint(buf, &mut pos)?,
            shards: read_varint(buf, &mut pos)?,
            store_batches: read_varint(buf, &mut pos)?,
            lookup_steps: read_varint(buf, &mut pos)?,
            shed_batches: read_varint(buf, &mut pos)?,
            commits: read_varint(buf, &mut pos)?,
            evicted_sessions: read_varint(buf, &mut pos)?,
        }),
        RESP_SHUTDOWN => Response::ShuttingDown,
        RESP_ERROR => Response::Error {
            message: read_string(buf, &mut pos)?,
        },
        _ => return Err(ProtocolError::Malformed("unknown response tag")),
    };
    if pos != buf.len() {
        return Err(ProtocolError::Malformed("trailing bytes after response"));
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cellset(shape: Shape, cells: &[&[u32]]) -> CellSet {
        CellSet::from_coords(shape, cells.iter().map(|c| Coord::new(c)))
    }

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::OpenSession {
                name: "run-a".into(),
                ops: vec![OpSpec {
                    op_id: 7,
                    input_shapes: vec![Shape::d2(8, 8), Shape::d1(16)],
                    output_shape: Shape::d2(8, 8),
                    strategies: vec![
                        StorageStrategy::full_many(),
                        StorageStrategy::full_one_forward(),
                    ],
                }],
            },
            Request::CloseSession { session: 3 },
            Request::StoreBatch {
                session: 3,
                op_id: 7,
                pairs: vec![
                    RegionPair::Full {
                        outcells: vec![Coord::d2(1, 2)],
                        incells: vec![vec![Coord::d2(0, 0), Coord::d2(1, 1)], vec![]],
                    },
                    RegionPair::Payload {
                        outcells: vec![Coord::d2(3, 3)],
                        payload: vec![1, 2, 3],
                    },
                ],
            },
            Request::Lookup {
                session: 3,
                steps: vec![LookupStep {
                    op_id: 7,
                    direction: Direction::Backward,
                    input_idx: 1,
                    queries: vec![
                        cellset(Shape::d2(8, 8), &[&[0, 0], &[7, 7]]),
                        cellset(Shape::d2(8, 8), &[]),
                    ],
                }],
            },
            Request::FinishSession { session: 3 },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let shape = Shape::d2(4, 4);
        let resps = vec![
            Response::SessionOpened { session: 11 },
            Response::SessionClosed,
            Response::BatchStored {
                accepted: false,
                shed_total: 5,
            },
            Response::LookupDone {
                steps: vec![vec![WireOutcome {
                    result: cellset(shape, &[&[1, 1]]),
                    covered: cellset(shape, &[&[0, 1], &[2, 3]]),
                    entries_fetched: 9,
                    scanned: true,
                }]],
            },
            Response::SessionFinished { shed_total: 0 },
            Response::Stats(ServerStats {
                sessions: 1,
                shards: 4,
                store_batches: 100,
                lookup_steps: 7,
                shed_batches: 2,
                commits: 3,
                evicted_sessions: 1,
            }),
            Response::ShuttingDown,
            Response::Error {
                message: "no such session".into(),
            },
        ];
        for resp in resps {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let req = Request::Lookup {
            session: 1,
            steps: vec![LookupStep {
                op_id: 2,
                direction: Direction::Forward,
                input_idx: 0,
                queries: vec![cellset(Shape::d2(8, 8), &[&[1, 2], &[3, 4]])],
            }],
        };
        let bytes = encode_request(&req);
        for cut in 0..bytes.len() {
            assert!(
                decode_request(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut data = Vec::new();
        data.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        let err = read_frame(&mut data.as_slice()).unwrap_err();
        assert!(matches!(err, ProtocolError::FrameTooLarge(_)));
    }

    #[test]
    fn clean_eof_is_none_and_torn_frame_is_error() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut &*empty).unwrap().is_none());
        let torn: &[u8] = &[3, 0, 0, 0, 1];
        assert!(read_frame(&mut &*torn).is_err());
        let half_len: &[u8] = &[3, 0];
        assert!(read_frame(&mut &*half_len).is_err());
    }

    #[test]
    fn every_encoding_kind_round_trips() {
        let shape = Shape::d2(8, 8);
        // Scattered cells pick the sparse frame, a saturated set the run
        // frame, and an every-other-cell set the dense word frame.  The
        // shape of d2(8, 8) encodes in three bytes, so the kind tag is at
        // offset 3.
        let cases = [
            (
                CellSet::from_coords(
                    shape,
                    vec![Coord::d2(0, 0), Coord::d2(2, 1), Coord::d2(7, 7)],
                ),
                CELLSET_SPARSE,
            ),
            (CellSet::full(shape), CELLSET_RUNS),
            (
                CellSet::from_coords(shape, (0..64).step_by(2).map(|i| shape.unravel(i))),
                CELLSET_DENSE,
            ),
        ];
        for (cs, want_kind) in cases {
            let mut buf = Vec::new();
            write_cellset(&mut buf, &cs);
            assert_eq!(buf[3], want_kind, "encoder picked the wrong frame");
            let mut pos = 0;
            let mut budget = CellBudget::new();
            let back = read_cellset(&buf, &mut pos, &mut budget).unwrap();
            assert_eq!(pos, buf.len(), "trailing bytes");
            assert_eq!(back, cs);
        }
    }

    #[test]
    fn huge_empty_and_full_cellsets_decode_cheaply() {
        // Under the old one-bitmap-per-set representation, 64 empty sets
        // declaring a MAX_WIRE_CELLS shape decoded into 64 × 32 MiB of
        // bitmaps and had to be refused outright.  Adaptive containers
        // decode them (and full-array answers) into a few bytes each, so
        // the same packing now sails under the footprint budget.
        let huge = Shape::d2(1 << 14, 1 << 14);
        assert_eq!(huge.num_cells(), MAX_WIRE_CELLS);
        let req = Request::Lookup {
            session: 1,
            steps: vec![LookupStep {
                op_id: 7,
                direction: Direction::Backward,
                input_idx: 0,
                queries: vec![CellSet::empty(huge); 64],
            }],
        };
        let bytes = encode_request(&req);
        assert!(bytes.len() < 1024, "empty sets are ~8 wire bytes each");
        assert_eq!(decode_request(&bytes).unwrap(), req);

        // A full-array answer is one run frame, not a 32 MiB bitmap.
        let full = Request::Lookup {
            session: 1,
            steps: vec![LookupStep {
                op_id: 7,
                direction: Direction::Backward,
                input_idx: 0,
                queries: vec![CellSet::full(huge); 4],
            }],
        };
        let bytes = encode_request(&full);
        assert!(bytes.len() < 256, "full sets are ~15 wire bytes each");
        assert_eq!(decode_request(&bytes).unwrap(), full);
    }

    #[test]
    fn chunk_table_amplification_exhausts_the_frame_budget() {
        // The footprint attack against adaptive containers: a ~20-byte
        // dense frame carrying one word aimed at the *last* chunk of a
        // maximum-size shape forces the decoder to size the set's chunk
        // table for all 4096 chunks (~128 KiB).  Packing thousands of
        // them must trip the decoded-footprint budget, not multiply into
        // gigabytes of chunk tables.
        let huge = Shape::d2(1 << 14, 1 << 14);
        let last_word = (huge.num_cells() / 64 - 1) as u64;
        let n_queries = 2000u64;
        let mut buf = vec![REQ_LOOKUP];
        write_varint(&mut buf, 1); // session
        write_varint(&mut buf, 1); // one step
        write_varint(&mut buf, 7); // op_id
        buf.push(0); // direction
        write_varint(&mut buf, 0); // input_idx
        write_varint(&mut buf, n_queries);
        for _ in 0..n_queries {
            write_shape(&mut buf, &huge);
            buf.push(CELLSET_DENSE);
            write_varint(&mut buf, last_word);
            write_varint(&mut buf, 1); // one word...
            buf.extend_from_slice(&1u64.to_le_bytes()); // ...one bit
        }
        assert!(buf.len() < 64 << 10, "the attack frame itself is tiny");
        let err = decode_request(&buf).unwrap_err();
        assert!(
            matches!(err, ProtocolError::Malformed(m) if m.contains("footprint")),
            "{err}"
        );
        // A handful of the same sets decodes fine.
        let mut ok = vec![REQ_LOOKUP];
        write_varint(&mut ok, 1);
        write_varint(&mut ok, 1);
        write_varint(&mut ok, 7);
        ok.push(0);
        write_varint(&mut ok, 0);
        write_varint(&mut ok, 4);
        for _ in 0..4 {
            write_shape(&mut ok, &huge);
            ok.push(CELLSET_DENSE);
            write_varint(&mut ok, last_word);
            write_varint(&mut ok, 1);
            ok.extend_from_slice(&1u64.to_le_bytes());
        }
        assert!(decode_request(&ok).is_ok());
    }

    #[test]
    fn dense_frames_reject_bits_past_the_shape() {
        // d2(3, 3) has nine cells in one word; bit 9 is out of bounds.
        let shape = Shape::d2(3, 3);
        let mut buf = Vec::new();
        write_shape(&mut buf, &shape);
        buf.push(CELLSET_DENSE);
        write_varint(&mut buf, 0); // first word
        write_varint(&mut buf, 1); // one word
        buf.extend_from_slice(&(1u64 << 9).to_le_bytes());
        let mut pos = 0;
        let mut budget = CellBudget::new();
        let err = read_cellset(&buf, &mut pos, &mut budget).unwrap_err();
        assert!(
            matches!(err, ProtocolError::Malformed(m) if m.contains("exceeds shape")),
            "{err}"
        );
    }

    #[test]
    fn corrupt_counts_do_not_allocate() {
        // A StoreBatch claiming u32::MAX pairs in a 16-byte frame must be
        // rejected by the count guard, not by exhausting memory.
        let mut buf = vec![REQ_STORE];
        write_varint(&mut buf, 1);
        write_varint(&mut buf, 2);
        write_varint(&mut buf, u64::from(u32::MAX));
        assert!(decode_request(&buf).is_err());
    }
}
