//! Embedded key-value store.
//!
//! SubZero stores region lineage in "a collection of BerkeleyDB hashtable
//! instances", one per operator instance, with fsync/logging/concurrency
//! control turned off because the lineage store is a cache (§VI-A).  This
//! module provides an equivalent embedded store:
//!
//! * [`MemBackend`] — a plain in-process hash table.
//! * [`FileBackend`] — an append-only log file with an in-memory hash index
//!   (rebuildable by scanning the log), giving the same "hash table on disk,
//!   no transactional guarantees" durability stance as the prototype.
//! * [`sanitize_name`] — the collision-free file-name stem of a store's log.

use std::borrow::{Borrow, Cow};
use std::collections::hash_map::Entry;
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasher, Hash, Hasher};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::{read_varint, write_varint};
use crate::hash::FxHashMap;
use crate::mmap::MmapRegion;

/// One owned `(key, value)` record, as [`KvBackend::iter`] yields it.
pub type KvPair = (Vec<u8>, Vec<u8>);

/// One borrowed `(key, value)` record, as streamed zero-copy by
/// [`KvBackend::scan_slices`].
pub type KvRef<'a> = (&'a [u8], &'a [u8]);

/// Longest key an `IndexKey` holds inline.  Every key the lineage encoder
/// emits is at most 10 bytes; 14 makes the key two words, so a file-index
/// bucket is 32 bytes — index memory is first-touch (page-fault and
/// cache-miss) bound during capture.  Public only so the allocation-guard
/// test can assert no captured key outgrows it (one that did would bring
/// back a `malloc` per stored record).
#[doc(hidden)]
pub const INLINE_KEY: usize = 14;

/// Map key of the backends' tables: the key bytes stored in the table
/// bucket itself (no allocation, no pointer chase on compare) while they fit
/// [`INLINE_KEY`] bytes, boxed otherwise (twice, to keep the pointer thin
/// and the type at two words).  Hashes and compares as its byte string and
/// borrows as `[u8]`, so lookups take a plain `&[u8]` and never build a key.
#[derive(Clone, Debug)]
enum IndexKey {
    /// `bytes[..len]` is the key; the tail is zero.
    Inline {
        len: u8,
        bytes: [u8; INLINE_KEY],
    },
    Heap(Box<Box<[u8]>>),
}

impl IndexKey {
    fn new(key: &[u8]) -> Self {
        let n = key.len();
        if n > INLINE_KEY {
            return IndexKey::Heap(Box::new(key.into()));
        }
        // Two fixed-width loads — the first and the last 8 bytes, the latter
        // shifted to where it belongs (the overlap rewrites equal bytes) —
        // instead of a variable-length copy: that is a `memcpy` call per
        // stored record, and measurable on the capture path.
        let word = |chunk: &[u8; 8]| u128::from(u64::from_le_bytes(*chunk));
        let packed = match (key.first_chunk(), key.last_chunk()) {
            (Some(head), Some(tail)) => word(head) | (word(tail) << (8 * (n - 8))),
            _ => {
                let mut short = [0u8; 8];
                short[..n].copy_from_slice(key);
                word(&short)
            }
        };
        let mut bytes = [0u8; INLINE_KEY];
        bytes.copy_from_slice(&packed.to_le_bytes()[..INLINE_KEY]);
        IndexKey::Inline {
            len: n as u8,
            bytes,
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            IndexKey::Inline { len, bytes } => &bytes[..*len as usize],
            IndexKey::Heap(bytes) => bytes,
        }
    }
}

impl Borrow<[u8]> for IndexKey {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

// `Borrow<[u8]>` obliges `Hash`/`Eq` to agree with the byte string's.
impl Hash for IndexKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for IndexKey {}

/// Sequential-read chunk of the positioned-read scan, the fallback that
/// serves a log whose flushed prefix is not mapped.
const SCAN_CHUNK: usize = 256 * 1024;

/// Abstract hash-table storage backend.
///
/// Backends are `Sync` so read-only lookups (`get`, the scans) can be fanned
/// across the scoped worker threads of the batched query path; writes still
/// require `&mut self` and therefore exclusive access.
pub trait KvBackend: Send + Sync {
    /// Inserts or replaces the value stored under `key`.
    fn put(&mut self, key: &[u8], value: &[u8]);

    /// Fetches the value stored under `key`.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;

    /// Fetches the value stored under `key` into `out`, reusing its
    /// allocation: `out` is cleared, the value copied in, and the result says
    /// whether the key was found.  A miss (or a failed read) leaves `out`
    /// empty and returns `false`, exactly where [`get`](KvBackend::get)
    /// returns `None`.
    ///
    /// Indexed lookups read one record per query cell; with a reused buffer
    /// a warm lookup allocates nothing per record.  The default goes through
    /// `get`; backends that can copy straight from their storage override it.
    fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> bool {
        out.clear();
        match self.get(key) {
            Some(value) => {
                out.extend_from_slice(&value);
                true
            }
            None => false,
        }
    }

    /// Whether `key` is present.
    fn contains(&self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Number of live keys.
    fn len(&self) -> usize;

    /// Whether the store holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all live `(key, value)` pairs (order unspecified).
    fn iter(&self) -> Box<dyn Iterator<Item = (Vec<u8>, Vec<u8>)> + '_>;

    /// Bytes of key + value payload currently stored (logical size — for the
    /// file backend this excludes dead, superseded records).
    fn bytes_used(&self) -> usize;

    /// Flushes buffered writes to their destination (no-op for memory).
    fn flush(&mut self) -> io::Result<()>;

    /// Forces flushed bytes to stable storage (`fdatasync`; no-op for
    /// memory).  The transactional commit path calls this before a prepare
    /// record may name this store's length as durable.
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Byte length of the append-only log for persistent backends (`None`
    /// for memory).  Only meaningful after [`flush`](KvBackend::flush): the
    /// commit path records this as the published length of the file.
    fn log_len(&self) -> Option<u64> {
        None
    }

    /// Rewrites the log keeping only live records, folding superseded
    /// `merge_append_batch` delta chains into dense entries.  Returns the
    /// bytes reclaimed (0 for memory backends and garbage-free logs).
    ///
    /// A log with no superseded record is left alone without being read:
    /// the file backend counts the bytes of every record a write replaces
    /// (replay on open recounts them), and returns 0 right after flushing
    /// when that count is zero.
    ///
    /// Crash-safe: the dense log is staged as `<file>.compact`, fsynced and
    /// renamed over the original, so an interrupted compaction leaves either
    /// the old log or a staging file that recovery finishes or discards.
    fn compact(&mut self) -> io::Result<u64> {
        Ok(0)
    }

    /// Path of the backing file for persistent backends, `None` for memory.
    ///
    /// Callers use this to place sidecar artefacts (e.g. a serialised
    /// spatial index) next to the data they derive from.
    fn file_path(&self) -> Option<&Path> {
        None
    }

    /// A cheap fingerprint of the flushed contents, used to validate sidecar
    /// artefacts on reopen: a sidecar written at stamp `s` is only trusted
    /// while the backend still reports `s`.  Purely in-memory backends
    /// (which never outlive the process) may return 0.
    fn persist_stamp(&self) -> u64 {
        0
    }

    /// Applies one ingest batch as a single group write.
    ///
    /// Each `(key, value)` of `puts` inserts or replaces (later entries win
    /// when a key repeats).  Then each `(key, append)` of `appends` makes
    /// the stored value `old ++ append`, or just `append` for an absent key;
    /// appends apply in order, so an append to a key this call put extends
    /// the put value and a repeated key accumulates its appends.
    ///
    /// Appends are the flush half of write-side key dedup: batched writers
    /// stage append-only deltas per *distinct* key, so the table is probed
    /// once per key instead of the read-clone-modify-write of per-record
    /// merges.  The file backend serialises both halves into one buffer:
    /// one log write and flush, one remap.
    fn write_group(&mut self, puts: &[(&[u8], &[u8])], appends: &[(&[u8], &[u8])]);

    /// [`write_group`](KvBackend::write_group) with no appends.
    fn put_batch_slices(&mut self, items: &[(&[u8], &[u8])]) {
        self.write_group(items, &[]);
    }

    /// [`write_group`](KvBackend::write_group) with no puts.
    fn merge_append_batch(&mut self, items: &[(&[u8], &[u8])]) {
        self.write_group(&[], items);
    }

    /// Streams every live `(key, value)` pair through `visit` as blocks of
    /// up to `block` *borrowed* slices (order unspecified, each live key
    /// exactly once).
    ///
    /// The slices are only valid for the duration of each `visit` call;
    /// consumers decode out of them in place (into a columnar
    /// [`ScanFrame`](crate::codec::ScanFrame)) instead of taking ownership.
    /// The file backend serves the slices straight from its mapped log
    /// region, the memory backend from its table — neither allocates per
    /// record.  The default implementation adapts [`iter`](KvBackend::iter)
    /// and does copy; backends with a physical layout override it.
    fn scan_slices(&self, block: usize, visit: &mut dyn FnMut(&[KvRef])) {
        visit_slices_of(self.iter(), block, visit);
    }
}

/// Hands `items` to `visit` in blocks of up to `block` (at least one).
fn visit_blocks<T>(items: impl Iterator<Item = T>, block: usize, mut visit: impl FnMut(&[T])) {
    let block = block.max(1);
    let mut buf: Vec<T> = Vec::with_capacity(block);
    for item in items {
        buf.push(item);
        if buf.len() == block {
            visit(&buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        visit(&buf);
    }
}

/// [`visit_blocks`] over owned records, lent to `visit` as slices: the
/// iterator-driven [`KvBackend::scan_slices`].
fn visit_slices_of(
    iter: impl Iterator<Item = KvPair>,
    block: usize,
    visit: &mut dyn FnMut(&[KvRef]),
) {
    visit_blocks(iter, block, |pairs: &[KvPair]| {
        let refs: Vec<KvRef> = pairs
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        visit(&refs);
    });
}

/// Purely in-memory backend.
///
/// The table is keyed through the [`FxHasher`](crate::hash::FxHasher):
/// one-granularity ingest resolves a key per stored cell, and with short
/// structured keys the default SipHash costs more than the bucket operation
/// it guards.
#[derive(Default, Debug)]
pub struct MemBackend {
    map: FxHashMap<IndexKey, Vec<u8>>,
    bytes: usize,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces one owned value, keeping the byte count.
    fn insert(&mut self, key: &[u8], value: Vec<u8>) {
        self.bytes += value.len();
        if let Some(old) = self.map.insert(IndexKey::new(key), value) {
            self.bytes -= old.len();
        } else {
            self.bytes += key.len();
        }
    }
}

impl KvBackend for MemBackend {
    fn put(&mut self, key: &[u8], value: &[u8]) {
        self.insert(key, value.to_vec());
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.map.get(key).cloned()
    }

    fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> bool {
        out.clear();
        match self.map.get(key) {
            Some(value) => {
                out.extend_from_slice(value);
                true
            }
            None => false,
        }
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (Vec<u8>, Vec<u8>)> + '_> {
        Box::new(
            self.map
                .iter()
                .map(|(k, v)| (k.as_slice().to_vec(), v.clone())),
        )
    }

    fn bytes_used(&self) -> usize {
        self.bytes
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn write_group(&mut self, puts: &[(&[u8], &[u8])], appends: &[(&[u8], &[u8])]) {
        // The table must own its values, so each put slice is copied exactly
        // once, straight into its final allocation.  Appends take one probe
        // per key and no value clone: hits extend the stored value in place,
        // misses insert the delta as the whole value.  Reserving up front
        // keeps the whole group write out of rehash growth.
        self.map.reserve(puts.len());
        for &(key, value) in puts {
            self.insert(key, value.to_vec());
        }
        self.map.reserve(appends.len());
        for &(key, append) in appends {
            match self.map.entry(IndexKey::new(key)) {
                Entry::Occupied(mut e) => e.get_mut().extend_from_slice(append),
                Entry::Vacant(e) => {
                    e.insert(append.to_vec());
                    self.bytes += key.len();
                }
            }
            self.bytes += append.len();
        }
    }

    fn scan_slices(&self, block: usize, visit: &mut dyn FnMut(&[KvRef])) {
        // The table owns every record, so blocks borrow straight from it —
        // no per-record clones, unlike the iter-driven default.
        let records = self.map.iter().map(|(k, v)| (k.as_slice(), v.as_slice()));
        visit_blocks(records, block, visit);
    }
}

/// The file backend's index: key -> (offset of the value bytes, value
/// length).
type LogIndex = FxHashMap<IndexKey, (u64, u32)>;

/// Parses the log record starting at `*pos` and advances past it, returning
/// its key and value; `None` (with `*pos` untouched) when the bytes left
/// hold no complete record — the end of the log, or a torn tail.
fn next_record<'b>(buf: &'b [u8], pos: &mut usize) -> Option<(&'b [u8], &'b [u8])> {
    let mut at = *pos;
    let klen = read_record_len(buf, &mut at)?;
    let vlen = read_record_len(buf, &mut at)?;
    let value_at = at.checked_add(klen)?;
    let end = value_at.checked_add(vlen)?;
    if end > buf.len() {
        return None;
    }
    *pos = end;
    Some((&buf[at..value_at], &buf[value_at..end]))
}

/// One length varint of a record header.  A length below 128 — one byte,
/// every key and most values — is read inline; any other byte takes
/// [`read_varint`], which reads a one-byte varint the same way, so both
/// paths accept and reject exactly the same bytes.
#[inline]
fn read_record_len(buf: &[u8], at: &mut usize) -> Option<usize> {
    match buf.get(*at) {
        Some(&byte) if byte < 0x80 => {
            *at += 1;
            Some(usize::from(byte))
        }
        _ => usize::try_from(read_varint(buf, at).ok()?).ok(),
    }
}

/// Appends a record's `[key_len][value_len][key]` prefix to `buf`.
fn write_record_prefix(buf: &mut Vec<u8>, key: &[u8], value_len: usize) {
    write_varint(buf, key.len() as u64);
    write_varint(buf, value_len as u64);
    buf.extend_from_slice(key);
}

/// Bytes of one log record: its two length varints, key and value.
fn record_len(key_len: usize, value_len: usize) -> u64 {
    let varint_len = |v: usize| u64::from((usize::BITS - (v | 1).leading_zeros()).div_ceil(7));
    varint_len(key_len) + varint_len(value_len) + (key_len + value_len) as u64
}

/// The records superseded since the log was last rewritten dense: scans
/// and compaction skip them by value offset (each record's is distinct),
/// walking `offsets` in log order beside the records.  Writes only push;
/// replay on open, `flush` and `sync` sort.  Never persisted: replay
/// rebuilds it.
#[derive(Debug, Default)]
struct Superseded {
    /// Whole-record bytes: exactly what a compaction would reclaim.
    bytes: u64,
    /// Value offsets, sorted unless written since the last sort.
    offsets: Vec<u64>,
}

impl Superseded {
    fn push(&mut self, key_len: usize, value_off: u64, value_len: usize) {
        self.bytes += record_len(key_len, value_len);
        self.offsets.push(value_off);
    }

    /// Sorts in place — run-adaptively, so the prefix an earlier sort left
    /// costs a linear merge, not a re-sort.
    fn sort(&mut self) {
        self.offsets.sort();
    }

    /// The offsets in log order: borrowed when sorted, else a sorted copy.
    fn in_order(&self) -> Cow<'_, [u64]> {
        let mut offsets = Cow::Borrowed(&self.offsets[..]);
        if !offsets.is_sorted() {
            offsets.to_mut().sort_unstable();
        }
        offsets
    }
}

/// The next record of `buf` from `*pos` (as [`next_record`]) that is not
/// dead — whose value offset, `base` plus its place in `buf`, is not the
/// head of `dead`, the ascending offsets of the dead records not yet
/// passed — with its start in `buf`.
fn next_live_record<'b>(
    buf: &'b [u8],
    base: u64,
    pos: &mut usize,
    dead: &mut &[u64],
) -> Option<(usize, &'b [u8], &'b [u8])> {
    loop {
        let start = *pos;
        let (key, value) = next_record(buf, pos)?;
        let value_off = base + (*pos - value.len()) as u64;
        debug_assert!(
            dead.first().is_none_or(|&d| d >= value_off),
            "dead offsets out of order"
        );
        match dead.split_first() {
            Some((&d, rest)) if d == value_off => *dead = rest,
            _ => return Some((start, key, value)),
        }
    }
}

/// Points `key` at a freshly appended value, keeping the live-byte count;
/// the record a put replaces becomes garbage.
fn index_put(
    index: &mut LogIndex,
    live_bytes: &mut usize,
    superseded: &mut Superseded,
    key: &[u8],
    off: u64,
    len: usize,
) {
    *live_bytes += len;
    match index.insert(IndexKey::new(key), (off, len as u32)) {
        Some((old_off, old_len)) => {
            *live_bytes -= old_len as usize;
            superseded.push(key.len(), old_off, old_len as usize);
        }
        None => *live_bytes += key.len(),
    }
}

/// Append-only-file backend with an in-memory hash index.
///
/// Records are `[key_len varint][value_len varint][key][value]`; the last
/// record for a key wins.  The index is rebuilt by scanning the log on open,
/// so no separate metadata needs to be persisted — matching the paper's
/// treatment of lineage storage as a recoverable cache.
#[derive(Debug)]
pub struct FileBackend {
    path: PathBuf,
    writer: BufWriter<File>,
    /// Dedicated read handle (the writer's position must stay untouched).
    /// Opened once; re-opening the file per lookup costs more than the read.
    /// Reads the mapping does not cover go through positioned I/O
    /// (`read_at`/`seek_read`), so the handle carries no cursor state and
    /// concurrent readers — fanned-out lookup shards, capture flusher
    /// threads — never serialise on a lock.
    reader: File,
    /// key -> (offset of the value bytes, value length)
    index: LogIndex,
    /// Values written since the last flush; served from memory because the
    /// buffered writer may not have reached the file yet.
    pending: FxHashMap<IndexKey, Vec<u8>>,
    /// Logical bytes (live keys + values).
    live_bytes: usize,
    /// The records superseded since the log was last rewritten dense.
    superseded: Superseded,
    /// Next append offset.
    write_offset: u64,
    /// Read-only mapping of the flushed log prefix, refreshed after every
    /// group flush (`&mut self` paths only, so readers never race a remap —
    /// writer exclusivity is the backend's concurrency contract).  `None`
    /// when empty, unavailable on this target, or refused; reads then fall
    /// back to positioned I/O.
    map: Option<MmapRegion>,
}

impl FileBackend {
    /// Opens (or creates) the log file at `path`, scanning any existing
    /// records to rebuild the index.
    pub fn open(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut existing = Vec::new();
        if path.exists() {
            File::open(path)?.read_to_end(&mut existing)?;
        }
        // Everything past the last complete record is a torn tail (e.g. a
        // crash mid-append) and is ignored.
        let mut index = LogIndex::default();
        let (mut live_bytes, mut superseded) = (0usize, Superseded::default());
        let mut pos = 0usize;
        while let Some((key, value)) = next_record(&existing, &mut pos) {
            let value_off = (pos - value.len()) as u64;
            index_put(
                &mut index,
                &mut live_bytes,
                &mut superseded,
                key,
                value_off,
                value.len(),
            );
        }
        superseded.sort();
        let write_offset = pos as u64;
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .read(true)
            .open(path)?;
        if (existing.len() as u64) > write_offset {
            // Drop a torn trailing record now.  Leaving it in place would let
            // a later, shorter append leave garbage bytes behind it, which
            // the next index rebuild could mis-parse as a live record —
            // corrupting both lookups and the live-bytes accounting.
            file.set_len(write_offset)?;
        }
        let mut writer = BufWriter::new(file);
        writer.seek(SeekFrom::Start(write_offset))?;
        let reader = File::open(path)?;
        let mut backend = FileBackend {
            path: path.to_path_buf(),
            writer,
            reader,
            index,
            pending: FxHashMap::default(),
            live_bytes,
            superseded,
            write_offset,
            map: None,
        };
        backend.remap();
        Ok(backend)
    }

    /// Path of the backing log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Refreshes the mapped region to cover exactly the flushed log prefix.
    /// Called from `&mut self` write paths only (open / flush / group
    /// writes), so no reader can hold a view of the old region — writer
    /// exclusivity is what makes dropping it sound.  Mapping failure simply
    /// leaves `map` unset and reads fall back to positioned I/O.
    fn remap(&mut self) {
        let covered = self.map.as_ref().map_or(0, |m| m.len() as u64);
        if covered != self.write_offset {
            self.map = MmapRegion::map(&self.reader, self.write_offset);
        }
    }

    /// The scan of an unmapped log: read *sequentially* in `chunk`-byte
    /// positioned reads, with blocks borrowing from the carry buffer for the
    /// duration of each `visit`.  Superseded records are skipped as in the
    /// mapped scan.
    fn scan_chunked(&self, chunk: usize, block: usize, visit: &mut dyn FnMut(&[KvRef])) {
        let dead = self.superseded.in_order();
        let mut dead: &[u64] = &dead;
        // Chunks are read straight onto the tail of the carry buffer, which
        // holds the incomplete record the previous chunk ended in.
        let mut carry: Vec<u8> = Vec::new();
        let mut read_pos = 0u64; // absolute log offset of the next chunk read
        let mut file_pos = 0u64; // absolute log offset of carry[0]
        while read_pos < self.write_offset {
            let want = (self.write_offset - read_pos).min(chunk as u64) as usize;
            let at = carry.len();
            carry.resize(at + want, 0);
            // Positioned read: the scan tracks its own offset, so concurrent
            // point lookups through the same handle are unaffected.  A
            // truncated scan would silently drop lineage from query answers;
            // like the other log I/O in this backend, treat failures as fatal.
            read_exact_at(&self.reader, &mut carry[at..], read_pos).expect("lineage log scan read");
            read_pos += want as u64;
            // Parse and emit every complete record in the carry buffer; the
            // borrowed blocks are handed out before the drain invalidates
            // them (a block may come up short at a chunk boundary).
            let consumed = emit_live_records(&carry, file_pos, &mut dead, block, visit);
            carry.drain(..consumed);
            file_pos += consumed as u64;
        }
    }
}

/// Parses every *complete* record in `buf` (whose first byte sits at
/// absolute log offset `base`), emitting live records as blocks of borrowed
/// `(key, value)` slices; superseded records are dropped as their offsets
/// come up in `dead` (see [`next_live_record`]).  Returns the number of bytes
/// consumed (everything up to the first incomplete trailing record).
fn emit_live_records(
    buf: &[u8],
    base: u64,
    dead: &mut &[u64],
    block: usize,
    visit: &mut dyn FnMut(&[KvRef]),
) -> usize {
    let mut pos = 0usize;
    let records = std::iter::from_fn(|| {
        next_live_record(buf, base, &mut pos, dead).map(|(_, key, value)| (key, value))
    });
    visit_blocks(records, block, visit);
    pos
}

/// Reads exactly `buf.len()` bytes at absolute `offset` without moving any
/// file cursor, so a single shared handle serves concurrent readers.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

/// Windows equivalent of the positioned read (`seek_read` moves the handle's
/// cursor, but every read in this backend passes an explicit offset, so the
/// cursor state is irrelevant).
#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "lineage log ended mid-record",
                ))
            }
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl KvBackend for FileBackend {
    fn put(&mut self, key: &[u8], value: &[u8]) {
        let mut prefix = Vec::with_capacity(key.len() + 20);
        write_record_prefix(&mut prefix, key, value.len());
        let value_off = self.write_offset + prefix.len() as u64;
        // Lineage storage is best-effort (a cache); treat I/O errors as fatal
        // for the process rather than corrupting the index silently.
        self.writer.write_all(&prefix).expect("lineage log write");
        self.writer.write_all(value).expect("lineage log write");
        self.write_offset = value_off + value.len() as u64;
        index_put(
            &mut self.index,
            &mut self.live_bytes,
            &mut self.superseded,
            key,
            value_off,
            value.len(),
        );
        self.pending.insert(IndexKey::new(key), value.to_vec());
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut value = Vec::new();
        self.get_into(key, &mut value).then_some(value)
    }

    fn get_into(&self, key: &[u8], out: &mut Vec<u8>) -> bool {
        out.clear();
        // Values written since the last flush may still sit in the buffered
        // writer; serve them from the pending map.
        if let Some(v) = self.pending.get(key) {
            out.extend_from_slice(v);
            return true;
        }
        let Some(&(off, len)) = self.index.get(key) else {
            return false;
        };
        let end = off + len as u64;
        if let Some(map) = &self.map {
            if end <= map.len() as u64 {
                // The mapped prefix covers the record: serve it with a plain
                // memcpy out of the shared page cache — no syscall.
                out.extend_from_slice(&map.as_slice()[off as usize..end as usize]);
                return true;
            }
        }
        // Positioned read through the shared handle: no seek, no lock.
        out.resize(len as usize, 0);
        if read_exact_at(&self.reader, out, off).is_err() {
            out.clear();
            return false;
        }
        true
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.index.contains_key(key)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (Vec<u8>, Vec<u8>)> + '_> {
        Box::new(
            self.index
                .keys()
                .filter_map(move |k| self.get(k.as_slice()).map(|v| (k.as_slice().to_vec(), v))),
        )
    }

    fn bytes_used(&self) -> usize {
        self.live_bytes
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.pending.clear();
        // Every flushed byte is now in the file; extend the mapped prefix
        // over it so subsequent scans and gets stay zero-copy.
        self.remap();
        self.superseded.sort();
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.writer.get_ref().sync_data()
    }

    fn log_len(&self) -> Option<u64> {
        Some(self.write_offset)
    }

    fn compact(&mut self) -> io::Result<u64> {
        self.writer.flush()?;
        self.pending.clear();
        if self.superseded.offsets.is_empty() {
            // Every record is live, so the log is already dense: nothing to
            // read, stage or sync.
            return Ok(0);
        }
        let old_len = self.write_offset;
        let mut raw = Vec::with_capacity(old_len as usize);
        File::open(&self.path)?.read_to_end(&mut raw)?;
        // Stream live records, in log order, into the staging file.  The
        // recovery path (`wal::apply_recovery`) recognises `<file>.compact`
        // and either finishes the rename or discards it, so a crash anywhere
        // in here never loses committed data.
        let mut name = self.path.as_os_str().to_os_string();
        name.push(".compact");
        let staging_path = PathBuf::from(name);
        let staging = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&staging_path)?;
        let mut dense = BufWriter::new(staging);
        let mut new_index = LogIndex::default();
        new_index.reserve(self.index.len());
        let mut new_offset = 0u64;
        let mut pos = 0usize;
        self.superseded.sort();
        let mut dead = self.superseded.offsets.as_slice();
        while let Some((start, key, value)) = next_live_record(&raw, 0, &mut pos, &mut dead) {
            dense.write_all(&raw[start..pos])?;
            new_offset += (pos - start) as u64;
            let loc = (new_offset - value.len() as u64, value.len() as u32);
            new_index.insert(IndexKey::new(key), loc);
        }
        dense.flush()?;
        let staging = dense.into_inner().map_err(|e| e.into_error())?;
        staging.sync_data()?;
        debug_assert!(dead.is_empty(), "every superseded record skipped");
        debug_assert_eq!(
            old_len - new_offset,
            self.superseded.bytes,
            "dead-byte count"
        );
        drop(staging);
        std::fs::rename(&staging_path, &self.path)?;
        // Swap every handle over to the dense log and rebuild derived state.
        let file = OpenOptions::new().write(true).read(true).open(&self.path)?;
        let mut writer = BufWriter::new(file);
        writer.seek(SeekFrom::Start(new_offset))?;
        self.writer = writer;
        self.reader = File::open(&self.path)?;
        self.index = new_index;
        self.write_offset = new_offset;
        self.superseded = Superseded::default();
        self.map = None;
        self.remap();
        Ok(old_len - new_offset)
    }

    fn file_path(&self) -> Option<&Path> {
        Some(&self.path)
    }

    fn persist_stamp(&self) -> u64 {
        // Mixes the append offset with the live-key population: reopening the
        // log replays to the same offset/index, while any write (or a torn
        // tail truncated on reopen) moves the stamp and invalidates sidecars
        // derived from the old contents.
        self.write_offset
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.index.len() as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.live_bytes as u64)
    }

    fn write_group(&mut self, puts: &[(&[u8], &[u8])], appends: &[(&[u8], &[u8])]) {
        // Serialise the whole group into one buffer and append it with a
        // single write.  Because the records provably reach the file before
        // this call returns, none of them need to be double-buffered in the
        // `pending` map — the biggest per-record cost of the one-at-a-time
        // path.
        if puts.is_empty() && appends.is_empty() {
            return;
        }
        if !self.pending.is_empty() {
            // Earlier one-at-a-time puts may still be buffered; flush them so
            // a stale `pending` entry can never shadow a group record, and
            // every indexed value below `base` is readable from the file.
            self.flush().expect("lineage log flush");
        }
        let base = self.write_offset;
        let payload: usize = puts
            .iter()
            .chain(appends)
            .map(|(k, v)| k.len() + v.len() + 20)
            .sum();
        let mut buf = Vec::with_capacity(payload);
        self.index.reserve(puts.len() + appends.len());
        // The log keeps item order; the index is filled in (estimated) bucket
        // order.  A capture's tables are new, and new table memory answers
        // random first touches with a cache miss apiece — swept in order it
        // streams, and is warm by the time the appends probe it.  The
        // estimate mirrors the 7/8-load power-of-two sizing behind `reserve`
        // (a wrong one only costs locality); ties keep item order, so the
        // last record of a repeated key still wins.
        let mask = (self.index.capacity() * 8 / 7).next_power_of_two() - 1;
        let mut placed: Vec<(usize, usize, u64)> = Vec::with_capacity(puts.len());
        for (i, &(key, value)) in puts.iter().enumerate() {
            write_record_prefix(&mut buf, key, value.len());
            let bucket = self.index.hasher().hash_one(key) as usize & mask;
            placed.push((bucket, i, base + buf.len() as u64));
            buf.extend_from_slice(value);
        }
        placed.sort_unstable();
        for (_, i, value_off) in placed {
            let (key, value) = puts[i];
            index_put(
                &mut self.index,
                &mut self.live_bytes,
                &mut self.superseded,
                key,
                value_off,
                value.len(),
            );
        }
        // The log is append-only, so a merged record is rewritten whole — in
        // one pass: one index probe per key, and the old value copied
        // straight into the group buffer behind the record prefix.
        for &(key, delta) in appends {
            self.live_bytes += delta.len();
            match self.index.entry(IndexKey::new(key)) {
                Entry::Vacant(e) => {
                    self.live_bytes += key.len();
                    write_record_prefix(&mut buf, key, delta.len());
                    e.insert((base + buf.len() as u64, delta.len() as u32));
                }
                Entry::Occupied(mut e) => {
                    let (old_off, old_len) = *e.get();
                    let old_len = old_len as usize;
                    self.superseded.push(key.len(), old_off, old_len);
                    write_record_prefix(&mut buf, key, old_len + delta.len());
                    *e.get_mut() = (base + buf.len() as u64, (old_len + delta.len()) as u32);
                    match &self.map {
                        // Written earlier in this very group.
                        _ if old_off >= base => {
                            let at = (old_off - base) as usize;
                            buf.extend_from_within(at..at + old_len);
                        }
                        Some(map) if old_off as usize + old_len <= map.len() => {
                            buf.extend_from_slice(&map.as_slice()[old_off as usize..][..old_len]);
                        }
                        // A failed read of an indexed record must not shrink
                        // it to just the delta: fatal, like the log writes.
                        _ => {
                            let at = buf.len();
                            buf.resize(at + old_len, 0);
                            read_exact_at(&self.reader, &mut buf[at..], old_off)
                                .expect("lineage log read");
                        }
                    }
                }
            }
            buf.extend_from_slice(delta);
        }
        self.write_offset += buf.len() as u64;
        self.writer.write_all(&buf).expect("lineage log write");
        self.writer.flush().expect("lineage log group flush");
        self.remap();
    }

    /// Scans the log zero-copy: the whole flushed prefix is one mapped
    /// slice and blocks borrow straight from the page cache.  Record parsing
    /// rides the group-write layout (a batch's records are physically
    /// contiguous), and superseded records are skipped by their offsets,
    /// walked in log order beside the records.
    fn scan_slices(&self, block: usize, visit: &mut dyn FnMut(&[KvRef])) {
        if !self.pending.is_empty() {
            // Unflushed one-at-a-time puts may not have reached the file yet;
            // fall back to the index-driven scan, which serves them.
            return visit_slices_of(self.iter(), block, visit);
        }
        match &self.map {
            Some(map) if map.len() as u64 == self.write_offset => {
                let dead = self.superseded.in_order();
                emit_live_records(map.as_slice(), 0, &mut &dead[..], block, visit);
            }
            _ => self.scan_chunked(SCAN_CHUNK, block, visit),
        }
    }
}

/// Maps a store name to the stable file-name stem of its `.kv` log: every
/// character outside `[A-Za-z0-9_-]` becomes `_`.
///
/// Plain replacement alone would let distinct names collide on one stem
/// (`"run.1"` and `"run_1"` both become `run_1`), handing two live stores
/// `FileBackend`s appending to the same `.kv` log and corrupting both.  So
/// any name the replacement actually changed gets a hash of the *raw* name
/// appended, keeping distinct names distinct on disk; names already made of
/// clean characters keep their verbatim stem, so existing on-disk layouts
/// stay readable.  The mapping is a pure function of the name — a restarted
/// process finds the same files.
pub fn sanitize_name(name: &str) -> String {
    let mut changed = false;
    let clean: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                changed = true;
                '_'
            }
        })
        .collect();
    if !changed {
        return clean;
    }
    // FNV-1a over the raw bytes; 64 bits is plenty to keep the handful of
    // names one directory holds from colliding.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{clean}-{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn backend_contract(mut b: Box<dyn KvBackend>) {
        assert!(b.is_empty());
        b.put(b"k1", b"v1");
        b.put(b"k2", b"v2");
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(b"k1").as_deref(), Some(&b"v1"[..]));
        assert!(b.contains(b"k2"));
        assert!(!b.contains(b"k3"));
        // Overwrite replaces and the logical size reflects the new value.
        b.put(b"k1", b"longer-value");
        assert_eq!(b.get(b"k1").as_deref(), Some(&b"longer-value"[..]));
        assert_eq!(b.len(), 2);
        let expected_bytes = 2 + 12 + 2 + 2; // k1 + new value + k2 + v2
        assert_eq!(b.bytes_used(), expected_bytes);
        let mut pairs: Vec<_> = b.iter().collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                (b"k1".to_vec(), b"longer-value".to_vec()),
                (b"k2".to_vec(), b"v2".to_vec())
            ]
        );
        b.flush().unwrap();
    }

    #[test]
    fn mem_backend_contract() {
        backend_contract(Box::new(MemBackend::new()));
    }

    #[test]
    fn file_backend_contract() {
        let dir = std::env::temp_dir().join(format!("subzero-kv-{}", std::process::id()));
        let path = dir.join("contract.kv");
        let _ = std::fs::remove_file(&path);
        backend_contract(Box::new(FileBackend::open(&path).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_reopen_recovers_index() {
        let dir = std::env::temp_dir().join(format!("subzero-kv-reopen-{}", std::process::id()));
        let path = dir.join("reopen.kv");
        let _ = std::fs::remove_file(&path);
        {
            let mut b = FileBackend::open(&path).unwrap();
            b.put(b"a", b"1");
            b.put(b"b", b"2");
            b.put(b"a", b"3"); // supersedes the first record
            b.flush().unwrap();
        }
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(b"a").as_deref(), Some(&b"3"[..]));
        assert_eq!(b.get(b"b").as_deref(), Some(&b"2"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_compact_folds_delta_chains() {
        let dir = std::env::temp_dir().join(format!("subzero-kv-compact-{}", std::process::id()));
        let path = dir.join("compact.kv");
        let _ = std::fs::remove_file(&path);
        let mut b = FileBackend::open(&path).unwrap();
        // Build delta chains: each merge_append supersedes the previous
        // record for the key, so the log accumulates garbage.
        for round in 0..8u8 {
            let delta = [round; 16];
            b.merge_append_batch(&[(b"chain-a", &delta[..]), (b"chain-b", &delta[..])]);
        }
        b.put(b"plain", b"value");
        b.sync().unwrap();
        let before = b.log_len().unwrap();
        let expected_a = b.get(b"chain-a").unwrap();
        let reclaimed = b.compact().unwrap();
        assert!(reclaimed > 0, "delta chains must free bytes");
        let after = b.log_len().unwrap();
        assert_eq!(after + reclaimed, before);
        assert_eq!(after, path.metadata().unwrap().len());
        // Contents survive, through the live handles and through a reopen.
        assert_eq!(b.get(b"chain-a").as_deref(), Some(&expected_a[..]));
        assert_eq!(b.get(b"plain").as_deref(), Some(&b"value"[..]));
        assert_eq!(b.len(), 3);
        // Appends after compaction land cleanly on the dense log.
        b.put(b"post", b"compact");
        b.flush().unwrap();
        drop(b);
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.len(), 4);
        assert_eq!(b.get(b"chain-a").as_deref(), Some(&expected_a[..]));
        assert_eq!(b.get(b"post").as_deref(), Some(&b"compact"[..]));
        // A second compaction over the (now dense + one live append) log
        // reclaims nothing and leaves the file alone.
        let mut b = b;
        assert_eq!(b.compact().unwrap(), 0);
        assert!(!path.with_extension("kv.compact").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_compact_of_a_garbage_free_log_does_no_io() {
        let dir =
            std::env::temp_dir().join(format!("subzero-kv-no-garbage-{}", std::process::id()));
        let path = dir.join("dense.kv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = FileBackend::open(&path).unwrap();
        b.put(b"single", b"put");
        b.write_group(
            &[(b"group-a", b"1"), (b"group-b", b"2")],
            &[(b"fresh", b"3")],
        );
        b.merge_append_batch(&[(b"new-key", b"4")]);
        b.flush().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // A directory where the staging file would go: any attempt to stage
        // a copy fails, so `Ok(0)` proves nothing was read or rewritten.
        let staging = path.with_extension("kv.compact");
        std::fs::create_dir(&staging).unwrap();
        assert_eq!(b.compact().unwrap(), 0);
        drop(b);
        let mut b = FileBackend::open(&path).unwrap();
        assert_eq!(b.compact().unwrap(), 0, "replay finds no garbage either");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // One superseded record and the count is no longer zero.
        b.put(b"single", b"again");
        std::fs::remove_dir(&staging).unwrap();
        assert_eq!(b.compact().unwrap(), record_len(6, 3));
        assert!(!staging.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_ignores_truncated_tail() {
        let dir = std::env::temp_dir().join(format!("subzero-kv-trunc-{}", std::process::id()));
        let path = dir.join("trunc.kv");
        let _ = std::fs::remove_file(&path);
        {
            let mut b = FileBackend::open(&path).unwrap();
            b.put(b"good", b"value");
            b.flush().unwrap();
        }
        // Simulate a crash mid-append by writing a partial record.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[5, 200]).unwrap();
        }
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(b"good").as_deref(), Some(&b"value"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_truncates_torn_tail_on_open() {
        let dir = std::env::temp_dir().join(format!("subzero-kv-torn-{}", std::process::id()));
        let path = dir.join("torn.kv");
        let _ = std::fs::remove_file(&path);
        {
            let mut b = FileBackend::open(&path).unwrap();
            b.put(b"good", b"value");
            b.flush().unwrap();
        }
        // A crash mid-append leaves a long torn record: a header promising
        // more bytes than the file holds.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[4, 40, b'x', b'x']).unwrap();
        }
        // Reopen (which must drop the torn tail) and append a record that is
        // *shorter* than the garbage was.
        {
            let mut b = FileBackend::open(&path).unwrap();
            assert_eq!(b.len(), 1);
            b.put(b"k", b"v");
            b.flush().unwrap();
        }
        // Without truncation the garbage bytes after the short record would
        // be rescanned as a bogus extra record here.
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(b"good").as_deref(), Some(&b"value"[..]));
        assert_eq!(b.get(b"k").as_deref(), Some(&b"v"[..]));
        let expected_bytes = 4 + 5 + 1 + 1;
        assert_eq!(b.bytes_used(), expected_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn put_batch_contract(mut b: Box<dyn KvBackend>) {
        b.put(b"seed", b"old");
        b.put_batch_slices(&[
            (b"k1", b"v1"),
            (b"seed", b"new"),
            (b"dup", b"first"),
            (b"dup", b"second"),
        ]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(b"k1").as_deref(), Some(&b"v1"[..]));
        assert_eq!(
            b.get(b"seed").as_deref(),
            Some(&b"new"[..]),
            "batch supersedes put"
        );
        assert_eq!(
            b.get(b"dup").as_deref(),
            Some(&b"second"[..]),
            "last in batch wins"
        );
        // Logical bytes count live records only, exactly as repeated put().
        let mut reference = MemBackend::new();
        for (k, v) in b.iter() {
            reference.put(&k, &v);
        }
        assert_eq!(b.bytes_used(), reference.bytes_used());
        b.flush().unwrap();
    }

    #[test]
    fn mem_backend_put_batch_contract() {
        put_batch_contract(Box::new(MemBackend::new()));
    }

    fn put_batch_slices_contract(mut b: Box<dyn KvBackend>) {
        // Arena views must behave exactly like any other batch: supersede
        // earlier puts, count live bytes only, group-flush.
        b.put(b"seed", b"old");
        let mut arena = crate::codec::Arena::new();
        let k1 = arena.push(b"k1");
        let v1 = arena.push(b"v1");
        let seed = arena.push(b"seed");
        let new = arena.push(b"new");
        b.put_batch_slices(&[
            (arena.get(k1), arena.get(v1)),
            (arena.get(seed), arena.get(new)),
        ]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(b"k1").as_deref(), Some(&b"v1"[..]));
        assert_eq!(b.get(b"seed").as_deref(), Some(&b"new"[..]));
        let mut reference = MemBackend::new();
        for (k, v) in b.iter() {
            reference.put(&k, &v);
        }
        assert_eq!(b.bytes_used(), reference.bytes_used());
    }

    #[test]
    fn mem_backend_put_batch_slices_contract() {
        put_batch_slices_contract(Box::new(MemBackend::new()));
    }

    #[test]
    fn file_backend_put_batch_slices_contract() {
        let dir = std::env::temp_dir().join(format!("subzero-kv-slices-{}", std::process::id()));
        let path = dir.join("slices.kv");
        let _ = std::fs::remove_file(&path);
        put_batch_slices_contract(Box::new(FileBackend::open(&path).unwrap()));
        // Slice-batched records survive reopen like any other log record.
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(b"seed").as_deref(), Some(&b"new"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_put_batch_contract() {
        let dir = std::env::temp_dir().join(format!("subzero-kv-batch-{}", std::process::id()));
        let path = dir.join("batch.kv");
        let _ = std::fs::remove_file(&path);
        put_batch_contract(Box::new(FileBackend::open(&path).unwrap()));
        // Batched records survive reopen like any other log record.
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(b"dup").as_deref(), Some(&b"second"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn merge_append_batch_contract(mut b: Box<dyn KvBackend>) {
        b.put(b"seed", b"old");
        b.flush().unwrap();
        b.merge_append_batch(&[(b"seed", b"+1"), (b"fresh", b"value")]);
        assert_eq!(
            b.get(b"seed").as_deref(),
            Some(&b"old+1"[..]),
            "append extends the stored value"
        );
        assert_eq!(
            b.get(b"fresh").as_deref(),
            Some(&b"value"[..]),
            "absent key takes the delta as its value"
        );
        // A second round keeps appending, and bytes_used matches a rebuilt
        // reference (live records only).
        b.merge_append_batch(&[(b"seed", b"+2")]);
        assert_eq!(b.get(b"seed").as_deref(), Some(&b"old+1+2"[..]));
        let mut reference = MemBackend::new();
        for (k, v) in b.iter() {
            reference.put(&k, &v);
        }
        assert_eq!(b.bytes_used(), reference.bytes_used());
    }

    #[test]
    fn mem_backend_merge_append_batch_contract() {
        merge_append_batch_contract(Box::new(MemBackend::new()));
    }

    #[test]
    fn file_backend_merge_append_batch_contract() {
        let dir = std::env::temp_dir().join(format!("subzero-kv-mab-{}", std::process::id()));
        let path = dir.join("mab.kv");
        let _ = std::fs::remove_file(&path);
        merge_append_batch_contract(Box::new(FileBackend::open(&path).unwrap()));
        // Merged records survive reopen (the log holds the full new value).
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.get(b"seed").as_deref(), Some(&b"old+1+2"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn write_group_contract(mut b: Box<dyn KvBackend>) {
        b.put(b"seed", b"old");
        // One call: two puts, then appends to a flushed-earlier key, to a key
        // put by this very call, to a fresh key, and to that key again.
        b.write_group(
            &[(b"k1", b"v1"), (b"seed", b"new")],
            &[
                (b"seed", b"+1"),
                (b"k1", b"+2"),
                (b"fresh", b"a"),
                (b"fresh", b"b"),
            ],
        );
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(b"seed").as_deref(), Some(&b"new+1"[..]));
        assert_eq!(b.get(b"k1").as_deref(), Some(&b"v1+2"[..]));
        assert_eq!(b.get(b"fresh").as_deref(), Some(&b"ab"[..]));
        b.write_group(&[], &[]);
        let mut reference = MemBackend::new();
        for (k, v) in b.iter() {
            reference.put(&k, &v);
        }
        assert_eq!(b.bytes_used(), reference.bytes_used());
    }

    #[test]
    fn mem_backend_write_group_contract() {
        write_group_contract(Box::new(MemBackend::new()));
    }

    #[test]
    fn file_backend_write_group_contract() {
        let dir = std::env::temp_dir().join(format!("subzero-kv-group-{}", std::process::id()));
        let path = dir.join("group.kv");
        let _ = std::fs::remove_file(&path);
        write_group_contract(Box::new(FileBackend::open(&path).unwrap()));
        let b = FileBackend::open(&path).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(b"k1").as_deref(), Some(&b"v1+2"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Drops the backend's mapping, so reads take the positioned-read
    /// fallback (the path of a target or log that cannot be mapped) until a
    /// write or flush maps the log again.
    fn unmap(b: &mut FileBackend) {
        b.map = None;
    }

    /// Every record `b` scans in blocks of `block`, sorted.
    fn scanned(b: &dyn KvBackend, block: usize) -> Vec<KvPair> {
        let mut seen: Vec<KvPair> = Vec::new();
        b.scan_slices(block, &mut |pairs| {
            assert!(
                pairs.len() <= block.max(1),
                "block overflow at size {block}"
            );
            seen.extend(pairs.iter().map(|&(k, v)| (k.to_vec(), v.to_vec())));
        });
        seen.sort();
        seen
    }

    /// [`scanned`] through positioned reads of `chunk` bytes.
    fn scanned_chunked(b: &FileBackend, chunk: usize, block: usize) -> Vec<KvPair> {
        let mut seen: Vec<KvPair> = Vec::new();
        b.scan_chunked(chunk, block, &mut |pairs| {
            seen.extend(pairs.iter().map(|&(k, v)| (k.to_vec(), v.to_vec())));
        });
        seen.sort();
        seen
    }

    #[test]
    #[should_panic(expected = "lineage log read")]
    fn file_backend_merge_append_fails_loudly_on_unreadable_old_value() {
        // A failed read of an indexed record must not quietly shrink it to
        // just the new delta.  Unmapped, so the old value has to come from
        // the file — which is cut off under the backend.  (Mapped, reading
        // the cut-off page would raise SIGBUS instead of failing the read.)
        let dir = std::env::temp_dir().join(format!("subzero-kv-lost-{}", std::process::id()));
        let path = dir.join("lost.kv");
        let _ = std::fs::remove_file(&path);
        let mut b = FileBackend::open(&path).unwrap();
        b.put_batch_slices(&[(b"cell", b"entry-ids")]);
        unmap(&mut b);
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(0)
            .unwrap();
        b.merge_append_batch(&[(b"cell", b"+1")]);
    }

    #[test]
    fn index_key_is_two_words_and_spills_past_the_inline_capacity() {
        assert_eq!(std::mem::size_of::<IndexKey>(), 16);
        let pattern: Vec<u8> = (1..=INLINE_KEY as u8 + 2).collect();
        for len in 0..=pattern.len() {
            assert_eq!(IndexKey::new(&pattern[..len]).as_slice(), &pattern[..len]);
        }
        let short = [7u8; INLINE_KEY];
        let long = [7u8; INLINE_KEY + 1];
        assert!(matches!(IndexKey::new(&short), IndexKey::Inline { .. }));
        assert!(matches!(
            IndexKey::new(&[]),
            IndexKey::Inline { len: 0, .. }
        ));
        assert!(matches!(IndexKey::new(&long), IndexKey::Heap(_)));
        // Both forms are found by plain byte-slice lookups, and a key is
        // never confused with its zero-padded extension.
        let mut b = MemBackend::new();
        b.put(&short, b"inline");
        b.put(&long, b"heap");
        b.put(&short[..3], b"prefix");
        assert_eq!(b.get(&short).as_deref(), Some(&b"inline"[..]));
        assert_eq!(b.get(&long).as_deref(), Some(&b"heap"[..]));
        assert_eq!(b.get(&[7, 7, 7]).as_deref(), Some(&b"prefix"[..]));
        assert_eq!(b.get(&[7, 7, 7, 0]), None);
    }

    fn scan_slices_contract(mut b: Box<dyn KvBackend>) {
        // Mix of group-written records, a superseded record and one
        // unflushed put.
        b.put_batch_slices(&[(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]);
        b.put_batch_slices(&[(b"b", b"22")]); // supersedes
        b.put(b"d", b"4"); // buffered, not yet flushed
        let expected: Vec<KvPair> = [("a", "1"), ("b", "22"), ("c", "3"), ("d", "4")]
            .iter()
            .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
            .collect();
        for block in [1usize, 2, 64] {
            let mut blocks = 0usize;
            b.scan_slices(block, &mut |_| blocks += 1);
            assert!(blocks >= expected.len().div_ceil(block));
            assert_eq!(scanned(&*b, block), expected, "block size {block}");
        }
        // After a flush the file backend scans its mapped log; results must
        // be identical.
        b.flush().unwrap();
        assert_eq!(scanned(&*b, 2), expected);
    }

    #[test]
    fn mem_backend_scan_slices_contract() {
        scan_slices_contract(Box::new(MemBackend::new()));
    }

    #[test]
    fn file_backend_scan_slices_contract() {
        let dir = std::env::temp_dir().join(format!("subzero-kv-scan-{}", std::process::id()));
        let path = dir.join("scan.kv");
        let _ = std::fs::remove_file(&path);
        scan_slices_contract(Box::new(FileBackend::open(&path).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_pread_scan_spans_chunk_boundaries() {
        // Values larger than the read chunk force the carry-buffer path:
        // records parse correctly across refills.
        let dir = std::env::temp_dir().join(format!("subzero-kv-scanbig-{}", std::process::id()));
        let path = dir.join("scanbig.kv");
        let _ = std::fs::remove_file(&path);
        let mut b = FileBackend::open(&path).unwrap();
        let items: Vec<KvPair> = (0..8u8).map(|i| (vec![i], vec![i; 100_000])).collect();
        let refs: Vec<KvRef> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        b.put_batch_slices(&refs);
        for chunk in [SCAN_CHUNK, 4096, 37] {
            assert_eq!(scanned_chunked(&b, chunk, 3), items, "scan chunk {chunk}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_mmap_and_pread_scans_are_identical() {
        // The same backend must serve identical scans and point reads from
        // its mapping and, with the mapping dropped, through positioned
        // reads.
        let dir = std::env::temp_dir().join(format!("subzero-kv-modes-{}", std::process::id()));
        let path = dir.join("modes.kv");
        let _ = std::fs::remove_file(&path);
        let mut b = FileBackend::open(&path).unwrap();
        let items: Vec<KvPair> = (0..257u32)
            .map(|i| {
                (
                    i.to_be_bytes().to_vec(),
                    vec![i as u8; 1 + (i as usize % 97)],
                )
            })
            .collect();
        let refs: Vec<KvRef> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        b.put_batch_slices(&refs);
        b.put_batch_slices(&[(&0u32.to_be_bytes(), b"superseded")]);
        let gets =
            |b: &FileBackend| [0u32, 7, 256, 257].map(|i| b.get(&i.to_be_bytes()).map(|v| (i, v)));

        let via_mmap = (scanned(&b, 13), gets(&b));
        unmap(&mut b);
        let via_pread = (scanned(&b, 13), gets(&b));
        assert_eq!(via_mmap, via_pread);
        assert_eq!(via_mmap.0.len(), 257);
        assert_eq!(via_mmap.0[0].1, b"superseded".to_vec());
        assert_eq!(via_mmap.1[0], Some((0, b"superseded".to_vec())));
        assert_eq!(via_mmap.1[2], Some((256, vec![0; 1 + 256 % 97])));
        assert_eq!(via_mmap.1[3], None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_positioned_reads_are_concurrent() {
        // The reader handle carries no cursor: unmapped point lookups and
        // full scans from many threads must all see consistent records.
        let dir = std::env::temp_dir().join(format!("subzero-kv-pread-{}", std::process::id()));
        let path = dir.join("pread.kv");
        let _ = std::fs::remove_file(&path);
        let mut b = FileBackend::open(&path).unwrap();
        let items: Vec<KvPair> = (0..64u32)
            .map(|i| (i.to_be_bytes().to_vec(), vec![i as u8; 100 + i as usize]))
            .collect();
        let refs: Vec<KvRef> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        b.put_batch_slices(&refs);
        unmap(&mut b);
        let b = &b;
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in (t..64u32).step_by(4) {
                        let got = b.get(&i.to_be_bytes()).expect("key present");
                        assert_eq!(got, vec![i as u8; 100 + i as usize]);
                    }
                    assert_eq!(scanned(b, 7).len(), 64);
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// [`next_record`] without its one-byte fast path: both lengths through
    /// [`read_varint`].
    fn next_record_by_varint<'b>(buf: &'b [u8], pos: &mut usize) -> Option<(&'b [u8], &'b [u8])> {
        let mut at = *pos;
        let klen = usize::try_from(read_varint(buf, &mut at).ok()?).ok()?;
        let vlen = usize::try_from(read_varint(buf, &mut at).ok()?).ok()?;
        let end = at.checked_add(klen)?.checked_add(vlen)?;
        if end > buf.len() {
            return None;
        }
        *pos = end;
        Some((&buf[at..at + klen], &buf[at + klen..end]))
    }

    #[test]
    fn record_header_fast_path_accepts_and_rejects_what_varints_do() {
        // Every two-byte header, over tails cut on either side of the
        // lengths it may name, and multi-byte, overlong, overflowing and
        // truncated lengths.
        let check = |buf: &[u8]| {
            for start in 0..buf.len().min(2) + 1 {
                let (mut fast, mut reference) = (start, start);
                assert_eq!(
                    next_record(buf, &mut fast),
                    next_record_by_varint(buf, &mut reference),
                    "{buf:02x?} from {start}"
                );
                assert_eq!(fast, reference, "{buf:02x?} from {start}");
            }
        };
        check(&[]);
        check(&[0x80, 0x00, 0x01, 0xaa]);
        check(&[0x81, 0x80, 0x00, 0x00]);
        check(&[0xff; 12]);
        check(&[0x80; 11]);
        check(&[
            0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0, 0,
        ]);
        let tail: Vec<u8> = (0..400u32).map(|i| (i * 37 + 1) as u8).collect();
        let mut buf = Vec::new();
        for cut in [0, 1, 2, 127, 128, 129, 255, 400] {
            for header in 0..=u16::MAX {
                buf.clear();
                buf.extend_from_slice(&header.to_be_bytes());
                buf.extend_from_slice(&tail[..cut]);
                check(&buf);
            }
        }
    }

    /// A key of the positioned-read model: the id picks the fill byte and a
    /// length on either side of the inline-key capacity.
    fn model_key(id: u8) -> Vec<u8> {
        vec![id; 1 + 3 * id as usize]
    }

    proptest! {
        #[test]
        fn pread_reads_match_mapped_reads(
            // Random logs of single puts, group puts, group writes and
            // appends, with superseded records, one reopen, and writes made
            // unmapped so appends read the values they extend through
            // positioned reads.
            ops in prop::collection::vec(
                (0u8..4, prop::collection::vec((0u8..12, prop::collection::vec(any::<u8>(), 0..24)), 0..6)),
                1..24,
            ),
            reopen_at in 0usize..24,
            chunk in 1usize..17,
        ) {
            let dir = std::env::temp_dir()
                .join(format!("subzero-kv-pread-model-{}", std::process::id()));
            let path = dir.join("model.kv");
            let _ = std::fs::remove_file(&path);
            let mut b = FileBackend::open(&path).unwrap();
            let mut model: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
            let mut expected: Vec<KvPair> = Vec::new();
            for (step, (kind, raw)) in ops.iter().enumerate() {
                if step == reopen_at {
                    b.flush().unwrap();
                    drop(b);
                    b = FileBackend::open(&path).unwrap();
                }
                let items: Vec<(Vec<u8>, &[u8])> = raw
                    .iter()
                    .map(|(id, bytes)| (model_key(*id), bytes.as_slice()))
                    .collect();
                let refs: Vec<KvRef> = items.iter().map(|(k, v)| (&k[..], *v)).collect();
                let (puts, appends) = match kind {
                    0 => (&refs[..refs.len().min(1)], &[][..]),
                    1 => (&refs[..], &[][..]),
                    2 => refs.split_at(refs.len() / 2),
                    _ => (&[][..], &refs[..]),
                };
                unmap(&mut b);
                if *kind == 0 {
                    // One record, left pending until the flush maps it.
                    for &(k, v) in puts {
                        b.put(k, v);
                    }
                    b.flush().unwrap();
                } else {
                    b.write_group(puts, appends);
                }
                for &(k, v) in puts {
                    model.insert(k.to_vec(), v.to_vec());
                }
                for &(k, v) in appends {
                    model.entry(k.to_vec()).or_default().extend_from_slice(v);
                }
                // The write mapped the log again: mapped reads against the
                // model, then the same reads unmapped.  Superseded records
                // written since the last sort must be skipped either way.
                expected = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                let gets = |b: &FileBackend| (0..13).map(|id| b.get(&model_key(id))).collect::<Vec<_>>();
                let mapped = gets(&b);
                prop_assert_eq!(&mapped, &(0..13).map(|id| model.get(&model_key(id)).cloned()).collect::<Vec<_>>());
                prop_assert_eq!(&scanned(&b, 5), &expected);
                unmap(&mut b);
                prop_assert_eq!(&gets(&b), &mapped);
                prop_assert_eq!(&scanned(&b, 5), &expected);
                prop_assert_eq!(&scanned_chunked(&b, chunk, 5), &expected);
            }
            for chunk in 1..=16 {
                prop_assert_eq!(&scanned_chunked(&b, chunk, 3), &expected);
            }
            drop(b);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn sanitize_keeps_clean_names_and_disambiguates_dirty_ones() {
        // Already-clean names keep their verbatim stem (on-disk layouts
        // from before the hash suffix stay readable).
        assert_eq!(sanitize_name("run-a_1"), "run-a_1");
        assert_eq!(
            sanitize_name("run3_op7_full_one_bwd"),
            "run3_op7_full_one_bwd"
        );
        // Dirty names get the character replacement plus a raw-name hash,
        // and the mapping is deterministic.
        let dirty = sanitize_name("a/b c.d");
        assert!(dirty.starts_with("a_b_c_d-"), "{dirty}");
        assert!(dirty
            .bytes()
            .all(|b| { b.is_ascii_alphanumeric() || b == b'-' || b == b'_' }));
        assert_eq!(dirty, sanitize_name("a/b c.d"));
    }
}
