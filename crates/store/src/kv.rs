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
//! * [`Database`] — one named store instance (≈ one BerkeleyDB database).
//! * [`StoreManager`] — allocates a database per operator/strategy and tracks
//!   aggregate storage statistics, which the benchmarks report as the "disk
//!   cost" of a lineage strategy.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::{BuildHasher, Hash, Hasher};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::{read_varint, write_varint};
use crate::hash::FxHashMap;
use crate::mmap::MmapRegion;

/// One owned `(key, value)` record, as stored and scanned.
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

/// How [`FileBackend`] physically serves full scans and point reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Serve reads zero-copy from a read-only memory mapping of the flushed
    /// log prefix (the default on unix).  Concurrent scans, fanned-out query
    /// shards and point lookups all share one mapping — and therefore one
    /// copy of the page cache — instead of issuing per-record positioned
    /// reads.
    Mmap,
    /// Positioned-read (`pread`) fallback: scans fetch the log in large
    /// block-batched chunks through the shared cursor-less reader handle.
    /// Selected automatically where mmap is unavailable or refused, at
    /// compile time by the `pread-scan` feature, or at runtime via
    /// `SUBZERO_SCAN_MODE=pread`.
    Pread,
}

impl ScanMode {
    /// Mode a fresh backend starts in: the `pread-scan` feature and non-unix
    /// targets force [`ScanMode::Pread`]; otherwise `SUBZERO_SCAN_MODE`
    /// (`mmap`/`pread`) decides, defaulting to [`ScanMode::Mmap`].
    fn default_mode() -> ScanMode {
        if cfg!(feature = "pread-scan") || !cfg!(unix) {
            return ScanMode::Pread;
        }
        match std::env::var("SUBZERO_SCAN_MODE").as_deref() {
            Ok("pread") => ScanMode::Pread,
            _ => ScanMode::Mmap,
        }
    }
}

/// Default sequential-read chunk for [`ScanMode::Pread`] scans.
const DEFAULT_SCAN_CHUNK: usize = 256 * 1024;

/// Chunk size a fresh backend starts with: `SUBZERO_SCAN_CHUNK` (bytes)
/// overrides the 256 KiB default.
fn default_scan_chunk() -> usize {
    std::env::var("SUBZERO_SCAN_CHUNK")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(DEFAULT_SCAN_CHUNK, |v| v.max(1))
}

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

    /// Inserts or replaces many pairs with one group flush at the end.
    ///
    /// Backends take ownership of the keys and values, so batched writers
    /// avoid the per-record copies of repeated [`put`](KvBackend::put) calls;
    /// the file backend additionally serialises the whole batch into a single
    /// log write.  Later entries win when a key repeats within the batch.
    fn put_batch(&mut self, items: Vec<(Vec<u8>, Vec<u8>)>) {
        for (key, value) in &items {
            self.put(key, value);
        }
        self.flush().expect("group flush");
    }

    /// Inserts or replaces many pairs given as borrowed slices — views into
    /// an encode [`Arena`](crate::codec::Arena) — with one group flush at the
    /// end.
    ///
    /// This is the zero-copy counterpart of [`put_batch`](KvBackend::put_batch):
    /// batched writers that serialise a whole batch into one contiguous
    /// buffer hand the slices straight through, and the file backend
    /// serialises them into a single log append without any intermediate
    /// owned records.  Later entries win when a key repeats within the batch.
    fn put_batch_slices(&mut self, items: &[(&[u8], &[u8])]) {
        for &(key, value) in items {
            self.put(key, value);
        }
        self.flush().expect("group flush");
    }

    /// Appends bytes to the values of many records with one group flush: for
    /// each `(key, append)` item the stored value becomes `old ++ append`
    /// (or just `append` for a previously absent key).
    ///
    /// This is the flush half of write-side key dedup: batched writers stage
    /// append-only deltas per *distinct* key and apply them all at once, so
    /// the backing table is probed once per key instead of the
    /// read-clone-modify-write of per-record merges.  Items apply in order,
    /// so a key repeated within one call accumulates its appends (the dedup
    /// table never repeats one).
    fn merge_append_batch(&mut self, items: &[(&[u8], &[u8])]) {
        for &(key, append) in items {
            let mut value = self.get(key).unwrap_or_default();
            value.extend_from_slice(append);
            self.put(key, &value);
        }
        self.flush().expect("group flush");
    }

    /// Applies one ingest batch as a single group write: `puts` as by
    /// [`put_batch_slices`](KvBackend::put_batch_slices), then `appends` as
    /// by [`merge_append_batch`](KvBackend::merge_append_batch) (an append
    /// to a key the same call put extends the put value).  The file backend
    /// serialises both halves into one buffer — one log write, one remap.
    fn write_group(&mut self, puts: &[(&[u8], &[u8])], appends: &[(&[u8], &[u8])]) {
        self.put_batch_slices(puts);
        self.merge_append_batch(appends);
    }

    /// Streams every live `(key, value)` pair through `visit` in blocks of up
    /// to `block` records (order unspecified, each live key exactly once).
    ///
    /// This is the vectorised counterpart of [`iter`](KvBackend::iter): full
    /// scans hand the consumer whole decode blocks instead of one record at a
    /// time, and backends may exploit their physical layout — the file
    /// backend reads the `put_batch`-laid-out log sequentially in large
    /// chunks rather than issuing one seek per key.
    fn scan_batch(&self, block: usize, visit: &mut dyn FnMut(&[KvPair])) {
        scan_blocks(self.iter(), block, visit);
    }

    /// Streams every live `(key, value)` pair through `visit` as blocks of
    /// *borrowed* slices — the zero-copy counterpart of
    /// [`scan_batch`](KvBackend::scan_batch).
    ///
    /// The slices are only valid for the duration of each `visit` call;
    /// consumers decode out of them in place (into a columnar
    /// [`ScanFrame`](crate::codec::ScanFrame)) instead of taking ownership.
    /// The file backend serves the slices straight from its mapped log
    /// region, the memory backend from its table — neither allocates per
    /// record.  The default implementation adapts [`iter`](KvBackend::iter)
    /// and does copy; backends with a physical layout override it.
    fn scan_slices(&self, block: usize, visit: &mut dyn FnMut(&[KvRef])) {
        scan_blocks(self.iter(), block, &mut |pairs: &[KvPair]| {
            let refs: Vec<(&[u8], &[u8])> = pairs
                .iter()
                .map(|(k, v)| (k.as_slice(), v.as_slice()))
                .collect();
            visit(&refs);
        });
    }
}

/// Shared body of the iterator-driven [`KvBackend::scan_batch`] path:
/// groups `iter`'s records into blocks of up to `block` and hands each
/// block to `visit`.
fn scan_blocks(iter: impl Iterator<Item = KvPair>, block: usize, visit: &mut dyn FnMut(&[KvPair])) {
    let block = block.max(1);
    let mut buf: Vec<KvPair> = Vec::with_capacity(block);
    for pair in iter {
        buf.push(pair);
        if buf.len() == block {
            visit(&buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        visit(&buf);
    }
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

    fn put_batch(&mut self, items: Vec<(Vec<u8>, Vec<u8>)>) {
        self.map.reserve(items.len());
        for (key, value) in items {
            // Move the owned value straight into the table — the batch
            // path's win over repeated `put` calls is skipping that copy.
            self.insert(&key, value);
        }
    }

    fn put_batch_slices(&mut self, items: &[(&[u8], &[u8])]) {
        // The table must own its values, so each slice is copied exactly
        // once, straight into its final allocation — the arena writer never
        // allocated per-record buffers to move from.
        self.map.reserve(items.len());
        for &(key, value) in items {
            self.insert(key, value.to_vec());
        }
    }

    fn merge_append_batch(&mut self, items: &[(&[u8], &[u8])]) {
        // One probe per key, no value clone: hits extend the stored value in
        // place, misses insert the delta as the whole value.  Reserving up
        // front keeps the whole group write out of rehash growth.
        self.map.reserve(items.len());
        for &(key, append) in items {
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
        let block = block.max(1);
        let mut refs: Vec<(&[u8], &[u8])> = Vec::with_capacity(block);
        for (k, v) in &self.map {
            refs.push((k.as_slice(), v.as_slice()));
            if refs.len() == block {
                visit(&refs);
                refs.clear();
            }
        }
        if !refs.is_empty() {
            visit(&refs);
        }
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
    let klen = usize::try_from(read_varint(buf, &mut at).ok()?).ok()?;
    let vlen = usize::try_from(read_varint(buf, &mut at).ok()?).ok()?;
    let value_at = at.checked_add(klen)?;
    let end = value_at.checked_add(vlen)?;
    if end > buf.len() {
        return None;
    }
    *pos = end;
    Some((&buf[at..value_at], &buf[value_at..end]))
}

/// Appends a record's `[key_len][value_len][key]` prefix to `buf`.
fn write_record_prefix(buf: &mut Vec<u8>, key: &[u8], value_len: usize) {
    write_varint(buf, key.len() as u64);
    write_varint(buf, value_len as u64);
    buf.extend_from_slice(key);
}

/// Points `key` at a freshly appended value, keeping the live-byte count.
fn index_put(index: &mut LogIndex, live_bytes: &mut usize, key: &[u8], off: u64, len: usize) {
    *live_bytes += len;
    match index.insert(IndexKey::new(key), (off, len as u32)) {
        Some((_, old_len)) => *live_bytes -= old_len as usize,
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
    /// All reads go through positioned I/O (`read_at`/`seek_read`), so the
    /// handle carries no cursor state and concurrent readers — fanned-out
    /// lookup shards, capture flusher threads — never serialise on a lock.
    reader: File,
    /// key -> (offset of the value bytes, value length)
    index: LogIndex,
    /// Values written since the last flush; served from memory because the
    /// buffered writer may not have reached the file yet.
    pending: FxHashMap<IndexKey, Vec<u8>>,
    /// Logical bytes (live keys + values).
    live_bytes: usize,
    /// Next append offset.
    write_offset: u64,
    /// Read-only mapping of the flushed log prefix, refreshed after every
    /// group flush (`&mut self` paths only, so readers never race a remap —
    /// writer exclusivity is the backend's concurrency contract).  `None`
    /// when empty, unavailable on this target, or in [`ScanMode::Pread`].
    map: Option<MmapRegion>,
    /// How scans and point reads are served; see [`ScanMode`].
    scan_mode: ScanMode,
    /// Sequential-read chunk size for [`ScanMode::Pread`] scans.
    scan_chunk: usize,
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
        let mut live_bytes = 0usize;
        let mut pos = 0usize;
        while let Some((key, value)) = next_record(&existing, &mut pos) {
            let value_off = (pos - value.len()) as u64;
            index_put(&mut index, &mut live_bytes, key, value_off, value.len());
        }
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
            write_offset,
            map: None,
            scan_mode: ScanMode::default_mode(),
            scan_chunk: default_scan_chunk(),
        };
        backend.remap();
        Ok(backend)
    }

    /// Path of the backing log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current [`ScanMode`].
    pub fn scan_mode(&self) -> ScanMode {
        self.scan_mode
    }

    /// Switches between the mmap and pread read paths (tests use this to
    /// prove both serve identical results).  Entering [`ScanMode::Mmap`]
    /// maps the flushed prefix immediately; leaving it drops the mapping.
    pub fn set_scan_mode(&mut self, mode: ScanMode) {
        self.scan_mode = mode;
        self.remap();
    }

    /// Sequential-read chunk size used by [`ScanMode::Pread`] scans.
    pub fn scan_chunk(&self) -> usize {
        self.scan_chunk
    }

    /// Tunes the pread scan chunk (clamped to ≥ 1 byte; the default is
    /// 256 KiB, overridable per process with `SUBZERO_SCAN_CHUNK`).
    pub fn set_scan_chunk(&mut self, bytes: usize) {
        self.scan_chunk = bytes.max(1);
    }

    /// Refreshes the mapped region to cover exactly the flushed log prefix.
    /// Called from `&mut self` write paths only (open / flush / group
    /// writes), so no reader can hold a view of the old region — writer
    /// exclusivity is what makes dropping it sound.  Mapping failure simply
    /// leaves `map` unset and reads fall back to positioned I/O.
    fn remap(&mut self) {
        if self.scan_mode != ScanMode::Mmap {
            self.map = None;
            return;
        }
        let covered = self.map.as_ref().map_or(0, |m| m.len() as u64);
        if covered != self.write_offset {
            self.map = MmapRegion::map(&self.reader, self.write_offset);
        }
    }

    /// Whether the record whose value sits at `value_off` is the live one for
    /// `key` (not superseded by a later append).
    fn is_live(&self, key: &[u8], value_off: u64, value_len: usize) -> bool {
        self.index
            .get(key)
            .is_some_and(|&(off, len)| off == value_off && len as usize == value_len)
    }

    /// Parses every *complete* record in `buf` (whose first byte sits at
    /// absolute log offset `base`), emitting live records as blocks of
    /// borrowed `(key, value)` slices; superseded records are dropped by
    /// checking each parsed value position against the live index.  Returns
    /// the number of bytes consumed (everything up to the first incomplete
    /// trailing record).
    fn emit_live_records<'b>(
        &self,
        buf: &'b [u8],
        base: u64,
        block: usize,
        visit: &mut dyn FnMut(&[KvRef]),
    ) -> usize {
        let mut refs: Vec<(&'b [u8], &'b [u8])> = Vec::with_capacity(block);
        let mut pos = 0usize;
        while let Some((key, value)) = next_record(buf, &mut pos) {
            if self.is_live(key, base + (pos - value.len()) as u64, value.len()) {
                refs.push((key, value));
                if refs.len() == block {
                    visit(&refs);
                    refs.clear();
                }
            }
        }
        if !refs.is_empty() {
            visit(&refs);
        }
        pos
    }
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
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.pending.clear();
        self.writer.get_ref().sync_data()?;
        self.remap();
        Ok(())
    }

    fn log_len(&self) -> Option<u64> {
        Some(self.write_offset)
    }

    fn compact(&mut self) -> io::Result<u64> {
        self.writer.flush()?;
        self.pending.clear();
        let old_len = self.write_offset;
        if self.index.is_empty() && old_len == 0 {
            return Ok(0);
        }
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
        loop {
            let record_start = pos;
            let Some((key, value)) = next_record(&raw, &mut pos) else {
                break;
            };
            if self.is_live(key, (pos - value.len()) as u64, value.len()) {
                dense.write_all(&raw[record_start..pos])?;
                new_offset += (pos - record_start) as u64;
                let loc = (new_offset - value.len() as u64, value.len() as u32);
                new_index.insert(IndexKey::new(key), loc);
            }
        }
        dense.flush()?;
        let staging = dense.into_inner().map_err(|e| e.into_error())?;
        staging.sync_data()?;
        if new_offset == old_len {
            // Nothing superseded: keep the original log untouched.
            drop(staging);
            std::fs::remove_file(&staging_path)?;
            return Ok(0);
        }
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

    fn put_batch(&mut self, items: Vec<(Vec<u8>, Vec<u8>)>) {
        let slices: Vec<(&[u8], &[u8])> = items
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        self.put_batch_slices(&slices);
    }

    fn put_batch_slices(&mut self, items: &[(&[u8], &[u8])]) {
        self.write_group(items, &[]);
    }

    fn merge_append_batch(&mut self, items: &[(&[u8], &[u8])]) {
        self.write_group(&[], items);
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

    /// Owned-pair scan: a thin adapter over [`KvBackend::scan_slices`] that copies each
    /// block into a scratch buffer whose `(key, value)` allocations are
    /// reused across blocks (and only ever grow), so a whole-log scan costs
    /// at most one allocation per scratch slot rather than two per record.
    fn scan_batch(&self, block: usize, visit: &mut dyn FnMut(&[KvPair])) {
        let mut scratch: Vec<KvPair> = Vec::new();
        self.scan_slices(block, &mut |pairs| {
            for (i, &(key, value)) in pairs.iter().enumerate() {
                if i < scratch.len() {
                    let (k, v) = &mut scratch[i];
                    k.clear();
                    k.extend_from_slice(key);
                    v.clear();
                    v.extend_from_slice(value);
                } else {
                    scratch.push((key.to_vec(), value.to_vec()));
                }
            }
            visit(&scratch[..pairs.len()]);
        });
    }

    /// Scans the log zero-copy.  In [`ScanMode::Mmap`] the whole flushed
    /// prefix is one mapped slice and blocks borrow straight from the page
    /// cache; in [`ScanMode::Pread`] (or when the prefix could not be
    /// mapped) the log is fetched *sequentially* in large tunable chunks and
    /// blocks borrow from the carry buffer for the duration of each `visit`.
    /// Either way record parsing rides the `put_batch` layout (batched
    /// records are physically contiguous) and superseded records are skipped
    /// via the live index.
    fn scan_slices(&self, block: usize, visit: &mut dyn FnMut(&[KvRef])) {
        let block = block.max(1);
        if !self.pending.is_empty() {
            // Unflushed one-at-a-time puts may not have reached the file yet;
            // fall back to the index-driven scan, which serves them.
            scan_blocks(self.iter(), block, &mut |pairs: &[KvPair]| {
                let refs: Vec<(&[u8], &[u8])> = pairs
                    .iter()
                    .map(|(k, v)| (k.as_slice(), v.as_slice()))
                    .collect();
                visit(&refs);
            });
            return;
        }
        if let Some(map) = &self.map {
            if map.len() as u64 == self.write_offset {
                // Zero-copy fast path: every record lives in the mapping.
                self.emit_live_records(map.as_slice(), 0, block, visit);
                return;
            }
        }
        let mut chunk = vec![0u8; self.scan_chunk];
        let mut carry: Vec<u8> = Vec::new();
        let mut remaining = self.write_offset;
        let mut read_pos = 0u64; // absolute log offset of the next chunk read
        let mut file_pos = 0u64; // absolute log offset of carry[0]
        loop {
            if remaining > 0 {
                let want = remaining.min(chunk.len() as u64) as usize;
                // Positioned read: the scan tracks its own offset, so
                // concurrent point lookups through the same handle are
                // unaffected.  A truncated scan would silently drop lineage
                // from query answers; like the other log I/O in this
                // backend, treat failures as fatal.
                read_exact_at(&self.reader, &mut chunk[..want], read_pos)
                    .expect("lineage log scan read");
                read_pos += want as u64;
                remaining -= want as u64;
                carry.extend_from_slice(&chunk[..want]);
            }
            // Parse and emit every complete record in the carry buffer; the
            // borrowed blocks are handed out before the drain invalidates
            // them (a block may come up short at a chunk boundary).
            let consumed = self.emit_live_records(&carry, file_pos, block, visit);
            carry.drain(..consumed);
            file_pos += consumed as u64;
            if remaining == 0 {
                break;
            }
        }
    }
}

/// A single named key-value database (≈ one BerkeleyDB hashtable instance).
pub struct Database {
    name: String,
    backend: Box<dyn KvBackend>,
    puts: u64,
    gets: u64,
}

impl Database {
    /// Wraps a backend under a name.
    pub fn new(name: impl Into<String>, backend: Box<dyn KvBackend>) -> Self {
        Database {
            name: name.into(),
            backend,
            puts: 0,
            gets: 0,
        }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inserts or replaces a value.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        self.puts += 1;
        self.backend.put(key, value);
    }

    /// Inserts or replaces many pairs with one group flush at the end (see
    /// [`KvBackend::put_batch`]).
    pub fn put_batch(&mut self, items: Vec<(Vec<u8>, Vec<u8>)>) {
        self.puts += items.len() as u64;
        self.backend.put_batch(items);
    }

    /// Inserts or replaces many pairs given as borrowed slices (arena views)
    /// with one group flush at the end (see [`KvBackend::put_batch_slices`]).
    pub fn put_batch_slices(&mut self, items: &[(&[u8], &[u8])]) {
        self.puts += items.len() as u64;
        self.backend.put_batch_slices(items);
    }

    /// Appends bytes to the values of many records with one group flush (the
    /// flush half of write-side key dedup; see
    /// [`KvBackend::merge_append_batch`]).
    pub fn merge_append_batch(&mut self, items: &[(&[u8], &[u8])]) {
        self.puts += items.len() as u64;
        self.backend.merge_append_batch(items);
    }

    /// Applies `puts` then `appends` as one group write (a whole ingest
    /// batch; see [`KvBackend::write_group`]).
    pub fn write_group(&mut self, puts: &[(&[u8], &[u8])], appends: &[(&[u8], &[u8])]) {
        self.puts += (puts.len() + appends.len()) as u64;
        self.backend.write_group(puts, appends);
    }

    /// Fetches a value.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.gets += 1;
        self.backend.get(key)
    }

    /// Fetches a value without recording an access (used by iterators and
    /// statistics).
    pub fn peek(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.backend.get(key)
    }

    /// [`peek`](Database::peek) into a reused buffer (see
    /// [`KvBackend::get_into`]): `out` holds the value when this returns
    /// `true` and is empty otherwise.
    pub fn peek_into(&self, key: &[u8], out: &mut Vec<u8>) -> bool {
        self.backend.get_into(key, out)
    }

    /// Reads the current value of `key`, applies `merge` to it (or to `None`)
    /// and stores the result.  This is the "on a key collision, decode, merge
    /// and re-encode" path of the paper's runtime.
    pub fn merge(&mut self, key: &[u8], merge: impl FnOnce(Option<Vec<u8>>) -> Vec<u8>) {
        let existing = self.backend.get(key);
        let merged = merge(existing);
        self.put(key, &merged);
    }

    /// Whether `key` exists.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.backend.contains(key)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.backend.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.backend.is_empty()
    }

    /// Iterates over all `(key, value)` pairs.
    pub fn iter(&self) -> Box<dyn Iterator<Item = (Vec<u8>, Vec<u8>)> + '_> {
        self.backend.iter()
    }

    /// Streams every `(key, value)` pair through `visit` in blocks of up to
    /// `block` records (see [`KvBackend::scan_batch`]); full scans should
    /// prefer this over [`iter`](Database::iter) so the backend can use its
    /// physical layout.
    pub fn scan_batch(&self, block: usize, visit: &mut dyn FnMut(&[KvPair])) {
        self.backend.scan_batch(block, visit);
    }

    /// Streams every `(key, value)` pair through `visit` as blocks of
    /// borrowed slices, zero-copy where the backend's layout allows it (see
    /// [`KvBackend::scan_slices`]); the slices are valid only during each
    /// `visit` call.
    pub fn scan_slices(&self, block: usize, visit: &mut dyn FnMut(&[KvRef])) {
        self.backend.scan_slices(block, visit);
    }

    /// Logical bytes stored.
    pub fn bytes_used(&self) -> usize {
        self.backend.bytes_used()
    }

    /// Flushes buffered writes.
    pub fn flush(&mut self) -> io::Result<()> {
        self.backend.flush()
    }

    /// Forces flushed bytes to stable storage (see [`KvBackend::sync`]).
    pub fn sync(&mut self) -> io::Result<()> {
        self.backend.sync()
    }

    /// Flushed log length for persistent backends (see
    /// [`KvBackend::log_len`]).
    pub fn log_len(&self) -> Option<u64> {
        self.backend.log_len()
    }

    /// Folds superseded records out of the log, returning bytes reclaimed
    /// (see [`KvBackend::compact`]).
    pub fn compact(&mut self) -> io::Result<u64> {
        self.backend.compact()
    }

    /// Path of the backing file for persistent backends, `None` for memory
    /// (see [`KvBackend::file_path`]).
    pub fn file_path(&self) -> Option<&Path> {
        self.backend.file_path()
    }

    /// Fingerprint of the flushed contents for sidecar validation (see
    /// [`KvBackend::persist_stamp`]).
    pub fn persist_stamp(&self) -> u64 {
        self.backend.persist_stamp()
    }

    /// Access statistics `(puts, gets)`.
    pub fn access_stats(&self) -> (u64, u64) {
        (self.puts, self.gets)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("name", &self.name)
            .field("len", &self.backend.len())
            .field("bytes", &self.backend.bytes_used())
            .finish()
    }
}

/// Aggregate statistics over every database owned by a [`StoreManager`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of databases allocated.
    pub databases: usize,
    /// Total live keys across databases.
    pub entries: usize,
    /// Total logical bytes across databases.
    pub bytes: usize,
}

/// Allocates and owns one [`Database`] per operator/strategy instance.
///
/// If constructed with [`StoreManager::on_disk`], databases persist to
/// append-only files under the given directory; otherwise they live in
/// memory.  Either way the interface is identical, so the lineage runtime
/// does not care which mode the benchmark harness selects.
pub struct StoreManager {
    dir: Option<PathBuf>,
    databases: HashMap<String, Database>,
}

impl StoreManager {
    /// A manager whose databases live purely in memory.
    pub fn in_memory() -> Self {
        StoreManager {
            dir: None,
            databases: HashMap::new(),
        }
    }

    /// A manager whose databases persist under `dir` (one file per database).
    pub fn on_disk(dir: impl Into<PathBuf>) -> Self {
        StoreManager {
            dir: Some(dir.into()),
            databases: HashMap::new(),
        }
    }

    /// Returns the database named `name`, creating it if needed.
    pub fn database(&mut self, name: &str) -> &mut Database {
        if !self.databases.contains_key(name) {
            let backend: Box<dyn KvBackend> = match &self.dir {
                None => Box::new(MemBackend::new()),
                Some(dir) => {
                    let file = dir.join(format!("{}.kv", sanitize_filename(name)));
                    Box::new(FileBackend::open(&file).expect("open lineage database file"))
                }
            };
            self.databases
                .insert(name.to_string(), Database::new(name, backend));
        }
        self.databases
            .get_mut(name)
            .expect("database just inserted")
    }

    /// Returns the database named `name` if it already exists.
    pub fn existing(&self, name: &str) -> Option<&Database> {
        self.databases.get(name)
    }

    /// Returns a mutable reference to an existing database.
    pub fn existing_mut(&mut self, name: &str) -> Option<&mut Database> {
        self.databases.get_mut(name)
    }

    /// Whether a database named `name` has been created.
    pub fn has(&self, name: &str) -> bool {
        self.databases.contains_key(name)
    }

    /// Drops a database (its file, if any, is left on disk; callers that want
    /// to reclaim the space can remove the directory).
    pub fn drop_database(&mut self, name: &str) {
        self.databases.remove(name);
    }

    /// Names of all allocated databases.
    pub fn names(&self) -> Vec<&str> {
        self.databases.keys().map(|s| s.as_str()).collect()
    }

    /// Aggregate statistics across every database.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats {
            databases: self.databases.len(),
            ..Default::default()
        };
        for db in self.databases.values() {
            s.entries += db.len();
            s.bytes += db.bytes_used();
        }
        s
    }

    /// Total logical bytes stored across databases.
    pub fn total_bytes(&self) -> usize {
        self.stats().bytes
    }

    /// Flushes every database.
    pub fn flush_all(&mut self) -> io::Result<()> {
        for db in self.databases.values_mut() {
            db.flush()?;
        }
        Ok(())
    }
}

impl Default for StoreManager {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl std::fmt::Debug for StoreManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreManager")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

fn sanitize_filename(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        b.put_batch(vec![
            (b"k1".to_vec(), b"v1".to_vec()),
            (b"seed".to_vec(), b"new".to_vec()),
            (b"dup".to_vec(), b"first".to_vec()),
            (b"dup".to_vec(), b"second".to_vec()),
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
        // The zero-copy slice path must behave exactly like put_batch:
        // supersede earlier puts, count live bytes only, group-flush.
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

    #[test]
    #[should_panic(expected = "lineage log read")]
    fn file_backend_merge_append_fails_loudly_on_unreadable_old_value() {
        // A failed read of an indexed record must not quietly shrink it to
        // just the new delta.  Pread mode, so the old value has to come from
        // the file — which is cut off under the backend.
        let dir = std::env::temp_dir().join(format!("subzero-kv-lost-{}", std::process::id()));
        let path = dir.join("lost.kv");
        let _ = std::fs::remove_file(&path);
        let mut b = FileBackend::open(&path).unwrap();
        b.set_scan_mode(ScanMode::Pread);
        b.put_batch_slices(&[(b"cell", b"entry-ids")]);
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

    fn scan_batch_contract(mut b: Box<dyn KvBackend>) {
        // Mix of batched records, superseded records and one unflushed put.
        b.put_batch(vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), b"2".to_vec()),
            (b"c".to_vec(), b"3".to_vec()),
        ]);
        b.put_batch(vec![(b"b".to_vec(), b"22".to_vec())]); // supersedes
        b.put(b"d", b"4"); // buffered, not yet flushed

        for block in [1usize, 2, 64] {
            let mut seen: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            let mut blocks = 0usize;
            b.scan_batch(block, &mut |pairs| {
                blocks += 1;
                assert!(pairs.len() <= block, "block overflow at size {block}");
                seen.extend_from_slice(pairs);
            });
            seen.sort();
            assert_eq!(
                seen,
                vec![
                    (b"a".to_vec(), b"1".to_vec()),
                    (b"b".to_vec(), b"22".to_vec()),
                    (b"c".to_vec(), b"3".to_vec()),
                    (b"d".to_vec(), b"4".to_vec()),
                ],
                "block size {block}"
            );
            assert!(blocks >= seen.len().div_ceil(block));
        }

        // After a flush the file backend takes its sequential path; results
        // must be identical.
        b.flush().unwrap();
        let mut seen: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        b.scan_batch(2, &mut |pairs| seen.extend_from_slice(pairs));
        seen.sort();
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[1], (b"b".to_vec(), b"22".to_vec()));
    }

    #[test]
    fn mem_backend_scan_batch_contract() {
        scan_batch_contract(Box::new(MemBackend::new()));
    }

    #[test]
    fn file_backend_scan_batch_contract() {
        let dir = std::env::temp_dir().join(format!("subzero-kv-scan-{}", std::process::id()));
        let path = dir.join("scan.kv");
        let _ = std::fs::remove_file(&path);
        scan_batch_contract(Box::new(FileBackend::open(&path).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_scan_batch_spans_chunk_boundaries() {
        // Values larger than the pread chunk force the carry-buffer path:
        // records parse correctly across refills.  Pin ScanMode::Pread so
        // the mmap fast path can't serve the scan in one slice.
        let dir = std::env::temp_dir().join(format!("subzero-kv-scanbig-{}", std::process::id()));
        let path = dir.join("scanbig.kv");
        let _ = std::fs::remove_file(&path);
        let mut b = FileBackend::open(&path).unwrap();
        b.set_scan_mode(ScanMode::Pread);
        let items: Vec<(Vec<u8>, Vec<u8>)> =
            (0..8u8).map(|i| (vec![i], vec![i; 100_000])).collect();
        b.put_batch(items.clone());
        for chunk in [DEFAULT_SCAN_CHUNK, 4096, 37] {
            b.set_scan_chunk(chunk);
            assert_eq!(b.scan_chunk(), chunk);
            let mut seen: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            b.scan_batch(3, &mut |pairs| seen.extend_from_slice(pairs));
            seen.sort();
            assert_eq!(seen, items, "scan chunk {chunk}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_mmap_and_pread_scans_are_identical() {
        // The same backend must serve byte-identical scans, slice scans and
        // point reads in both modes.
        let dir = std::env::temp_dir().join(format!("subzero-kv-modes-{}", std::process::id()));
        let path = dir.join("modes.kv");
        let _ = std::fs::remove_file(&path);
        let mut b = FileBackend::open(&path).unwrap();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..257u32)
            .map(|i| {
                (
                    i.to_be_bytes().to_vec(),
                    vec![i as u8; 1 + (i as usize % 97)],
                )
            })
            .collect();
        b.put_batch(items.clone());
        b.put_batch(vec![(0u32.to_be_bytes().to_vec(), b"superseded".to_vec())]);

        let collect = |b: &FileBackend| {
            let mut owned: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            b.scan_batch(13, &mut |pairs| owned.extend_from_slice(pairs));
            owned.sort();
            let mut sliced: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            b.scan_slices(13, &mut |pairs| {
                sliced.extend(pairs.iter().map(|&(k, v)| (k.to_vec(), v.to_vec())));
            });
            sliced.sort();
            assert_eq!(owned, sliced, "scan_batch and scan_slices disagree");
            owned
        };

        b.set_scan_mode(ScanMode::Mmap);
        let via_mmap = collect(&b);
        b.set_scan_mode(ScanMode::Pread);
        let via_pread = collect(&b);
        assert_eq!(via_mmap, via_pread);
        assert_eq!(via_mmap.len(), 257);
        assert_eq!(via_mmap[0].1, b"superseded".to_vec());

        for mode in [ScanMode::Mmap, ScanMode::Pread] {
            b.set_scan_mode(mode);
            assert_eq!(b.scan_mode(), mode);
            for i in [0u32, 7, 256] {
                let got = b.get(&i.to_be_bytes()).expect("key present");
                let want = if i == 0 {
                    b"superseded".to_vec()
                } else {
                    vec![i as u8; 1 + (i as usize % 97)]
                };
                assert_eq!(got, want, "mode {mode:?} key {i}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_positioned_reads_are_concurrent() {
        // The reader handle carries no cursor: point lookups and full scans
        // from many threads must all see consistent records.
        let dir = std::env::temp_dir().join(format!("subzero-kv-pread-{}", std::process::id()));
        let path = dir.join("pread.kv");
        let _ = std::fs::remove_file(&path);
        let mut b = FileBackend::open(&path).unwrap();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..64u32)
            .map(|i| (i.to_be_bytes().to_vec(), vec![i as u8; 100 + i as usize]))
            .collect();
        b.put_batch(items.clone());
        let b = &b;
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in (t..64u32).step_by(4) {
                        let got = b.get(&i.to_be_bytes()).expect("key present");
                        assert_eq!(got, vec![i as u8; 100 + i as usize]);
                    }
                    let mut seen = 0usize;
                    b.scan_batch(7, &mut |pairs| seen += pairs.len());
                    assert_eq!(seen, 64);
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn database_merge_reads_then_writes() {
        let mut db = Database::new("m", Box::new(MemBackend::new()));
        db.merge(b"k", |old| {
            assert!(old.is_none());
            b"a".to_vec()
        });
        db.merge(b"k", |old| {
            let mut v = old.unwrap();
            v.extend_from_slice(b"b");
            v
        });
        assert_eq!(db.get(b"k").as_deref(), Some(&b"ab"[..]));
        let (puts, gets) = db.access_stats();
        assert_eq!(puts, 2);
        assert_eq!(gets, 1);
    }

    #[test]
    fn store_manager_allocates_per_name() {
        let mut mgr = StoreManager::in_memory();
        mgr.database("op1:full_one").put(b"x", b"1");
        mgr.database("op2:pay_one").put(b"y", b"22");
        assert!(mgr.has("op1:full_one"));
        assert!(!mgr.has("op3"));
        let stats = mgr.stats();
        assert_eq!(stats.databases, 2);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.bytes, 1 + 1 + 1 + 2);
        assert_eq!(mgr.total_bytes(), stats.bytes);
        mgr.drop_database("op1:full_one");
        assert_eq!(mgr.stats().databases, 1);
    }

    #[test]
    fn store_manager_on_disk_round_trip() {
        let dir = std::env::temp_dir().join(format!("subzero-mgr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut mgr = StoreManager::on_disk(&dir);
        mgr.database("op A/B").put(b"k", b"v");
        mgr.flush_all().unwrap();
        assert!(dir.join("op_A_B.kv").exists(), "sanitized filename used");
        assert_eq!(mgr.database("op A/B").get(b"k").as_deref(), Some(&b"v"[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
