//! Adaptive compressed sets of cells over a fixed shape.
//!
//! The SubZero query executor represents the intermediate result of every
//! lineage-query step as "an in-memory boolean array with the same dimensions
//! as the input (backward query) or output (forward query) array" (§VI-C of
//! the paper).  [`CellSet`] is that structure.  It used to be a single dense
//! bitmap sized to the whole shape; it is now an adaptive, Roaring-style
//! chunked container: the linear index space is split into 2^16-cell chunks,
//! and each chunk independently stores its members as either
//!
//! * a **sparse** sorted `u16` vector (few scattered cells),
//! * a **run-length** list of inclusive `(start, last)` intervals
//!   (contiguous regions, e.g. full-array answers), or
//! * a **dense** 1024-word bitmap (heavily populated chunks),
//!
//! auto-promoting on density (sparse → dense past 4096 entries, runs → dense
//! past 2047 runs) and demoting again when [`CellSet::optimize`] or a union
//! re-normalises a chunk.  An empty set allocates nothing regardless of
//! shape, full-array answers cost a handful of runs, and the join can
//! intersect sorted scan indices against container words instead of probing
//! a giant bitmap per index.  Observable behaviour (membership, insertion
//! results, row-major iteration order, panics on shape mismatch) is
//! identical to the legacy dense bitmap; the proptests in
//! `tests/proptests.rs` hold the two representations in parity.

use crate::{Coord, Shape};

/// Log2 of the number of cells per chunk.
const CHUNK_BITS: u32 = 16;
/// Cells per chunk (65 536).
const CHUNK_CELLS: usize = 1 << CHUNK_BITS;
/// 64-bit words in a dense chunk bitmap.
const DENSE_WORDS: usize = CHUNK_CELLS / 64;
/// Bytes a dense chunk occupies; the promotion break-even point.
const DENSE_BYTES: usize = DENSE_WORDS * 8;
/// A sparse container past this many entries is promoted to dense
/// (Roaring's classic 4096: 2 bytes/entry * 4096 = 8 KiB = dense).
const SPARSE_MAX: usize = 4096;
/// A run container past this many runs is promoted to dense
/// (4 bytes/run * 2047 < 8 KiB).
const RUNS_MAX: usize = 2047;

/// How many containers of each representation a [`CellSet`] currently uses.
///
/// Reported by [`CellSet::repr_counts`]; the benchmark of record reports the
/// mix of answer representations as `server.protocol.answer_containers_*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReprCounts {
    /// Chunks stored as sorted `u16` vectors.
    pub sparse: usize,
    /// Chunks stored as run-length interval lists.
    pub runs: usize,
    /// Chunks stored as 1024-word bitmaps.
    pub dense: usize,
}

impl ReprCounts {
    /// Total number of non-empty containers.
    pub fn total(&self) -> usize {
        self.sparse + self.runs + self.dense
    }

    /// Accumulates another count into this one.
    pub fn merge(&mut self, other: &ReprCounts) {
        self.sparse += other.sparse;
        self.runs += other.runs;
        self.dense += other.dense;
    }
}

/// One 2^16-cell chunk of the set.  `Sparse(vec![])` doubles as the empty
/// container so untouched chunks cost only the enum discriminant.
#[derive(Clone)]
enum Container {
    /// Sorted, de-duplicated chunk-local indices.
    Sparse(Vec<u16>),
    /// Sorted, non-adjacent inclusive `(start, last)` intervals.
    Runs(Vec<(u16, u16)>),
    /// Plain bitmap plus a cached population count.
    Dense {
        words: Box<[u64; DENSE_WORDS]>,
        len: u32,
    },
}

#[inline]
fn word_bit(lo: u16) -> (usize, u64) {
    ((lo >> 6) as usize, 1u64 << (lo & 63))
}

/// Cells covered by an inclusive run list.
fn runs_cell_count(runs: &[(u16, u16)]) -> usize {
    runs.iter()
        .map(|&(s, l)| (l as usize) - (s as usize) + 1)
        .sum()
}

/// Merges two sorted, non-adjacent run lists into one, coalescing
/// overlapping or adjacent intervals.
fn merge_runs(a: &[(u16, u16)], b: &[(u16, u16)]) -> Vec<(u16, u16)> {
    let mut out: Vec<(u16, u16)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x.0 <= y.0 {
                    i += 1;
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        match out.last_mut() {
            Some(last) if (next.0 as u32) <= last.1 as u32 + 1 => last.1 = last.1.max(next.1),
            _ => out.push(next),
        }
    }
    out
}

/// Collapses a sorted unique index list into inclusive runs.
fn sparse_to_runs(v: &[u16]) -> Vec<(u16, u16)> {
    let mut out: Vec<(u16, u16)> = Vec::new();
    for &lo in v {
        match out.last_mut() {
            Some(last) if last.1 as u32 + 1 == lo as u32 => last.1 = lo,
            _ => out.push((lo, lo)),
        }
    }
    out
}

/// Population count of `words` restricted to the inclusive bit range
/// `start..=last`.
fn range_popcount(words: &[u64; DENSE_WORDS], start: u16, last: u16) -> usize {
    let (ws, bs) = ((start >> 6) as usize, (start & 63) as u32);
    let (wl, bl) = ((last >> 6) as usize, (last & 63) as u32);
    if ws == wl {
        let mask = (u64::MAX << bs) & (u64::MAX >> (63 - bl));
        return (words[ws] & mask).count_ones() as usize;
    }
    let mut n = (words[ws] & (u64::MAX << bs)).count_ones() as usize;
    for &w in &words[ws + 1..wl] {
        n += w.count_ones() as usize;
    }
    n + (words[wl] & (u64::MAX >> (63 - bl))).count_ones() as usize
}

/// Sets every bit in the inclusive range `start..=last`, returning how many
/// were newly set.
fn fill_range(words: &mut [u64; DENSE_WORDS], start: u16, last: u16) -> usize {
    let (ws, bs) = ((start >> 6) as usize, (start & 63) as u32);
    let (wl, bl) = ((last >> 6) as usize, (last & 63) as u32);
    let mut added = 0usize;
    let mut apply = |w: &mut u64, mask: u64| {
        added += (mask & !*w).count_ones() as usize;
        *w |= mask;
    };
    if ws == wl {
        apply(&mut words[ws], (u64::MAX << bs) & (u64::MAX >> (63 - bl)));
    } else {
        apply(&mut words[ws], u64::MAX << bs);
        for w in &mut words[ws + 1..wl] {
            apply(w, u64::MAX);
        }
        apply(&mut words[wl], u64::MAX >> (63 - bl));
    }
    added
}

impl Container {
    fn new() -> Self {
        Container::Sparse(Vec::new())
    }

    fn len(&self) -> usize {
        match self {
            Container::Sparse(v) => v.len(),
            Container::Runs(r) => runs_cell_count(r),
            Container::Dense { len, .. } => *len as usize,
        }
    }

    fn contains(&self, lo: u16) -> bool {
        match self {
            Container::Sparse(v) => v.binary_search(&lo).is_ok(),
            Container::Runs(r) => {
                let i = r.partition_point(|&(s, _)| s <= lo);
                i > 0 && r[i - 1].1 >= lo
            }
            Container::Dense { words, .. } => {
                let (wi, bit) = word_bit(lo);
                words[wi] & bit != 0
            }
        }
    }

    /// Inserts one chunk-local index, promoting to dense on overflow.
    /// Returns `true` if it was newly inserted.
    fn insert(&mut self, lo: u16) -> bool {
        let promote = match self {
            Container::Sparse(v) => match v.binary_search(&lo) {
                Ok(_) => return false,
                Err(pos) => {
                    v.insert(pos, lo);
                    v.len() > SPARSE_MAX
                }
            },
            Container::Runs(r) => {
                let i = r.partition_point(|&(s, _)| s <= lo);
                if i > 0 && r[i - 1].1 >= lo {
                    return false;
                }
                let prev_adj = i > 0 && r[i - 1].1 as u32 + 1 == lo as u32;
                let next_adj = i < r.len() && lo as u32 + 1 == r[i].0 as u32;
                match (prev_adj, next_adj) {
                    (true, true) => {
                        r[i - 1].1 = r[i].1;
                        r.remove(i);
                    }
                    (true, false) => r[i - 1].1 = lo,
                    (false, true) => r[i].0 = lo,
                    (false, false) => r.insert(i, (lo, lo)),
                }
                r.len() > RUNS_MAX
            }
            Container::Dense { words, len } => {
                let (wi, bit) = word_bit(lo);
                if words[wi] & bit != 0 {
                    return false;
                }
                words[wi] |= bit;
                *len += 1;
                false
            }
        };
        if promote {
            self.promote_to_dense();
        }
        true
    }

    /// Inserts the inclusive chunk-local range `start..=last`.  Returns how
    /// many cells were newly inserted.
    fn insert_range(&mut self, start: u16, last: u16) -> usize {
        match self {
            Container::Dense { words, len } => {
                let added = fill_range(words, start, last);
                *len += added as u32;
                added
            }
            Container::Runs(r) => {
                let before = runs_cell_count(r);
                // Fast path: strictly past the current tail (the wire decoder
                // feeds runs in increasing order).
                match r.last().copied() {
                    Some((_, tl)) if (start as u32) > tl as u32 + 1 => r.push((start, last)),
                    Some((ts, tl)) if start >= ts => {
                        if let Some(tail) = r.last_mut() {
                            tail.1 = tl.max(last);
                        }
                    }
                    None => r.push((start, last)),
                    _ => {
                        let merged = merge_runs(r, &[(start, last)]);
                        *r = merged;
                    }
                }
                let added = runs_cell_count(r) - before;
                if r.len() > RUNS_MAX {
                    self.promote_to_dense();
                }
                added
            }
            Container::Sparse(v) => {
                let before = v.len();
                let runs = merge_runs(&sparse_to_runs(v), &[(start, last)]);
                let added = runs_cell_count(&runs) - before;
                let promote = runs.len() > RUNS_MAX;
                *self = Container::Runs(runs);
                if promote {
                    self.promote_to_dense();
                }
                added
            }
        }
    }

    /// Rebuilds this container as a dense bitmap with the same members.
    fn promote_to_dense(&mut self) {
        let mut words = Box::new([0u64; DENSE_WORDS]);
        let len = match std::mem::replace(self, Container::new()) {
            Container::Sparse(v) => {
                for &lo in &v {
                    let (wi, bit) = word_bit(lo);
                    words[wi] |= bit;
                }
                v.len() as u32
            }
            Container::Runs(r) => {
                let mut n = 0u32;
                for &(s, l) in &r {
                    n += fill_range(&mut words, s, l) as u32;
                }
                n
            }
            Container::Dense { words: w, len } => {
                words = w;
                len
            }
        };
        *self = Container::Dense { words, len };
    }

    /// Extracts the member set as a sorted run list (exact, any variant).
    fn to_runs_vec(&self) -> Vec<(u16, u16)> {
        match self {
            Container::Sparse(v) => sparse_to_runs(v),
            Container::Runs(r) => r.clone(),
            Container::Dense { words, .. } => {
                let mut out = Vec::new();
                let mut lo = 0u32;
                while let Some(start) = next_set_bit(words, lo) {
                    let end = next_clear_bit(words, start + 1).unwrap_or(CHUNK_CELLS as u32);
                    out.push((start as u16, (end - 1) as u16));
                    lo = end + 1;
                    if lo > CHUNK_CELLS as u32 {
                        break;
                    }
                }
                out
            }
        }
    }

    /// Number of maximal runs in this container.
    fn count_runs(&self) -> usize {
        match self {
            Container::Sparse(v) => {
                let mut n = 0usize;
                let mut prev: Option<u16> = None;
                for &lo in v {
                    match prev {
                        Some(p) if p as u32 + 1 == lo as u32 => {}
                        _ => n += 1,
                    }
                    prev = Some(lo);
                }
                n
            }
            Container::Runs(r) => r.len(),
            Container::Dense { words, .. } => {
                // A run starts at every 0→1 transition: count bits set in w
                // whose predecessor bit (previous position, possibly in the
                // previous word) is clear.
                let mut n = 0usize;
                let mut carry = 0u64; // msb of the previous word, in bit 0
                for &w in words.iter() {
                    n += (w & !((w << 1) | carry)).count_ones() as usize;
                    carry = w >> 63;
                }
                n
            }
        }
    }

    /// Picks the smallest valid representation for the current contents.
    fn normalize(&mut self) {
        let len = self.len();
        if len == 0 {
            *self = Container::new();
            return;
        }
        let nruns = self.count_runs();
        let run_cost = 4 * nruns;
        let sparse_cost = 2 * len;
        if nruns <= RUNS_MAX && run_cost <= sparse_cost && run_cost <= DENSE_BYTES {
            if !matches!(self, Container::Runs(_)) {
                *self = Container::Runs(self.to_runs_vec());
            }
        } else if len <= SPARSE_MAX && sparse_cost <= DENSE_BYTES {
            if !matches!(self, Container::Sparse(_)) {
                let mut v = Vec::with_capacity(len);
                for (s, l) in self.to_runs_vec() {
                    v.extend(s..=l);
                }
                *self = Container::Sparse(v);
            }
        } else if !matches!(self, Container::Dense { .. }) {
            self.promote_to_dense();
        }
    }

    /// Heap bytes this container occupies.
    fn size_bytes(&self) -> usize {
        match self {
            Container::Sparse(v) => v.len() * 2,
            Container::Runs(r) => r.len() * 4,
            Container::Dense { .. } => DENSE_BYTES,
        }
    }
}

/// First set bit at or after bit position `from`, if any.
fn next_set_bit(words: &[u64; DENSE_WORDS], from: u32) -> Option<u32> {
    if from as usize >= CHUNK_CELLS {
        return None;
    }
    let mut wi = (from >> 6) as usize;
    let mut w = words[wi] & (u64::MAX << (from & 63));
    loop {
        if w != 0 {
            return Some((wi as u32) * 64 + w.trailing_zeros());
        }
        wi += 1;
        if wi == DENSE_WORDS {
            return None;
        }
        w = words[wi];
    }
}

/// First clear bit at or after bit position `from`, if any.
fn next_clear_bit(words: &[u64; DENSE_WORDS], from: u32) -> Option<u32> {
    if from as usize >= CHUNK_CELLS {
        return None;
    }
    let mut wi = (from >> 6) as usize;
    let mut w = !words[wi] & (u64::MAX << (from & 63));
    loop {
        if w != 0 {
            return Some((wi as u32) * 64 + w.trailing_zeros());
        }
        wi += 1;
        if wi == DENSE_WORDS {
            return None;
        }
        w = !words[wi];
    }
}

/// Iterates the chunk-local indices of one container in sorted order.
enum ChunkCursor<'a> {
    Sparse(std::slice::Iter<'a, u16>),
    Runs {
        runs: std::slice::Iter<'a, (u16, u16)>,
        cur: Option<(u32, u32)>,
    },
    Dense {
        words: &'a [u64; DENSE_WORDS],
        wi: usize,
        bits: u64,
    },
}

impl<'a> ChunkCursor<'a> {
    fn new(c: &'a Container) -> Self {
        match c {
            Container::Sparse(v) => ChunkCursor::Sparse(v.iter()),
            Container::Runs(r) => ChunkCursor::Runs {
                runs: r.iter(),
                cur: None,
            },
            Container::Dense { words, .. } => ChunkCursor::Dense {
                words,
                wi: 0,
                bits: words[0],
            },
        }
    }
}

impl Iterator for ChunkCursor<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            ChunkCursor::Sparse(it) => it.next().map(|&lo| lo as u32),
            ChunkCursor::Runs { runs, cur } => loop {
                if let Some((next, last)) = cur {
                    if *next <= *last {
                        let v = *next;
                        *next += 1;
                        return Some(v);
                    }
                }
                let &(s, l) = runs.next()?;
                *cur = Some((s as u32, l as u32));
            },
            ChunkCursor::Dense { words, wi, bits } => loop {
                if *bits != 0 {
                    let tz = bits.trailing_zeros();
                    *bits &= *bits - 1;
                    return Some((*wi as u32) * 64 + tz);
                }
                *wi += 1;
                if *wi == DENSE_WORDS {
                    return None;
                }
                *bits = words[*wi];
            },
        }
    }
}

/// A set of cells of an array of known [`Shape`], stored as adaptive
/// chunked containers (see the module docs).
#[derive(Clone)]
pub struct CellSet {
    shape: Shape,
    /// One container per 2^16-cell chunk, trimmed to the highest non-empty
    /// chunk ever touched.  An empty set holds no containers at all.
    chunks: Vec<Container>,
    count: usize,
}

impl CellSet {
    /// Creates an empty cell set over `shape`.  Allocates nothing: the cost
    /// of an empty set is independent of the shape.
    pub fn empty(shape: Shape) -> Self {
        CellSet {
            shape,
            chunks: Vec::new(),
            count: 0,
        }
    }

    /// Creates a cell set containing every cell of `shape`.
    pub fn full(shape: Shape) -> Self {
        let mut s = Self::empty(shape);
        s.set_all();
        s
    }

    /// Creates a cell set from an iterator of coordinates.
    ///
    /// Out-of-bounds coordinates are ignored; this mirrors the paper's
    /// semantics where a lineage result is always clipped to the array it
    /// refers to.
    pub fn from_coords<I: IntoIterator<Item = Coord>>(shape: Shape, coords: I) -> Self {
        let mut s = Self::empty(shape);
        for c in coords {
            if shape.contains(&c) {
                s.insert(&c);
            }
        }
        s
    }

    /// The shape this cell set ranges over.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of cells in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether every cell of the shape is in the set.  Saturation is what the
    /// *entire-array* query optimization checks for.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.count == self.shape.num_cells()
    }

    #[inline]
    fn ensure_chunk(&mut self, ci: usize) -> &mut Container {
        if ci >= self.chunks.len() {
            self.chunks.resize_with(ci + 1, Container::new);
        }
        &mut self.chunks[ci]
    }

    /// Inserts a cell.  Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is out of bounds for the set's shape.
    #[inline]
    pub fn insert(&mut self, coord: &Coord) -> bool {
        let idx = self.shape.ravel(coord);
        self.insert_linear(idx)
    }

    /// Inserts a cell identified by its row-major linear index.
    #[inline]
    pub fn insert_linear(&mut self, idx: usize) -> bool {
        assert!(idx < self.shape.num_cells(), "linear index out of bounds");
        let ci = idx >> CHUNK_BITS;
        let lo = (idx & (CHUNK_CELLS - 1)) as u16;
        let added = self.ensure_chunk(ci).insert(lo);
        self.count += added as usize;
        added
    }

    /// Bulk-inserts a sorted (non-decreasing) slice of linear indices, as
    /// produced by the columnar scan decoder.  Returns how many cells were
    /// newly inserted.  Much cheaper than repeated [`insert_linear`]: each
    /// touched container is merged once instead of shifted per index.
    ///
    /// [`insert_linear`]: CellSet::insert_linear
    ///
    /// # Panics
    ///
    /// Panics if the slice is not sorted or an index is out of bounds.
    pub fn insert_sorted(&mut self, idxs: &[u64]) -> usize {
        let Some(&last) = idxs.last() else { return 0 };
        assert!(
            (last as usize) < self.shape.num_cells(),
            "linear index out of bounds"
        );
        debug_assert!(idxs.windows(2).all(|w| w[0] <= w[1]), "unsorted indices");
        let mut added = 0usize;
        let mut i = 0usize;
        while i < idxs.len() {
            let ci = (idxs[i] >> CHUNK_BITS) as usize;
            let hi = ((ci as u64) + 1) << CHUNK_BITS;
            let mut j = i + 1;
            while j < idxs.len() && idxs[j] < hi {
                j += 1;
            }
            added += Self::merge_group(self.ensure_chunk(ci), &idxs[i..j]);
            i = j;
        }
        self.count += added;
        added
    }

    /// Merges one chunk's worth of sorted linear indices into its container.
    fn merge_group(c: &mut Container, group: &[u64]) -> usize {
        #[inline]
        fn lo_of(x: u64) -> u16 {
            (x & (CHUNK_CELLS as u64 - 1)) as u16
        }
        match c {
            Container::Dense { words, len } => {
                let mut added = 0usize;
                for &x in group {
                    let (wi, bit) = word_bit(lo_of(x));
                    added += (words[wi] & bit == 0) as usize;
                    words[wi] |= bit;
                }
                *len += added as u32;
                added
            }
            Container::Sparse(v) => {
                let mut merged: Vec<u16> = Vec::with_capacity(v.len() + group.len());
                let (mut i, mut j) = (0usize, 0usize);
                while i < v.len() || j < group.len() {
                    let take_old = match (v.get(i), group.get(j)) {
                        (Some(&a), Some(&b)) => a <= lo_of(b),
                        (Some(_), None) => true,
                        _ => false,
                    };
                    let next = if take_old {
                        let a = v[i];
                        i += 1;
                        a
                    } else {
                        let b = lo_of(group[j]);
                        j += 1;
                        b
                    };
                    if merged.last() != Some(&next) {
                        merged.push(next);
                    }
                }
                let added = merged.len() - v.len();
                *c = Container::Sparse(merged);
                if c.len() > SPARSE_MAX {
                    c.promote_to_dense();
                }
                added
            }
            Container::Runs(r) => {
                let mut incoming: Vec<(u16, u16)> = Vec::new();
                for &x in group {
                    let lo = lo_of(x);
                    match incoming.last_mut() {
                        Some(last) if last.1 as u32 + 1 >= lo as u32 => last.1 = last.1.max(lo),
                        _ => incoming.push((lo, lo)),
                    }
                }
                let before = runs_cell_count(r);
                let merged = merge_runs(r, &incoming);
                let added = runs_cell_count(&merged) - before;
                let promote = merged.len() > RUNS_MAX;
                *c = Container::Runs(merged);
                if promote {
                    c.promote_to_dense();
                }
                added
            }
        }
    }

    /// Inserts the contiguous linear-index range `start .. start + len`.
    /// Used by the full-array fast path and the run-frame wire decoder.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the shape's cell count.
    pub fn insert_span(&mut self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = start + len; // exclusive
        assert!(end <= self.shape.num_cells(), "linear index out of bounds");
        let mut pos = start;
        while pos < end {
            let ci = pos >> CHUNK_BITS;
            let chunk_end = ((ci + 1) << CHUNK_BITS).min(end);
            let s = (pos & (CHUNK_CELLS - 1)) as u16;
            let l = ((chunk_end - 1) & (CHUNK_CELLS - 1)) as u16;
            self.count += self.ensure_chunk(ci).insert_range(s, l);
            pos = chunk_end;
        }
    }

    /// ORs a whole 64-bit word of the linear bitmap into the set.
    /// `word_idx` counts 64-cell words from linear index 0; used by the
    /// dense wire-frame decoder.  Returns how many cells were newly set.
    ///
    /// # Panics
    ///
    /// Panics if `bits` sets a cell at or beyond the shape's cell count.
    pub fn insert_word(&mut self, word_idx: usize, bits: u64) -> usize {
        if bits == 0 {
            return 0;
        }
        let top = word_idx * 64 + (63 - bits.leading_zeros() as usize);
        assert!(top < self.shape.num_cells(), "linear index out of bounds");
        let ci = word_idx / DENSE_WORDS;
        let wi = word_idx % DENSE_WORDS;
        let c = self.ensure_chunk(ci);
        if !matches!(c, Container::Dense { .. }) {
            c.promote_to_dense();
        }
        let Container::Dense { words, len } = c else {
            unreachable!()
        };
        let added = (bits & !words[wi]).count_ones() as usize;
        words[wi] |= bits;
        *len += added as u32;
        self.count += added;
        added
    }

    /// Promotes every non-empty chunk to the dense representation, turning
    /// [`contains_linear`] and [`intersect_sorted`] probes into O(1) word
    /// tests, for a set about to be probed many times; pair with
    /// [`optimize`] to re-compact when the probe-heavy phase is over.  Costs 8 KiB per promoted chunk, so
    /// only chunks that already hold cells are touched.
    ///
    /// [`contains_linear`]: CellSet::contains_linear
    /// [`intersect_sorted`]: CellSet::intersect_sorted
    /// [`optimize`]: CellSet::optimize
    pub fn densify(&mut self) {
        for c in &mut self.chunks {
            if c.len() > 0 && !matches!(c, Container::Dense { .. }) {
                c.promote_to_dense();
            }
        }
    }

    /// Marks every cell as present.
    pub fn set_all(&mut self) {
        let n = self.shape.num_cells();
        self.chunks.clear();
        let mut remaining = n;
        while remaining > 0 {
            let take = remaining.min(CHUNK_CELLS);
            self.chunks
                .push(Container::Runs(vec![(0, (take - 1) as u16)]));
            remaining -= take;
        }
        self.count = n;
    }

    /// Whether `coord` is present.
    #[inline]
    pub fn contains(&self, coord: &Coord) -> bool {
        if !self.shape.contains(coord) {
            return false;
        }
        let idx = self.shape.ravel(coord);
        self.contains_linear(idx)
    }

    /// Whether the cell at linear index `idx` is present.  Out-of-range
    /// indices are absent, never an error.
    #[inline]
    pub fn contains_linear(&self, idx: usize) -> bool {
        let ci = idx >> CHUNK_BITS;
        match self.chunks.get(ci) {
            Some(c) => c.contains((idx & (CHUNK_CELLS - 1)) as u16),
            None => false,
        }
    }

    /// Intersects a sorted (non-decreasing) slice of linear indices against
    /// the set, invoking `on_hit` for each member, in order.  Returns `true`
    /// if there was at least one hit.  Dense chunks answer with a word
    /// probe, sparse and run chunks with a linear merge over the (already
    /// sorted) indices.
    pub fn intersect_sorted(&self, idxs: &[u64], mut on_hit: impl FnMut(u64)) -> bool {
        let mut any = false;
        let mut i = 0usize;
        while i < idxs.len() {
            let ci = (idxs[i] >> CHUNK_BITS) as usize;
            if ci >= self.chunks.len() {
                break; // sorted: every later index lands past our last chunk
            }
            let hi = ((ci as u64) + 1) << CHUNK_BITS;
            let mut j = i + 1;
            while j < idxs.len() && idxs[j] < hi {
                j += 1;
            }
            let group = &idxs[i..j];
            match &self.chunks[ci] {
                Container::Sparse(v) if v.is_empty() => {}
                Container::Sparse(v) => {
                    // Scan records probe with a handful of indices at a time,
                    // so a linear merge would re-walk the container once per
                    // record; bisect the remaining tail per probe instead
                    // unless the group is big enough to amortise the walk.
                    let linear = group.len() * 4 >= v.len();
                    let mut k = 0usize;
                    for &x in group {
                        let lo = (x & (CHUNK_CELLS as u64 - 1)) as u16;
                        if linear {
                            while k < v.len() && v[k] < lo {
                                k += 1;
                            }
                        } else {
                            k += v[k..].partition_point(|&e| e < lo);
                        }
                        if k == v.len() {
                            break;
                        }
                        if v[k] == lo {
                            any = true;
                            on_hit(x);
                        }
                    }
                }
                Container::Runs(r) => {
                    let linear = group.len() * 4 >= r.len();
                    let mut k = 0usize;
                    for &x in group {
                        let lo = (x & (CHUNK_CELLS as u64 - 1)) as u16;
                        if linear {
                            while k < r.len() && r[k].1 < lo {
                                k += 1;
                            }
                        } else {
                            k += r[k..].partition_point(|run| run.1 < lo);
                        }
                        if k == r.len() {
                            break;
                        }
                        if r[k].0 <= lo {
                            any = true;
                            on_hit(x);
                        }
                    }
                }
                Container::Dense { words, .. } => {
                    for &x in group {
                        let (wi, bit) = word_bit((x & (CHUNK_CELLS as u64 - 1)) as u16);
                        if words[wi] & bit != 0 {
                            any = true;
                            on_hit(x);
                        }
                    }
                }
            }
            i = j;
        }
        any
    }

    /// In-place union with another cell set of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn union_with(&mut self, other: &CellSet) {
        assert_eq!(self.shape, other.shape, "cell-set shape mismatch in union");
        for (ci, oc) in other.chunks.iter().enumerate() {
            if oc.len() == 0 {
                continue;
            }
            let c = self.ensure_chunk(ci);
            let before = c.len();
            Self::union_chunk(c, oc);
            c.normalize();
            self.count += c.len() - before;
        }
    }

    /// Merges `src` into `dst` (same chunk of two sets).
    fn union_chunk(dst: &mut Container, src: &Container) {
        match (&mut *dst, src) {
            (Container::Dense { words, len }, Container::Dense { words: ow, .. }) => {
                let mut n = 0u32;
                for (a, b) in words.iter_mut().zip(ow.iter()) {
                    *a |= *b;
                    n += a.count_ones();
                }
                *len = n;
            }
            (Container::Dense { words, len }, Container::Sparse(v)) => {
                let mut added = 0u32;
                for &lo in v {
                    let (wi, bit) = word_bit(lo);
                    added += (words[wi] & bit == 0) as u32;
                    words[wi] |= bit;
                }
                *len += added;
            }
            (Container::Dense { words, len }, Container::Runs(r)) => {
                let mut added = 0u32;
                for &(s, l) in r {
                    added += fill_range(words, s, l) as u32;
                }
                *len += added;
            }
            (_, Container::Dense { .. }) => {
                dst.promote_to_dense();
                Self::union_chunk(dst, src);
            }
            (Container::Sparse(a), Container::Sparse(b)) => {
                let mut merged = Vec::with_capacity(a.len() + b.len());
                let (mut i, mut j) = (0usize, 0usize);
                while i < a.len() || j < b.len() {
                    let take_a = match (a.get(i), b.get(j)) {
                        (Some(&x), Some(&y)) => x <= y,
                        (Some(_), None) => true,
                        _ => false,
                    };
                    let next = if take_a {
                        let x = a[i];
                        i += 1;
                        x
                    } else {
                        let y = b[j];
                        j += 1;
                        y
                    };
                    if merged.last() != Some(&next) {
                        merged.push(next);
                    }
                }
                *dst = Container::Sparse(merged);
            }
            _ => {
                let merged = merge_runs(&dst.to_runs_vec(), &src.to_runs_vec());
                *dst = Container::Runs(merged);
            }
        }
    }

    /// Intersection count with another cell set of the same shape (used by
    /// tests and statistics; the hot path only needs union and membership).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn intersection_len(&self, other: &CellSet) -> usize {
        assert_eq!(self.shape, other.shape, "cell-set shape mismatch");
        self.chunks
            .iter()
            .zip(other.chunks.iter())
            .map(|(a, b)| Self::chunk_intersection(a, b))
            .sum()
    }

    fn chunk_intersection(a: &Container, b: &Container) -> usize {
        use Container::*;
        match (a, b) {
            (Dense { words: wa, .. }, Dense { words: wb, .. }) => wa
                .iter()
                .zip(wb.iter())
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum(),
            (Dense { words, .. }, Runs(r)) | (Runs(r), Dense { words, .. }) => {
                r.iter().map(|&(s, l)| range_popcount(words, s, l)).sum()
            }
            (Runs(x), Runs(y)) => {
                let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
                while i < x.len() && j < y.len() {
                    let s = x[i].0.max(y[j].0);
                    let l = x[i].1.min(y[j].1);
                    if s <= l {
                        n += (l - s) as usize + 1;
                    }
                    if x[i].1 <= y[j].1 {
                        i += 1;
                    } else {
                        j += 1;
                    }
                }
                n
            }
            // Remaining mixed cases: walk the smaller side, probe the other.
            _ => {
                let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                ChunkCursor::new(small)
                    .filter(|&lo| big.contains(lo as u16))
                    .count()
            }
        }
    }

    /// Iterates the linear indices in the set in increasing (row-major)
    /// order.
    pub fn iter_linear(&self) -> impl Iterator<Item = usize> + '_ {
        self.chunks
            .iter()
            .enumerate()
            .flat_map(|(ci, c)| ChunkCursor::new(c).map(move |lo| (ci << CHUNK_BITS) + lo as usize))
    }

    /// Iterates over the coordinates in the set in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        let shape = self.shape;
        self.iter_linear().map(move |idx| shape.unravel(idx))
    }

    /// Iterates the set as maximal `(start, len)` runs of linear indices,
    /// coalesced across chunk boundaries.  This is what the wire encoder
    /// sizes the run frame from.
    pub fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut it = self
            .chunks
            .iter()
            .enumerate()
            .flat_map(|(ci, c)| {
                let base = (ci as u64) << CHUNK_BITS;
                c.to_runs_vec()
                    .into_iter()
                    .map(move |(s, l)| (base + s as u64, l as u64 - s as u64 + 1))
            })
            .peekable();
        std::iter::from_fn(move || {
            let (s, mut l) = it.next()?;
            while let Some(&(ns, nl)) = it.peek() {
                if ns == s + l {
                    l += nl;
                    it.next();
                } else {
                    break;
                }
            }
            Some((s, l))
        })
    }

    /// Number of maximal runs (the length of [`CellSet::runs`]), without
    /// materialising them.
    pub fn run_count(&self) -> usize {
        let mut n = 0usize;
        let mut prev_end: Option<u64> = None;
        for (ci, c) in self.chunks.iter().enumerate() {
            if c.len() == 0 {
                continue;
            }
            let base = (ci as u64) << CHUNK_BITS;
            n += c.count_runs();
            // A chunk whose first cell continues the previous chunk's tail
            // run double-counted one run.
            if prev_end == Some(base) && c.contains(0) {
                n -= 1;
            }
            prev_end = if c.contains((CHUNK_CELLS - 1) as u16) {
                Some(base + CHUNK_CELLS as u64)
            } else {
                None
            };
        }
        n
    }

    /// The smallest and largest linear index present, if the set is
    /// non-empty.  The wire encoder uses this to size dense word frames.
    pub fn bounds_linear(&self) -> Option<(usize, usize)> {
        let first = self.iter_linear().next()?;
        let last = self
            .chunks
            .iter()
            .enumerate()
            .rev()
            .find(|(_, c)| c.len() > 0)
            .map(|(ci, c)| {
                let hi = match c {
                    Container::Sparse(v) => *v.last().unwrap() as usize,
                    Container::Runs(r) => r.last().unwrap().1 as usize,
                    Container::Dense { words, .. } => {
                        let (wi, w) = words
                            .iter()
                            .enumerate()
                            .rev()
                            .find(|(_, w)| **w != 0)
                            .unwrap();
                        wi * 64 + 63 - w.leading_zeros() as usize
                    }
                };
                (ci << CHUNK_BITS) + hi
            })
            .unwrap();
        Some((first, last))
    }

    /// Collects the coordinates into a vector.
    pub fn to_coords(&self) -> Vec<Coord> {
        self.iter().collect()
    }

    /// Re-normalises every chunk to its smallest representation (e.g. a
    /// saturated dense chunk demotes to a single run).  Mutating operations
    /// only ever promote; call this after bulk construction if the set will
    /// be long-lived.
    pub fn optimize(&mut self) {
        for c in &mut self.chunks {
            c.normalize();
        }
        while self
            .chunks
            .last()
            .is_some_and(|c| matches!(c, Container::Sparse(v) if v.is_empty()))
        {
            self.chunks.pop();
        }
    }

    /// How many containers of each representation the set currently uses.
    pub fn repr_counts(&self) -> ReprCounts {
        let mut out = ReprCounts::default();
        for c in &self.chunks {
            match c {
                Container::Sparse(v) if v.is_empty() => {}
                Container::Sparse(_) => out.sparse += 1,
                Container::Runs(_) => out.runs += 1,
                Container::Dense { .. } => out.dense += 1,
            }
        }
        out
    }

    /// Approximate memory footprint in bytes: the sum of container payloads
    /// plus the chunk table.  Scales with content, not shape.
    pub fn size_bytes(&self) -> usize {
        self.chunks.len() * std::mem::size_of::<Container>()
            + self.chunks.iter().map(Container::size_bytes).sum::<usize>()
    }
}

impl std::fmt::Debug for CellSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellSet")
            .field("shape", &self.shape)
            .field("count", &self.count)
            .field("repr", &self.repr_counts())
            .finish()
    }
}

/// Equality is semantic — two sets with the same shape and members are
/// equal regardless of which container representations they ended up in.
impl PartialEq for CellSet {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && self.count == other.count
            && self.iter_linear().eq(other.iter_linear())
    }
}

impl Eq for CellSet {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let s = CellSet::empty(Shape::d2(3, 3));
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.is_full());

        let f = CellSet::full(Shape::d2(3, 3));
        assert!(f.is_full());
        assert_eq!(f.len(), 9);
        assert!(f.contains(&Coord::d2(2, 2)));
    }

    #[test]
    fn insert_and_contains() {
        let mut s = CellSet::empty(Shape::d2(10, 10));
        assert!(s.insert(&Coord::d2(3, 4)));
        assert!(!s.insert(&Coord::d2(3, 4)), "double insert reports false");
        assert_eq!(s.len(), 1);
        assert!(s.contains(&Coord::d2(3, 4)));
        assert!(!s.contains(&Coord::d2(4, 3)));
        assert!(!s.contains(&Coord::d2(99, 99)), "out of bounds is absent");
    }

    #[test]
    fn from_coords_ignores_out_of_bounds_and_dedups() {
        let s = CellSet::from_coords(
            Shape::d2(2, 2),
            vec![
                Coord::d2(0, 0),
                Coord::d2(0, 0),
                Coord::d2(1, 1),
                Coord::d2(5, 5),
            ],
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_all_handles_partial_last_chunk() {
        // 70 cells: a single partial chunk.
        let mut s = CellSet::empty(Shape::d2(7, 10));
        s.set_all();
        assert_eq!(s.len(), 70);
        assert!(s.is_full());
        assert_eq!(s.iter().count(), 70);
    }

    #[test]
    fn set_all_spans_chunks() {
        // 512 * 2000 > 2^16: full set crosses chunk boundaries, stays runs.
        let s = CellSet::full(Shape::d2(512, 2000));
        assert_eq!(s.len(), 512 * 2000);
        assert!(s.is_full());
        assert!(s.contains_linear(512 * 2000 - 1));
        assert!(!s.contains_linear(512 * 2000));
        let mix = s.repr_counts();
        assert_eq!(mix.sparse + mix.dense, 0, "full set should be runs");
        assert_eq!(s.run_count(), 1, "full set is one coalesced run");
    }

    #[test]
    fn set_all_exact_word_boundary() {
        let mut s = CellSet::empty(Shape::d2(8, 8));
        s.set_all();
        assert_eq!(s.len(), 64);
        assert!(s.is_full());
    }

    #[test]
    fn union_counts_correctly() {
        let shape = Shape::d2(4, 4);
        let mut a = CellSet::from_coords(shape, vec![Coord::d2(0, 0), Coord::d2(1, 1)]);
        let b = CellSet::from_coords(shape, vec![Coord::d2(1, 1), Coord::d2(2, 2)]);
        a.union_with(&b);
        assert_eq!(a.len(), 3);
        assert!(a.contains(&Coord::d2(2, 2)));
    }

    #[test]
    fn intersection_len() {
        let shape = Shape::d2(4, 4);
        let a = CellSet::from_coords(shape, vec![Coord::d2(0, 0), Coord::d2(1, 1)]);
        let b = CellSet::from_coords(shape, vec![Coord::d2(1, 1), Coord::d2(2, 2)]);
        assert_eq!(a.intersection_len(&b), 1);
    }

    #[test]
    fn iter_returns_sorted_coords() {
        let shape = Shape::d2(3, 3);
        let s = CellSet::from_coords(
            shape,
            vec![Coord::d2(2, 2), Coord::d2(0, 1), Coord::d2(1, 0)],
        );
        let coords = s.to_coords();
        assert_eq!(
            coords,
            vec![Coord::d2(0, 1), Coord::d2(1, 0), Coord::d2(2, 2)]
        );
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn union_rejects_shape_mismatch() {
        let mut a = CellSet::empty(Shape::d2(2, 2));
        let b = CellSet::empty(Shape::d2(3, 3));
        a.union_with(&b);
    }

    #[test]
    fn empty_set_costs_nothing_regardless_of_shape() {
        let s = CellSet::empty(Shape::d2(512, 2000));
        assert_eq!(s.size_bytes(), 0);
        // A full set over the same shape is a handful of runs, not 128 KB.
        let f = CellSet::full(Shape::d2(512, 2000));
        assert!(f.size_bytes() < 1024, "full set is {} B", f.size_bytes());
    }

    #[test]
    fn sparse_promotes_to_dense_at_boundary() {
        // 2 * SPARSE_MAX cells in one chunk, every other cell: stays sparse
        // until the 4097th insert, then flips dense.
        let shape = Shape::d2(256, 256); // exactly one chunk
        let mut s = CellSet::empty(shape);
        for i in 0..SPARSE_MAX {
            s.insert_linear(i * 2);
        }
        assert_eq!(
            s.repr_counts(),
            ReprCounts {
                sparse: 1,
                runs: 0,
                dense: 0
            }
        );
        s.insert_linear(SPARSE_MAX * 2);
        assert_eq!(
            s.repr_counts(),
            ReprCounts {
                sparse: 0,
                runs: 0,
                dense: 1
            }
        );
        assert_eq!(s.len(), SPARSE_MAX + 1);
        for i in 0..=SPARSE_MAX {
            assert!(s.contains_linear(i * 2));
            assert!(!s.contains_linear(i * 2 + 1));
        }
    }

    #[test]
    fn runs_promote_to_dense_at_boundary() {
        let shape = Shape::d2(256, 256);
        let mut s = CellSet::empty(shape);
        // Build RUNS_MAX disjoint 2-cell runs via spans: 0-1, 4-5, 8-9, ...
        for i in 0..RUNS_MAX {
            s.insert_span(i * 4, 2);
        }
        assert_eq!(
            s.repr_counts(),
            ReprCounts {
                sparse: 0,
                runs: 1,
                dense: 0
            }
        );
        // One more disjoint run tips it over.
        s.insert_span(RUNS_MAX * 4, 2);
        assert_eq!(
            s.repr_counts(),
            ReprCounts {
                sparse: 0,
                runs: 0,
                dense: 1
            }
        );
        assert_eq!(s.len(), (RUNS_MAX + 1) * 2);
        assert!(s.contains_linear(8));
        assert!(!s.contains_linear(2));
    }

    #[test]
    fn optimize_demotes_saturated_dense_to_runs() {
        let shape = Shape::d2(256, 256);
        let mut s = CellSet::empty(shape);
        // Insert one-by-one so the chunk promotes to dense on the way up.
        for i in 0..shape.num_cells() {
            s.insert_linear(i);
        }
        assert_eq!(
            s.repr_counts(),
            ReprCounts {
                sparse: 0,
                runs: 0,
                dense: 1
            }
        );
        assert!(s.is_full());
        s.optimize();
        assert_eq!(
            s.repr_counts(),
            ReprCounts {
                sparse: 0,
                runs: 1,
                dense: 0
            }
        );
        assert!(s.is_full());
        assert_eq!(s.iter_linear().count(), shape.num_cells());
    }

    #[test]
    fn insert_sorted_matches_per_index_inserts() {
        let shape = Shape::d2(300, 300); // spans two chunks
        let idxs: Vec<u64> = (0..shape.num_cells() as u64)
            .filter(|i| i % 7 == 0 || (30_000..30_400).contains(i))
            .collect();
        let mut bulk = CellSet::empty(shape);
        let added = bulk.insert_sorted(&idxs);
        let mut one = CellSet::empty(shape);
        for &i in &idxs {
            one.insert_linear(i as usize);
        }
        assert_eq!(added, idxs.len());
        assert_eq!(bulk, one);
        assert_eq!(bulk.insert_sorted(&idxs), 0, "re-insert adds nothing");
    }

    #[test]
    fn intersect_sorted_reports_hits_in_order() {
        let shape = Shape::d2(300, 300);
        let set = CellSet::from_coords(
            shape,
            (0..300).map(|i| Coord::d2(i, i)), // the diagonal
        );
        let probe: Vec<u64> = (0..shape.num_cells() as u64).step_by(301).collect();
        let mut hits = Vec::new();
        let any = set.intersect_sorted(&probe, |x| hits.push(x));
        assert!(any);
        // Diagonal cells are exactly the multiples of 301.
        assert_eq!(hits, probe);
        let miss: Vec<u64> = vec![1, 302, 603];
        assert!(!set.intersect_sorted(&miss, |_| panic!("no hits expected")));
    }

    #[test]
    fn runs_iterator_coalesces_across_chunks() {
        let shape = Shape::d2(300, 300);
        let mut s = CellSet::empty(shape);
        // A span straddling the first chunk boundary plus a lone cell.
        s.insert_span(65_530, 12);
        s.insert_linear(70_000);
        let runs: Vec<(u64, u64)> = s.runs().collect();
        assert_eq!(runs, vec![(65_530, 12), (70_000, 1)]);
        assert_eq!(s.run_count(), 2);
    }

    #[test]
    fn insert_word_matches_bit_inserts() {
        let shape = Shape::d2(300, 300);
        let mut a = CellSet::empty(shape);
        a.insert_word(3, 0xF0F0_F0F0_F0F0_F0F0);
        a.insert_word(1024, 1);
        let mut b = CellSet::empty(shape);
        for bit in 0..64 {
            if 0xF0F0_F0F0_F0F0_F0F0u64 & (1 << bit) != 0 {
                b.insert_linear(3 * 64 + bit);
            }
        }
        b.insert_linear(1024 * 64);
        a.optimize();
        assert_eq!(a, b);
    }

    #[test]
    fn equality_is_representation_independent() {
        let shape = Shape::d2(256, 256);
        let mut dense_path = CellSet::empty(shape);
        for i in 0..5000 {
            dense_path.insert_linear(i); // promotes to dense at 4097
        }
        let mut run_path = CellSet::empty(shape);
        run_path.insert_span(0, 5000);
        assert_eq!(dense_path.repr_counts().dense, 1);
        assert_eq!(run_path.repr_counts().runs, 1);
        assert_eq!(dense_path, run_path);
    }
}
