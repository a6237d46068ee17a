//! Property-based tests for the array substrate.

use proptest::prelude::*;
use subzero_array::{Array, BoundingBox, CellSet, Coord, Shape};

/// The legacy `CellSet` representation — one flat `u64` bitmap over the whole
/// shape — kept here as the parity oracle for the adaptive chunked container
/// that replaced it.
struct DenseBitmap {
    words: Vec<u64>,
    count: usize,
    num_cells: usize,
}

impl DenseBitmap {
    fn new(num_cells: usize) -> Self {
        Self {
            words: vec![0u64; num_cells.div_ceil(64)],
            count: 0,
            num_cells,
        }
    }

    fn insert(&mut self, idx: usize) -> bool {
        assert!(idx < self.num_cells);
        let (wi, bit) = (idx / 64, 1u64 << (idx % 64));
        let added = self.words[wi] & bit == 0;
        self.words[wi] |= bit;
        self.count += added as usize;
        added
    }

    fn contains(&self, idx: usize) -> bool {
        idx < self.num_cells && self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_cells).filter(|&i| self.contains(i))
    }

    fn bounds(&self) -> Option<(usize, usize)> {
        let lo = self.iter().next()?;
        let hi = self.iter().last()?;
        Some((lo, hi))
    }

    fn intersection_len(&self, other: &Self) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    fn union_with(&mut self, other: &Self) {
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        self.count = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }
}

/// Strategy producing an arbitrary 1–3 dimensional shape with a bounded cell
/// count so the exhaustive checks stay fast.
fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (1u32..200).prop_map(Shape::d1),
        (1u32..40, 1u32..40).prop_map(|(r, c)| Shape::d2(r, c)),
        (1u32..12, 1u32..12, 1u32..12).prop_map(|(a, b, c)| Shape::d3(a, b, c)),
    ]
}

/// Strategy producing a shape together with a valid coordinate inside it.
fn shape_and_coord() -> impl Strategy<Value = (Shape, Coord)> {
    shape_strategy().prop_flat_map(|shape| {
        let n = shape.num_cells();
        (Just(shape), 0..n).prop_map(|(shape, idx)| (shape, shape.unravel(idx)))
    })
}

/// The original `Shape::neighborhood`: an odometer over every offset of the
/// full `(2r+1)^n` cube, bounds-checked cell by cell.  Kept as the reference
/// the clipped-box walk must reproduce, order included.
fn neighborhood_reference(shape: &Shape, center: &Coord, radius: u32) -> Vec<Coord> {
    let r = radius as i64;
    let ndim = shape.ndim();
    let mut out = Vec::new();
    let mut offsets = vec![-r; ndim];
    loop {
        let signed: Vec<i64> = (0..ndim)
            .map(|d| center.get(d) as i64 + offsets[d])
            .collect();
        if let Some(c) = shape.checked_coord(&signed) {
            out.push(c);
        }
        let mut d = ndim;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            offsets[d] += 1;
            if offsets[d] <= r {
                break;
            }
            offsets[d] = -r;
        }
    }
}

/// A 1–4 dimensional shape with a center inside it or up to four cells past
/// its far edge in each dimension.
fn shape_and_near_center() -> impl Strategy<Value = (Shape, Coord)> {
    (1usize..5)
        .prop_flat_map(|ndim| prop::collection::vec((1u32..7, 0u32..11), ndim..ndim + 1))
        .prop_map(|dims| {
            let extents: Vec<u32> = dims.iter().map(|&(n, _)| n).collect();
            let center: Vec<u32> = dims.iter().map(|&(n, c)| c.min(n + 3)).collect();
            (Shape::new(&extents), Coord::new(&center))
        })
}

proptest! {
    #[test]
    fn neighborhood_matches_the_reference_odometer(
        (shape, center) in shape_and_near_center(),
        radius in 0u32..4,
    ) {
        prop_assert_eq!(
            shape.neighborhood(&center, radius),
            neighborhood_reference(&shape, &center, radius)
        );
    }

    #[test]
    fn ravel_unravel_roundtrip((shape, coord) in shape_and_coord()) {
        let idx = shape.ravel(&coord);
        prop_assert!(idx < shape.num_cells());
        prop_assert_eq!(shape.unravel(idx), coord);
    }

    #[test]
    fn ravel_is_injective(shape in shape_strategy()) {
        // Distinct coordinates map to distinct linear indices.
        let mut seen = vec![false; shape.num_cells()];
        for c in shape.iter() {
            let idx = shape.ravel(&c);
            prop_assert!(!seen[idx]);
            seen[idx] = true;
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn cellset_matches_hashset_semantics(
        (shape, _c) in shape_and_coord(),
        picks in prop::collection::vec(0usize..4096, 0..200),
    ) {
        let mut set = CellSet::empty(shape);
        let mut reference = std::collections::HashSet::new();
        for p in picks {
            let idx = p % shape.num_cells();
            let coord = shape.unravel(idx);
            set.insert(&coord);
            reference.insert(idx);
        }
        prop_assert_eq!(set.len(), reference.len());
        for idx in 0..shape.num_cells() {
            prop_assert_eq!(set.contains_linear(idx), reference.contains(&idx));
        }
        prop_assert_eq!(set.is_full(), reference.len() == shape.num_cells());
    }

    #[test]
    fn cellset_union_is_commutative(
        shape in (1u32..30, 1u32..30).prop_map(|(r, c)| Shape::d2(r, c)),
        xs in prop::collection::vec(0usize..900, 0..100),
        ys in prop::collection::vec(0usize..900, 0..100),
    ) {
        let coords_a: Vec<Coord> = xs.iter().map(|&i| shape.unravel(i % shape.num_cells())).collect();
        let coords_b: Vec<Coord> = ys.iter().map(|&i| shape.unravel(i % shape.num_cells())).collect();
        let mut ab = CellSet::from_coords(shape, coords_a.iter().copied());
        ab.union_with(&CellSet::from_coords(shape, coords_b.iter().copied()));
        let mut ba = CellSet::from_coords(shape, coords_b.iter().copied());
        ba.union_with(&CellSet::from_coords(shape, coords_a.iter().copied()));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn bounding_box_encloses_every_input(
        shape in (2u32..50, 2u32..50).prop_map(|(r, c)| Shape::d2(r, c)),
        picks in prop::collection::vec(0usize..2500, 1..64),
    ) {
        let coords: Vec<Coord> = picks.iter().map(|&i| shape.unravel(i % shape.num_cells())).collect();
        let bbox = BoundingBox::enclosing(&coords).unwrap();
        for c in &coords {
            prop_assert!(bbox.contains(c));
        }
        // The box is tight: its corners are realised by some input coordinate
        // in every dimension.
        for d in 0..2 {
            let lo = coords.iter().map(|c| c.get(d)).min().unwrap();
            let hi = coords.iter().map(|c| c.get(d)).max().unwrap();
            prop_assert_eq!(bbox.lo().get(d), lo);
            prop_assert_eq!(bbox.hi().get(d), hi);
        }
    }

    #[test]
    fn neighborhood_is_chebyshev_ball(
        (shape, center) in shape_and_coord(),
        radius in 0u32..4,
    ) {
        let neigh = shape.neighborhood(&center, radius);
        // Every returned coordinate is in bounds and within the radius.
        for c in &neigh {
            prop_assert!(shape.contains(c));
            prop_assert!(c.chebyshev(&center) <= radius);
        }
        // Every in-bounds cell within the radius is returned.
        let expect = shape
            .iter()
            .filter(|c| c.chebyshev(&center) <= radius)
            .count();
        prop_assert_eq!(neigh.len(), expect);
    }

    #[test]
    fn array_map_preserves_shape_and_applies_fn(
        shape in (1u32..20, 1u32..20).prop_map(|(r, c)| Shape::d2(r, c)),
        scale in -10.0f64..10.0,
    ) {
        let a = Array::from_fn(shape, |c| c.get(0) as f64 + c.get(1) as f64);
        let b = a.map(|v| v * scale);
        prop_assert_eq!(b.shape(), shape);
        for (c, v) in a.iter() {
            prop_assert_eq!(b.get(&c), v * scale);
        }
    }

    #[test]
    fn adaptive_matches_legacy_bitmap_under_mixed_ops(
        ncells in 1usize..180_000,
        ops in prop::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 0..40),
    ) {
        // Drive the adaptive container and the legacy flat bitmap through an
        // identical random op sequence spanning several 2^16-cell chunks,
        // then demand observably identical sets.
        let shape = Shape::d1(ncells as u32);
        let mut set = CellSet::empty(shape);
        let mut reference = DenseBitmap::new(ncells);
        for &(kind, a, b) in &ops {
            let a = a as usize;
            let b = b as usize;
            match kind {
                0 => {
                    let idx = a % ncells;
                    let added = set.insert_linear(idx);
                    prop_assert_eq!(added, reference.insert(idx));
                }
                1 => {
                    let start = a % ncells;
                    let len = (b % 300).min(ncells - start);
                    set.insert_span(start, len);
                    for i in start..start + len {
                        reference.insert(i);
                    }
                }
                2 => {
                    // A strided batch for insert_sorted; odd strides visit
                    // distinct cells, so sort + dedup gives a valid input.
                    let stride = (b % 97) | 1;
                    let mut batch: Vec<u64> =
                        (0..(a % 64)).map(|k| ((a + k * stride) % ncells) as u64).collect();
                    batch.sort_unstable();
                    batch.dedup();
                    let before = reference.count;
                    for &i in &batch {
                        reference.insert(i as usize);
                    }
                    prop_assert_eq!(set.insert_sorted(&batch), reference.count - before);
                }
                _ => {
                    // A full 64-cell word, masked to stay inside the shape.
                    let nwords = ncells.div_ceil(64);
                    let wi = a % nwords;
                    let valid = ncells - wi * 64;
                    let mask = if valid >= 64 { u64::MAX } else { (1u64 << valid) - 1 };
                    let bits = ((a as u64) << 32 | b as u64) & mask;
                    let before = reference.count;
                    for t in 0..64 {
                        if bits >> t & 1 == 1 {
                            reference.insert(wi * 64 + t);
                        }
                    }
                    prop_assert_eq!(set.insert_word(wi, bits), reference.count - before);
                }
            }
        }
        prop_assert_eq!(set.len(), reference.count);
        prop_assert!(set.iter_linear().eq(reference.iter()));
        prop_assert_eq!(set.bounds_linear(), reference.bounds());
        // runs() must re-tile the exact same membership, maximally coalesced.
        let mut from_runs = Vec::new();
        let mut prev_end: Option<u64> = None;
        for (start, len) in set.runs() {
            prop_assert!(len > 0);
            if let Some(pe) = prev_end {
                prop_assert!(start > pe + 1, "adjacent runs must coalesce");
            }
            from_runs.extend(start..start + len);
            prev_end = Some(start + len - 1);
        }
        prop_assert!(from_runs.iter().map(|&i| i as usize).eq(reference.iter()));
        // Re-normalising representations never changes the observable set.
        let mut optimized = set.clone();
        optimized.optimize();
        prop_assert_eq!(&optimized, &set);
        prop_assert_eq!(optimized.repr_counts().total(), set.repr_counts().total());
    }

    #[test]
    fn promotion_boundaries_preserve_parity(
        extra in 0usize..24,
        stride in 1u32..9,
        seed in any::<u32>(),
    ) {
        // Straddle the sparse→dense boundary (4096 entries per chunk) with a
        // strided pattern, checking membership per insert on the way through.
        let ncells = 1usize << 17;
        let shape = Shape::d1(ncells as u32);
        let mut set = CellSet::empty(shape);
        let mut reference = DenseBitmap::new(ncells);
        let step = (stride as usize) * 2 + 1; // odd: distinct mod 2^16
        let target = 4096 - 12 + extra;
        for k in 0..target {
            let idx = (seed as usize + k * step) % (1 << 16);
            prop_assert_eq!(set.insert_linear(idx), reference.insert(idx));
            prop_assert_eq!(set.len(), reference.count);
        }
        prop_assert!(set.iter_linear().eq(reference.iter()));
        // And the runs→dense boundary (2047 runs per chunk): isolated cells
        // two apart are one run each.
        let mut set = CellSet::empty(shape);
        let mut reference = DenseBitmap::new(ncells);
        let nruns = 2047 - 8 + extra;
        for k in 0..nruns {
            set.insert_span(2 * k, 1);
            reference.insert(2 * k);
        }
        prop_assert_eq!(set.len(), reference.count);
        prop_assert!(set.iter_linear().eq(reference.iter()));
        for idx in 0..4 * nruns {
            prop_assert_eq!(set.contains_linear(idx), reference.contains(idx));
        }
    }

    #[test]
    fn intersect_sorted_reports_exact_intersection(
        ncells in 64usize..100_000,
        picks in prop::collection::vec(any::<u32>(), 0..120),
        probes in prop::collection::vec(any::<u32>(), 0..120),
    ) {
        let shape = Shape::d1(ncells as u32);
        let mut set = CellSet::empty(shape);
        for &p in &picks {
            set.insert_linear(p as usize % ncells);
        }
        let mut probes: Vec<u64> = probes.iter().map(|&p| (p as usize % ncells) as u64).collect();
        probes.sort_unstable();
        probes.dedup();
        let mut hits = Vec::new();
        let any_hit = set.intersect_sorted(&probes, |x| hits.push(x));
        let expect: Vec<u64> = probes
            .iter()
            .copied()
            .filter(|&x| set.contains_linear(x as usize))
            .collect();
        prop_assert_eq!(any_hit, !expect.is_empty());
        prop_assert_eq!(hits, expect);
    }

    #[test]
    fn union_and_intersection_match_bitmap_reference(
        ncells in 64usize..100_000,
        xs in prop::collection::vec(any::<u32>(), 0..150),
        spans in prop::collection::vec((any::<u32>(), 1u32..400), 0..6),
    ) {
        let shape = Shape::d1(ncells as u32);
        let mut a = CellSet::empty(shape);
        let mut ra = DenseBitmap::new(ncells);
        for &x in &xs {
            a.insert_linear(x as usize % ncells);
            ra.insert(x as usize % ncells);
        }
        let mut b = CellSet::empty(shape);
        let mut rb = DenseBitmap::new(ncells);
        for &(start, len) in &spans {
            let start = start as usize % ncells;
            let len = (len as usize).min(ncells - start);
            b.insert_span(start, len);
            for i in start..start + len {
                rb.insert(i);
            }
        }
        prop_assert_eq!(a.intersection_len(&b), ra.intersection_len(&rb));
        let mut u = a.clone();
        u.union_with(&b);
        ra.union_with(&rb);
        prop_assert_eq!(u.len(), ra.count);
        prop_assert!(u.iter_linear().eq(ra.iter()));
    }

    #[test]
    fn construction_order_is_unobservable(
        ncells in 64usize..80_000,
        picks in prop::collection::vec(any::<u32>(), 0..200),
    ) {
        let shape = Shape::d1(ncells as u32);
        // Per-index inserts in arrival order...
        let mut one_at_a_time = CellSet::empty(shape);
        for &p in &picks {
            one_at_a_time.insert_linear(p as usize % ncells);
        }
        // ...versus one bulk sorted insert of the same cells.
        let mut sorted: Vec<u64> = picks.iter().map(|&p| (p as usize % ncells) as u64).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut bulk = CellSet::empty(shape);
        bulk.insert_sorted(&sorted);
        prop_assert_eq!(&one_at_a_time, &bulk);
        // Equality is semantic: normalising one side must not break it.
        bulk.optimize();
        prop_assert_eq!(&one_at_a_time, &bulk);
    }

    #[test]
    fn array_slice_matches_direct_indexing(
        rows in 2u32..20,
        cols in 2u32..20,
    ) {
        let shape = Shape::d2(rows, cols);
        let a = Array::from_fn(shape, |c| (c.get(0) * 1000 + c.get(1)) as f64);
        let lo = Coord::d2(rows / 4, cols / 4);
        let hi = Coord::d2(rows - 1, cols - 1);
        let s = a.slice(&lo, &hi).unwrap();
        for (c, v) in s.iter() {
            let src = Coord::d2(c.get(0) + lo.get(0), c.get(1) + lo.get(1));
            prop_assert_eq!(v, a.get(&src));
        }
    }
}
