//! Array shapes (extents) and coordinate linearisation.

use std::fmt;

use crate::coord::{Coord, MAX_NDIM};

/// The extents of a multi-dimensional array: one positive length per
/// dimension.
///
/// A `Shape` provides the mapping between a [`Coord`] and the dense linear
/// index used by [`Array`](crate::Array) storage and by the bit-packed
/// coordinate encodings of the lineage system ([`ravel`](Shape::ravel) /
/// [`unravel`](Shape::unravel)).
///
/// ```
/// use subzero_array::{Coord, Shape};
///
/// let s = Shape::d2(4, 6);
/// assert_eq!(s.num_cells(), 24);
/// let c = Coord::d2(2, 3);
/// let idx = s.ravel(&c);
/// assert_eq!(idx, 2 * 6 + 3);
/// assert_eq!(s.unravel(idx), c);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    ndim: u8,
    dims: [u32; MAX_NDIM],
}

impl Shape {
    /// Creates a shape from per-dimension extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, has more than [`MAX_NDIM`] entries, or
    /// contains a zero extent.
    pub fn new(dims: &[u32]) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= MAX_NDIM,
            "shape must have between 1 and {MAX_NDIM} dimensions, got {}",
            dims.len()
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "shape extents must be positive, got {dims:?}"
        );
        let mut buf = [0u32; MAX_NDIM];
        buf[..dims.len()].copy_from_slice(dims);
        Shape {
            ndim: dims.len() as u8,
            dims: buf,
        }
    }

    /// Creates a 1-dimensional shape.
    pub fn d1(n: u32) -> Self {
        Shape::new(&[n])
    }

    /// Creates a 2-dimensional shape (`rows`, `cols`).
    pub fn d2(rows: u32, cols: u32) -> Self {
        Shape::new(&[rows, cols])
    }

    /// Creates a 3-dimensional shape.
    pub fn d3(a: u32, b: u32, c: u32) -> Self {
        Shape::new(&[a, b, c])
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.ndim as usize
    }

    /// Extents as a slice of length [`Self::ndim`].
    #[inline]
    pub fn dims(&self) -> &[u32] {
        &self.dims[..self.ndim as usize]
    }

    /// Extent along dimension `dim`.
    #[inline]
    pub fn dim(&self, dim: usize) -> u32 {
        assert!(dim < self.ndim as usize, "dimension {dim} out of range");
        self.dims[dim]
    }

    /// Number of rows (dimension 0).
    #[inline]
    pub fn rows(&self) -> u32 {
        self.dim(0)
    }

    /// Number of columns (dimension 1) of a 2-D shape.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.dim(1)
    }

    /// Total number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.dims().iter().map(|&d| d as usize).product()
    }

    /// Whether `coord` lies inside this shape (same dimensionality and every
    /// component strictly less than the corresponding extent).
    #[inline]
    pub fn contains(&self, coord: &Coord) -> bool {
        coord.ndim() == self.ndim()
            && coord
                .as_slice()
                .iter()
                .zip(self.dims())
                .all(|(&c, &d)| c < d)
    }

    /// Converts a coordinate into its row-major linear index.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is not contained in this shape.
    #[inline]
    pub fn ravel(&self, coord: &Coord) -> usize {
        assert!(
            self.contains(coord),
            "coordinate {coord} out of bounds for shape {self}"
        );
        let mut idx = 0usize;
        for (d, (&c, &len)) in coord.as_slice().iter().zip(self.dims()).enumerate() {
            let _ = d;
            idx = idx * len as usize + c as usize;
        }
        idx
    }

    /// Converts a row-major linear index back into a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.num_cells()`.
    #[inline]
    pub fn unravel(&self, idx: usize) -> Coord {
        assert!(
            idx < self.num_cells(),
            "linear index {idx} out of bounds for shape {self}"
        );
        let mut rem = idx;
        let mut vals = [0u32; MAX_NDIM];
        for d in (0..self.ndim()).rev() {
            let len = self.dims[d] as usize;
            vals[d] = (rem % len) as u32;
            rem /= len;
        }
        Coord::new(&vals[..self.ndim()])
    }

    /// Iterates over all coordinates of the shape in row-major order.
    pub fn iter(&self) -> ShapeIter {
        ShapeIter {
            shape: *self,
            next: 0,
            total: self.num_cells(),
        }
    }

    /// The shape obtained by transposing a 2-D shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not 2-dimensional.
    pub fn transpose2(&self) -> Shape {
        assert_eq!(self.ndim, 2, "transpose2 requires a 2-D shape");
        Shape::d2(self.cols(), self.rows())
    }

    /// Clamps a signed coordinate component-wise into this shape, returning
    /// `None` when any component falls outside (used by neighbourhood
    /// operators at array borders).
    pub fn checked_coord(&self, signed: &[i64]) -> Option<Coord> {
        if signed.len() != self.ndim() {
            return None;
        }
        let mut vals = [0u32; MAX_NDIM];
        for (d, &v) in signed.iter().enumerate() {
            if v < 0 || v >= self.dims[d] as i64 {
                return None;
            }
            vals[d] = v as u32;
        }
        Some(Coord::new(&vals[..self.ndim()]))
    }

    /// All in-bounds coordinates within Chebyshev distance `radius` of
    /// `center` (including `center` itself).  This is the footprint used by
    /// convolutions and the cosmic-ray detector.
    pub fn neighborhood(&self, center: &Coord, radius: u32) -> Vec<Coord> {
        assert_eq!(center.ndim(), self.ndim(), "dimension mismatch");
        let ndim = self.ndim();
        // Clip the hyper-cube of side 2r+1 around the center to the shape:
        // `lo..=hi` per dimension.  A center outside the shape still has
        // in-bounds cells within `radius` unless it is too far out.
        let (mut lo, mut hi) = ([0u32; MAX_NDIM], [0u32; MAX_NDIM]);
        let mut count = 1usize;
        for d in 0..ndim {
            let c = center.get(d);
            lo[d] = c.saturating_sub(radius);
            hi[d] = c.saturating_add(radius).min(self.dims[d] - 1);
            if lo[d] > hi[d] {
                return Vec::new();
            }
            count *= (hi[d] - lo[d]) as usize + 1;
        }
        let mut out = Vec::with_capacity(count);
        let mut cell = lo;
        loop {
            out.push(Coord::new(&cell[..ndim]));
            // Advance the row-major odometer over the clipped box.
            let mut d = ndim;
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                if cell[d] < hi[d] {
                    cell[d] += 1;
                    break;
                }
                cell[d] = lo[d];
            }
        }
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Row-major iterator over every coordinate of a [`Shape`].
pub struct ShapeIter {
    shape: Shape,
    next: usize,
    total: usize,
}

impl Iterator for ShapeIter {
    type Item = Coord;

    fn next(&mut self) -> Option<Coord> {
        if self.next >= self.total {
            return None;
        }
        let c = self.shape.unravel(self.next);
        self.next += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.total - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ShapeIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_properties() {
        let s = Shape::d2(3, 5);
        assert_eq!(s.ndim(), 2);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 5);
        assert_eq!(s.num_cells(), 15);
        assert_eq!(s.dims(), &[3, 5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        let _ = Shape::new(&[3, 0]);
    }

    #[test]
    fn contains_checks_bounds_and_ndim() {
        let s = Shape::d2(3, 5);
        assert!(s.contains(&Coord::d2(2, 4)));
        assert!(!s.contains(&Coord::d2(3, 0)));
        assert!(!s.contains(&Coord::d2(0, 5)));
        assert!(!s.contains(&Coord::d1(0)), "ndim mismatch is not contained");
    }

    #[test]
    fn ravel_unravel_roundtrip_2d() {
        let s = Shape::d2(4, 7);
        for idx in 0..s.num_cells() {
            let c = s.unravel(idx);
            assert_eq!(s.ravel(&c), idx);
        }
    }

    #[test]
    fn ravel_unravel_roundtrip_3d() {
        let s = Shape::d3(3, 4, 5);
        for idx in 0..s.num_cells() {
            let c = s.unravel(idx);
            assert_eq!(s.ravel(&c), idx);
        }
    }

    #[test]
    fn ravel_is_row_major() {
        let s = Shape::d2(2, 3);
        assert_eq!(s.ravel(&Coord::d2(0, 0)), 0);
        assert_eq!(s.ravel(&Coord::d2(0, 2)), 2);
        assert_eq!(s.ravel(&Coord::d2(1, 0)), 3);
        assert_eq!(s.ravel(&Coord::d2(1, 2)), 5);
    }

    #[test]
    fn iter_visits_all_cells_in_order() {
        let s = Shape::d2(2, 2);
        let coords: Vec<Coord> = s.iter().collect();
        assert_eq!(
            coords,
            vec![
                Coord::d2(0, 0),
                Coord::d2(0, 1),
                Coord::d2(1, 0),
                Coord::d2(1, 1)
            ]
        );
        assert_eq!(s.iter().len(), 4);
    }

    #[test]
    fn transpose2_swaps_extents() {
        assert_eq!(Shape::d2(3, 9).transpose2(), Shape::d2(9, 3));
    }

    #[test]
    fn checked_coord_rejects_out_of_bounds() {
        let s = Shape::d2(4, 4);
        assert_eq!(s.checked_coord(&[1, 2]), Some(Coord::d2(1, 2)));
        assert_eq!(s.checked_coord(&[-1, 2]), None);
        assert_eq!(s.checked_coord(&[1, 4]), None);
        assert_eq!(s.checked_coord(&[1]), None);
    }

    #[test]
    fn neighborhood_interior_and_border() {
        let s = Shape::d2(10, 10);
        let n = s.neighborhood(&Coord::d2(5, 5), 1);
        assert_eq!(n.len(), 9);
        let n = s.neighborhood(&Coord::d2(0, 0), 1);
        assert_eq!(n.len(), 4, "corner neighbourhood is clipped");
        let n = s.neighborhood(&Coord::d2(0, 5), 3);
        assert_eq!(n.len(), 4 * 7, "edge neighbourhood is clipped on one side");
        let n = s.neighborhood(&Coord::d2(5, 5), 0);
        assert_eq!(n, vec![Coord::d2(5, 5)]);
    }

    #[test]
    fn neighborhood_at_the_top_of_the_coordinate_range() {
        // `center + radius` would overflow `u32` here.
        let s = Shape::d1(u32::MAX);
        let top = u32::MAX - 1;
        let n = s.neighborhood(&Coord::d1(top), 3);
        assert_eq!(n, (top - 3..=top).map(Coord::d1).collect::<Vec<_>>());
        assert!(Shape::d1(5)
            .neighborhood(&Coord::d1(u32::MAX), 3)
            .is_empty());
    }

    #[test]
    fn neighborhood_1d() {
        let s = Shape::d1(10);
        let n = s.neighborhood(&Coord::d1(0), 2);
        assert_eq!(n, vec![Coord::d1(0), Coord::d1(1), Coord::d1(2)]);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", Shape::d2(512, 2000)), "[512x2000]");
        assert_eq!(format!("{}", Shape::d1(7)), "[7]");
    }
}
