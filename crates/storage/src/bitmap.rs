//! Dynamic bitsets — the storage idiom of DEX.
//!
//! DEX ("DEX: High-Performance Exploration on Large Graphs", CIKM'07)
//! stores each node/edge type and each attribute value as a bitmap over
//! object identifiers, so membership tests, type scans, and conjunctive
//! filters become bitwise operations. [`Bitmap`] reproduces that design
//! with 64-bit blocks.

use std::fmt;

/// A growable bitset over `u64` ids.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Bitmap {
    blocks: Vec<u64>,
}

impl Bitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bitmap with capacity for ids `< bits` without
    /// reallocating.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            blocks: Vec::with_capacity(bits.div_ceil(64)),
        }
    }

    /// Sets bit `id`. Returns true if the bit was newly set.
    pub fn insert(&mut self, id: u64) -> bool {
        let (block, mask) = locate(id);
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let was = self.blocks[block] & mask != 0;
        self.blocks[block] |= mask;
        !was
    }

    /// Clears bit `id`. Returns true if the bit was previously set.
    pub fn remove(&mut self, id: u64) -> bool {
        let (block, mask) = locate(id);
        if block >= self.blocks.len() {
            return false;
        }
        let was = self.blocks[block] & mask != 0;
        self.blocks[block] &= !mask;
        was
    }

    /// Tests bit `id`.
    pub fn contains(&self, id: u64) -> bool {
        let (block, mask) = locate(id);
        self.blocks.get(block).is_some_and(|b| b & mask != 0)
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Iterates set bits in increasing order.
    pub fn iter(&self) -> BitmapIter<'_> {
        BitmapIter {
            blocks: &self.blocks,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Bitmap) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len(), 0);
        }
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &Bitmap) {
        for (i, a) in self.blocks.iter_mut().enumerate() {
            *a &= other.blocks.get(i).copied().unwrap_or(0);
        }
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &Bitmap) {
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            *a &= !b;
        }
    }

    /// Returns the union of two bitmaps.
    pub fn union(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Returns the intersection of two bitmaps.
    pub fn intersection(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns `self \ other`.
    pub fn difference(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// The smallest set id, if any.
    pub fn min(&self) -> Option<u64> {
        self.iter().next()
    }
}

#[inline]
fn locate(id: u64) -> (usize, u64) {
    ((id / 64) as usize, 1u64 << (id % 64))
}

impl FromIterator<u64> for Bitmap {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut bm = Bitmap::new();
        for id in iter {
            bm.insert(id);
        }
        bm
    }
}

impl fmt::Display for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over set bits.
pub struct BitmapIter<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for BitmapIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as u64;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.block_idx as u64 * 64 + bit);
            }
            self.block_idx += 1;
            if self.block_idx >= self.blocks.len() {
                return None;
            }
            self.current = self.blocks[self.block_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut bm = Bitmap::new();
        assert!(bm.insert(5));
        assert!(!bm.insert(5));
        assert!(bm.contains(5));
        assert!(!bm.contains(6));
        assert!(bm.remove(5));
        assert!(!bm.remove(5));
        assert!(bm.is_empty());
    }

    #[test]
    fn spans_block_boundaries() {
        let mut bm = Bitmap::new();
        for id in [0, 63, 64, 65, 127, 128, 1000] {
            bm.insert(id);
        }
        assert_eq!(bm.len(), 7);
        let ids: Vec<_> = bm.iter().collect();
        assert_eq!(ids, vec![0, 63, 64, 65, 127, 128, 1000]);
    }

    #[test]
    fn set_operations() {
        let a: Bitmap = [1u64, 2, 3, 100].into_iter().collect();
        let b: Bitmap = [2u64, 3, 4, 200].into_iter().collect();
        assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 100, 200]
        );
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 100]);
    }

    #[test]
    fn intersection_with_shorter_bitmap_truncates() {
        let a: Bitmap = [1u64, 500].into_iter().collect();
        let b: Bitmap = [1u64].into_iter().collect();
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(b.intersection(&a).iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn min_and_display() {
        let bm: Bitmap = [9u64, 3, 7].into_iter().collect();
        assert_eq!(bm.min(), Some(3));
        assert_eq!(bm.to_string(), "{3, 7, 9}");
        assert_eq!(Bitmap::new().min(), None);
    }

    #[test]
    fn remove_beyond_allocated_blocks_is_noop() {
        let mut bm = Bitmap::new();
        bm.insert(1);
        assert!(!bm.remove(10_000));
        assert_eq!(bm.len(), 1);
    }
}
